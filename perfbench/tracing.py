"""Per-layer spans, recorded from outside the library.

The traced run replaces public names with timing wrappers at every module
where the library looks them up: `from .forms import totally_psd` binds the
function into `soslen.search` at import time, so wrapping
`soslen.forms.totally_psd` alone would miss the calls made by the search.
A wrapper records its span's duration and adds it to the enclosing span's
child time, so a layer's self time is its duration minus its children's.
Only totals are kept, not individual spans.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._children: list[float] = []

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a wrapper that records spans named `name`."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            children = self._children
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = children.pop()
                if children:
                    children[-1] += dt
                self.total[name] += dt
                self.self_time[name] += dt - child
                self.counts[name + "_calls"] += 1
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(owner, attr, wrapper)

    def reset(self) -> None:
        self.total.clear()
        self.self_time.clear()
        self.counts.clear()

    def add(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def install(self, lib) -> None:
        """Wrap the layer boundaries of a freshly imported soslen package."""
        search, forms, descent, certfile = lib.search, lib.forms, lib.descent, lib.certfile

        def on_pool(args, pool):
            self.add("search.pool_rows", len(pool))

        def on_length(args, res):
            if isinstance(res, tuple):
                self.add("search.squares_total", res[0])
            elif isinstance(res, search.ExceedsBound):
                self.add("search.exceeds_bound", 1)

        def on_represent(args, res):
            if isinstance(res, search.Represented):
                self.add("search.squares_total", len(res.certificate.rows))

        def on_expand(args, res):
            self.add("descent.rows_in", len(args[0].input_cert.rows))

        def on_lift(args, cert):
            self.add("descent.rows_out", len(cert.rows))

        def on_emit(args, text):
            self.add("certfile.bytes", len(text.encode()))

        self.wrap(search, "RowPool", "search.pool_build", on_pool)
        self.wrap(search, "length_certificate", "search.length_certificate", on_length)
        for module in (search, descent):
            self.wrap(module, "represent", "search.represent", on_represent)
        self.wrap(search, "totally_psd", "forms.totally_psd")
        self.wrap(search, "gram_rank", "forms.gram_rank")
        for module in (search, descent, certfile):
            self.wrap(module, "verify_certificate", "forms.verify_certificate")
        self.wrap(lib.radicals.Radical, "sign_at", "radicals.sign_at")
        self.wrap(descent, "expand", "descent.expand", on_expand)
        self.wrap(descent, "compress", "descent.compress")
        self.wrap(descent, "lift", "descent.lift", on_lift)
        self.wrap(certfile, "emit_certificate", "certfile.emit", on_emit)
        self.wrap(certfile, "parse_certificate", "certfile.parse")
        self.wrap(certfile, "verify_document", "certfile.verify_document")
        self.wrap(lib.fields, "make_field", "fields.make_field")
