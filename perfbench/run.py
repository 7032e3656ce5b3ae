"""Benchmark of the soslen library: one closed-loop client, one instance at
a time, in a single process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  The last line of standard output is a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones (nothing is patched), with times
corrected for the machine's speed by `SpeedProbe`; with `--trace 1`
they are the per-layer ones, from a second copy of the library that runs
the same instances with timing wrappers around each module's public names
(see README.md).
Every output is checked against the independent reference in
`reference.py`, outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from reference import Arith

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# set-up is repeated, spread over the run, and its median reported: the
# machine's speed drifts by tens of percent over tens of seconds
SETUP_REPS = 9
# the tail latency is the highest one with at least TAIL_BEYOND samples
# above it, but no higher than the 99th percentile: on elements-quadratic
# the 11th largest of ~12000 samples sits among the ~10 garbage-collection
# and scheduling pauses of a run and moved by 30% between runs
TAIL_BEYOND = 10
TAIL_PERCENTILE = 99
# the speed probe runs every PROBE_EVERY_S of loop time; an instance's time
# is corrected by the median of the PROBE_WINDOW probes around it, to the
# speed at which one probe takes PROBE_NOMINAL_S (about this machine's
# fast state, see README.md)
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 5
PROBE_NOMINAL_S = 0.002


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] += 1


def _soslen_modules() -> dict:
    return {m: mod for m, mod in sys.modules.items() if m == "soslen" or m.startswith("soslen.")}


def fresh_import():
    """Import soslen from scratch, dropping every cache of an earlier import."""
    for name in _soslen_modules():
        del sys.modules[name]
    lib = importlib.import_module("soslen")
    if Path(lib.__file__).resolve().parent != SRC / "soslen":
        raise SystemExit(f"error: imported soslen from {lib.__file__}, not from {SRC}")
    return lib


def setup(wl, tracer=None):
    """Import the library and build every ring the workload uses.  Returns
    (seconds, seconds inside make_field when traced, lib, fields)."""
    gc.collect()
    t0 = perf_counter()
    lib = fresh_import()
    if tracer is not None:
        tracer.install(lib)
        tracer.active = True
    fields = {sh: lib.fields.make_field(lib.radicals.Shape(sh)) for sh in wl.shapes}
    elapsed = perf_counter() - t0
    make_s = None
    if tracer is not None:
        tracer.active = False
        make_s = tracer.total.pop("fields.make_field", 0.0)
    return elapsed, make_s, lib, fields


class SpeedProbe:
    """Tracks the machine's speed with a fixed computation in the library's
    style: exact Fraction arithmetic in Q(sqrt 6, sqrt 7), tuples, a dict.
    It uses no soslen code, so no change to the library moves it.  The
    garbage collector is off while it runs, and it frees what it allocates,
    so the library's heap does not time it either."""

    _x = tuple(Fraction(k, 2) for k in (3, -1, 5, 1))
    _y = tuple(Fraction(k, 2) for k in (1, 2, -3, 1))

    def __init__(self) -> None:
        self.arith = Arith((6, 7))
        self.times: list[float] = []
        self.positions: list[int] = []

    def run(self, position: int) -> None:
        """Time the probe just before instance `position`."""
        a = self.arith
        gc.disable()
        try:
            t0 = perf_counter()
            seen: dict = {}
            z = self._x
            for _ in range(20):
                z = a.add(a.mul(z, self._y), self._x)
                z = tuple(Fraction(c.numerator % 1000, c.denominator) for c in z)
                seen[z] = seen.get(z, 0) + 1
            dt = perf_counter() - t0
        finally:
            gc.enable()
        self.times.append(dt)
        self.positions.append(position)

    def factor(self, position: int) -> float:
        """Nominal over actual probe time, around instance `position`."""
        j = bisect_right(self.positions, position)
        window = self.times[max(0, j - PROBE_WINDOW // 2 - 1) : j + PROBE_WINDOW // 2]
        return PROBE_NOMINAL_S / statistics.median(window)


class SetupSampler:
    """Repeats the set-up at even intervals of a timed loop.  Each repeat
    imports a second copy of the library and then puts the loop's modules
    back, so the loop's caches are untouched."""

    def __init__(self, wl, seconds: float, reps: int) -> None:
        self.wl = wl
        self.times: list[float] = []
        self.positions: list[int] = []
        self.every = seconds / reps
        self.reps = reps

    def first(self):
        elapsed, _, lib, fields = setup(self.wl)
        self.times.append(elapsed)
        self.positions.append(0)
        return lib, fields

    def __call__(self, loop_elapsed: float, position: int) -> None:
        if len(self.times) >= self.reps or loop_elapsed < self.every * len(self.times):
            return
        saved = _soslen_modules()
        self.times.append(setup(self.wl)[0])
        self.positions.append(position)
        for name in _soslen_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        gc.collect()


def attempt(run):
    """Time one call; an exception is a failed instance, not a crash."""
    t0 = perf_counter()
    try:
        out, error = run(), None
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, error


def evaluate(wl, lib, inst, out, error):
    """(observed data, failure reason or None) for one instance."""
    if error is not None:
        return None, error
    try:
        obs = wl.observe(lib, out)
        return obs, wl.check(inst, obs)
    except Exception as exc:  # noqa: BLE001 - malformed output is a failure
        return None, f"check raised {type(exc).__name__}: {exc}"


class Lane:
    """One imported copy of the library, its fields and, when traced, the
    tracer wrapped around it; with the latency and verdict of each instance."""

    def __init__(self, lib, fields, tracer=None) -> None:
        self.lib = lib
        self.fields = fields
        self.tracer = tracer
        self.latencies: list[float] = []
        self.ok: list[bool] = []
        self.prefix_counts: Counter[str] = Counter()


def run_loop(wl, lanes, seed, seconds, between=None, probe=None):
    """Run instances 0, 1, ... on every lane in turn until `seconds` of loop
    time have passed, but at least wl.prefix of them.  After the prefix,
    `between` is called at each round boundary with the loop time so far
    and the next instance's index.  `probe` runs every PROBE_EVERY_S.
    Neither counts as loop time.  Returns the tally over all lanes,
    one checked output with a certificate for the self-test, and the peak
    RSS in MB after the prefix, which is the same work on every commit."""
    tally = Tally()
    sample = None
    paused = 0.0
    next_probe = 0.0
    start = perf_counter()
    i = 0
    while i < wl.prefix or perf_counter() - start - paused < seconds:
        if probe is not None and perf_counter() - start - paused >= next_probe:
            t0 = perf_counter()
            probe.run(i)
            paused += perf_counter() - t0
            next_probe = t0 - start - paused + PROBE_EVERY_S
        if between is not None and i >= wl.prefix and i % len(wl.strata) == 0:
            t0 = perf_counter()
            between(t0 - start - paused, i)
            paused += perf_counter() - t0
        inst = wl.instance(seed, i)
        for lane in lanes:
            lib, fields, tracer = lane.lib, lane.fields, lane.tracer
            if tracer is not None:
                tracer.active = True
            dt, out, error = attempt(lambda: wl.run(lib, fields, inst))
            if tracer is not None:
                tracer.active = False
            obs, reason = evaluate(wl, lib, inst, out, error)
            tally.record(reason)
            lane.latencies.append(dt)
            lane.ok.append(reason is None)
            if sample is None and reason is None and wl.has_certificate(obs):
                sample = (inst, obs)
            if tracer is not None and i + 1 == wl.prefix:
                lane.prefix_counts = Counter(tracer.counts)
        i += 1
        if i == wl.prefix:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return tally, sample, peak_mb


def self_test(wl, sample) -> dict:
    """Feed one checked output, then a wrong verdict, a certificate that does
    not verify and an exception through the same accounting: exactly the
    three injected faults must be counted as failed."""
    if sample is None:
        return {"ok": False, "why": "no instance with a certificate"}
    inst, obs = sample

    def raising():
        raise AssertionError("injected")

    tally = Tally()
    results = {}
    cases = (
        ("genuine", lambda: obs),
        ("wrong_verdict", lambda: wl.wrong_verdict(obs)),
        ("bad_certificate", lambda: wl.bad_certificate(obs)),
        ("raised", raising),
    )
    for name, make in cases:
        _, out, error = attempt(make)
        reason = wl.check(inst, out) if error is None else error
        tally.record(reason)
        results[name] = reason
    ok = results["genuine"] is None and tally.failed == 3 and tally.attempted == 4
    return {"ok": ok, "failed_frac": tally.failed / tally.attempted, **results}


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(wl, args):
    sampler = SetupSampler(wl, args.seconds, SETUP_REPS)
    lane = Lane(*sampler.first())
    wl.prepare(lane.lib)
    probe = SpeedProbe()
    tally, sample, peak_mb = run_loop(
        wl, [lane], args.seed, args.seconds, between=sampler, probe=probe
    )
    n = len(lane.latencies)
    beyond = max(TAIL_BEYOND, n * (100 - TAIL_PERCENTILE) // 100)
    tail_index = max(n - 1 - beyond, 0)

    def timings(latencies, setups):
        lat = sorted(latencies)
        return {
            "setup_s": statistics.median(setups),
            "throughput_ips": sum(lane.ok) / sum(lat),
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": lat[tail_index],
        }

    corrected = timings(
        [dt * probe.factor(i) for i, dt in enumerate(lane.latencies)],
        [t * probe.factor(i) for t, i in zip(sampler.times, sampler.positions)],
    )
    detail = {
        "instances": n,
        "setup_reps": len(sampler.times),
        "latency_tail_percentile": 100 * (tail_index + 1) / n,
        "latency_tail_beyond": n - 1 - tail_index,
        "failed_frac": tally.failed / tally.attempted,
        "probes": len(probe.times),
        "probe_median_s": statistics.median(probe.times),
        "uncorrected": timings(lane.latencies, sampler.times),
        "peak_rss_mb": peak_mb,
    }
    units = {"setup_s": "s", "throughput_ips": "1/s", "latency_p50_s": "s", "latency_tail_s": "s"}
    metrics = {k: metric(v, units[k]) for k, v in corrected.items()}
    return tally, self_test(wl, sample), detail, metrics


def traced(wl, args):
    """Two copies of the library, each freshly imported: one plain, one with
    tracing wrappers.  Every instance runs on both in turn, so the machine's
    drift cancels out of the overhead."""
    from tracing import Tracer

    plain = Lane(*setup(wl)[2:])
    wl.prepare(plain.lib)
    tracer = Tracer()
    makes = []
    for _ in range(SETUP_REPS):
        _, make_s, lib, fields = setup(wl, tracer)
        makes.append(make_s)
    tracer.reset()
    lane = Lane(lib, fields, tracer)
    tally, sample, _ = run_loop(wl, [plain, lane], args.seed, args.seconds)
    n = len(lane.latencies)
    counts = lane.prefix_counts

    def per_instance(*names):
        return metric(sum(tracer.total[name] for name in names) / n, "s")

    def exact(key):
        return metric(counts[key], "count")

    dfs_self = sum(tracer.self_time[k] for k in ("search.length_certificate", "search.represent"))
    metrics = {
        "search.pool_build_s": per_instance("search.pool_build"),
        "search.pool_rows": exact("search.pool_rows"),
        "search.pool_builds": exact("search.pool_build_calls"),
        "search.length_certificate_s": per_instance("search.length_certificate"),
        "search.represent_s": per_instance("search.represent"),
        "search.dfs_self_s": metric(dfs_self / n, "s"),
        "search.squares_total": exact("search.squares_total"),
        "search.exceeds_bound": exact("search.exceeds_bound"),
        "forms.totally_psd_calls": exact("forms.totally_psd_calls"),
        "forms.totally_psd_s": per_instance("forms.totally_psd"),
        "forms.gram_rank_s": per_instance("forms.gram_rank"),
        "forms.verify_certificate_calls": exact("forms.verify_certificate_calls"),
        "forms.verify_certificate_s": per_instance("forms.verify_certificate"),
        "radicals.sign_at_calls": exact("radicals.sign_at_calls"),
        "radicals.sign_at_s": per_instance("radicals.sign_at"),
        "descent.expand_s": per_instance("descent.expand"),
        "descent.compress_s": per_instance("descent.compress"),
        "descent.lift_s": per_instance("descent.lift"),
        "descent.rows_in": exact("descent.rows_in"),
        "descent.rows_out": exact("descent.rows_out"),
        "certfile.emit_s": per_instance("certfile.emit"),
        "certfile.parse_s": per_instance("certfile.parse"),
        "certfile.verify_document_s": per_instance("certfile.verify_document"),
        "certfile.bytes": exact("certfile.bytes"),
        "fields.make_field_s": metric(statistics.median(makes), "s"),
        "trace.overhead_frac": metric(sum(lane.latencies) / sum(plain.latencies) - 1, "ratio"),
    }
    detail = {"instances": n, "counts_over_first": wl.prefix}
    return tally, self_test(wl, sample), detail, metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "soslen" / "__init__.py").is_file():
        print(f"error: no soslen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]()
    tally, selftest, detail, metrics = (traced if args.trace else untraced)(wl, args)
    detail.update(workload=args.workload, seed=args.seed, selftest=selftest)
    if tally.reasons:
        detail["failures"] = dict(tally.reasons.most_common(5))
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": selftest["ok"] and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
