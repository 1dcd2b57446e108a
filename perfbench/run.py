"""symcirc benchmark: closed-loop verification workloads, timed end to end,
with a separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload compile_extract --seed 1 --seconds 45 --trace 0

One client in one process, no pool and no threads: each item starts only
after the previous one has its verdict.  After set-up (imports, input
generation, per-workload preparation), whole rounds of the same items run
for about ``--seconds``; set-up is then repeated four more times and
``setup_s`` is the import time plus the median set-up time.

The host is a shared virtual machine that switches between a fast and a
slow state (the same code runs about 1.7 times slower) every 10 ms or so,
and the share of time spent slow drifts over minutes: wall-clock figures of
the same code moved by a third between runs.  So a fixed reference step,
stdlib code only, runs after every item, and every time is reported at the
host speed at which that step takes REF_STEP_S on average.  An item's time
(or a round start's) is divided by the mean time, over REF_STEP_S, of the
reference steps within REF_WINDOW_S of it; the mean, unlike the median of
a two-state time, moves in step with the share spent slow.  A set-up time
is divided by that of REF_BURST steps run just before and just after it.
Each step of a round (its start and each item) is timed as its median over
the rounds of the run; the item percentiles are taken over the round's
items, and ``items_per_s`` is the round's item count over the sum of its
steps.  The line before the result gives the wall-clock figures as well.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` set-up runs once with the layer wrappers installed,
then one round runs untraced and the same round again traced; the last
line carries the per-layer metrics (``setup.*`` for set-up, the rest for
the traced round), and the spans are written to ``perfbench/out/``.  Every
run prints a digest of its outputs; it depends only on the workload and
the seed.

Run from the root of a symcirc checkout; the program is imported from its
``src`` directory.  Exits with 2, printing no result, when that is missing.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from fractions import Fraction  # noqa: E402

from bench_trace import GROUPS, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("compile_extract", "analyze_census")
SETUP_REPEATS = 5
MIN_TAIL_BEYOND = 10
# Mean time of `reference_step` on the machine the bounds were set on
# (2 vCPUs of a shared Intel Xeon virtual machine, Python 3.11).
REF_STEP_S = 0.0016
# An item's speed is read from the reference steps this close to it,
# a set-up's from REF_BURST steps run just before and just after it.
REF_WINDOW_S = 0.5
REF_BURST = 150


def reference_step() -> int:
    """Fixed work of the kinds the program does most (Fraction arithmetic,
    tuple-keyed dicts, sorting), about 1.5 ms; its time reads the speed the
    host gives the process at that moment."""
    acc = Fraction(0)
    table = {}
    for k in range(1, 200):
        acc += Fraction(k % 7 - 3, k % 5 + 1) * Fraction(k % 3 + 1, 7)
        table[(k, k % 13)] = acc.numerator % 97
    return sum(a * v - b for (a, b), v in sorted(table.items()))


class Phase:
    """Item timings, verdicts and the digest of one measured phase."""

    def __init__(self):
        self.spans = []  # (start, end) of each item, round after round
        self.round_starts = []  # (start, end) of each round's start_round()
        self.ref_at = []  # clock at the end of each reference step
        self.ref_times = []  # and its time
        self.failed = 0
        self.rounds = 0
        self.elapsed = 0.0
        self.first_round = []  # (verdict, sha256 of output) per item of round 1

    def slowdown(self, start=None, end=None) -> float:
        """How much slower than the reference speed the host ran: over the
        reference steps within REF_WINDOW_S of [start, end], or over the
        whole phase."""
        refs = self.ref_times
        if start is not None:
            lo = bisect.bisect_left(self.ref_at, start - REF_WINDOW_S)
            hi = bisect.bisect_right(self.ref_at, end + REF_WINDOW_S)
            refs = refs[lo:hi] or refs
        return statistics.fmean(refs) / REF_STEP_S

    def _scaled(self, spans) -> list:
        return [(end - start) / self.slowdown(start, end) for start, end in spans]

    def item_times(self) -> list:
        """Each item's median time over the run's rounds (every round runs
        the same items), at the reference speed.  Their count, hence the tail
        percentile, does not change with the number of rounds."""
        k = len(self.first_round)
        scaled = self._scaled(self.spans)
        return [statistics.median(scaled[i::k]) for i in range(k)]

    def items_per_s(self) -> float:
        """Items per second at the reference speed: the round's item count
        over its median start plus each item's median time."""
        start = statistics.median(self._scaled(self.round_starts))
        return len(self.first_round) / (start + sum(self.item_times()))

    def busy_s(self) -> float:
        """Wall-clock time of the rounds, reference steps left out."""
        return sum(end - start for start, end in self.round_starts + self.spans)

    def digest(self) -> str:
        h = hashlib.sha256()
        for ok, out in self.first_round:
            h.update(b"1" if ok else b"0")
            h.update(out)
        return h.hexdigest()


def measure(work, seconds: float, max_rounds: int = 0, tracer=None) -> Phase:
    """Whole rounds, each item after the previous one, for about `seconds`
    (or exactly `max_rounds`), with a reference step after every item.
    Every round after the first must reproduce the first round's outputs
    byte for byte."""
    phase = Phase()
    clock = time.perf_counter
    start = clock()
    item_id = 0
    while True:
        t0 = clock()
        items = work.start_round()
        phase.round_starts.append((t0, clock()))
        for idx, item in enumerate(items):
            if tracer is not None:
                tracer.item = item_id
            t0 = clock()
            try:
                ok, out = work.run_item(item)
            except Exception as exc:  # a failed item is counted, not fatal
                ok, out = False, f"{type(exc).__name__}: {exc}".encode()
            t1 = clock()
            phase.spans.append((t0, t1))
            item_id += 1
            out_hash = hashlib.sha256(out).digest()
            if phase.rounds == 0:
                phase.first_round.append((ok, out_hash))
            else:
                ok = ok and phase.first_round[idx] == (True, out_hash)
            if not ok:
                phase.failed += 1
            t0 = clock()
            reference_step()
            t1 = clock()
            phase.ref_at.append(t1)
            phase.ref_times.append(t1 - t0)
        phase.rounds += 1
        phase.elapsed = clock() - start
        if max_rounds and phase.rounds >= max_rounds:
            return phase
        # Stop at the round end nearest to `seconds`: run another round only
        # if it would end closer to `seconds` than this one.
        if not max_rounds and phase.elapsed + phase.elapsed / phase.rounds / 2 >= seconds:
            return phase


def tail(times):
    """(value, percentile, samples) at the highest whole percentile with at
    least MIN_TAIL_BEYOND samples beyond it (nearest-rank)."""
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= MIN_TAIL_BEYOND:
            return ordered[rank - 1], p, n
    return ordered[-1], 100, n


def prepare(name: str, seed: int, workdir: str, tiny: bool):
    """Set the workload up once; returns it and the time that took."""
    import bench_workloads

    t0 = time.perf_counter()
    work = bench_workloads.WORKLOADS[name](seed, workdir, tiny)
    return work, time.perf_counter() - t0


def reference_burst() -> float:
    """The slowdown read from REF_BURST reference steps run back to back."""
    times = []
    for _ in range(REF_BURST):
        t0 = time.perf_counter()
        reference_step()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times) / REF_STEP_S


def timed_setup(name: str, seed: int, workdir: str, tiny: bool):
    """Set up once between two reference bursts; returns the workload, the
    wall-clock set-up time and the slowdown read around it."""
    before = reference_burst()
    work, took = prepare(name, seed, workdir, tiny)
    return work, took, (before + reference_burst()) / 2


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 setup_repeats: int = SETUP_REPEATS, import_s: float = 0.0):
    """One benchmark run; returns (result line dict, digest, notes dict).

    Set-up runs once before the timed phase and `setup_repeats - 1` more
    times after it, so the median set-up time samples the machine at
    different moments of the run."""
    workdir = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    if trace:
        return _traced_run(name, seed, workdir, tiny)
    work, took, slowdown = timed_setup(name, seed, workdir, tiny)
    import_slowdown = slowdown
    try:
        phase = measure(work, seconds)
    finally:
        work.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    prep_s = [(took, slowdown)]
    for _ in range(setup_repeats - 1):
        again, took, slowdown = timed_setup(name, seed, workdir, tiny)
        again.close()
        prep_s.append((took, slowdown))
    times = phase.item_times()
    value, pct, count = tail(times)
    metrics = {
        "items_per_s": (phase.items_per_s(), "1/s"),
        "item_p50_ms": (1000 * statistics.median(times), "ms"),
        "item_tail_ms": (1000 * value, "ms"),
        "setup_s": (import_s / import_slowdown
                    + statistics.median(took / slowdown for took, slowdown in prep_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {"tail_percentile": pct, "tail_samples": count, "rounds": phase.rounds,
             "round_items": len(phase.first_round),
             "slowdown": round(phase.slowdown(), 4),
             "wall_items_per_s": round(len(phase.spans) / phase.busy_s(), 4),
             "wall_setup_s": round(import_s + statistics.median(t for t, _ in prep_s), 4)}
    return _result([phase], metrics), phase.digest(), notes


def _traced_run(name: str, seed: int, workdir: str, tiny: bool):
    """Set-up once and one round, traced, after the same round untraced."""
    setup_tracer = Tracer()
    with setup_tracer:
        work, prep_s = prepare(name, seed, workdir, tiny)
    tracer = Tracer()
    try:
        plain = measure(work, 0, max_rounds=1)
        with tracer:
            work.attach(tracer)
            try:
                traced = measure(work, 0, max_rounds=1, tracer=tracer)
            finally:
                work.attach(None)
    finally:
        work.close()
    if plain.digest() != traced.digest():
        traced.failed += 1
    plain_rate = plain.items_per_s()
    traced_rate = traced.items_per_s()
    metrics = tracer.metrics(traced.busy_s())
    metrics.update({
        "bench.untraced_items_per_s": (plain_rate, "1/s"),
        "bench.traced_items_per_s": (traced_rate, "1/s"),
        "bench.trace_overhead_ratio": (plain_rate / traced_rate - 1, "ratio"),
        "bench.fail_ratio": ((plain.failed + traced.failed)
                             / (len(plain.spans) + len(traced.spans)), "ratio"),
        "bench.spans": (len(tracer.span_id), "count"),
        "setup.bench.self_s": (prep_s - setup_tracer.top_level_s, "s"),
    })
    metrics.update({f"setup.{group}.self_s": (setup_tracer.self_s[group], "s")
                    for group in GROUPS})
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.csv.gz")
    with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("phase,id,name,start_s,end_s,parent,item\n")
        setup_tracer.write_spans(fh, "setup")
        tracer.write_spans(fh, "round")
    notes = {"spans": os.path.relpath(spans_path, ROOT), "digest_untraced": plain.digest()}
    return _result([plain, traced], metrics), traced.digest(), notes


def _result(phases, metrics) -> dict:
    failed = sum(p.failed for p in phases)
    return {
        "correct": failed == 0,
        "attempted": sum(len(p.spans) for p in phases),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in sorted(metrics.items())},
    }


def import_program():
    """Put the checkout's `src` first on the path and import symcirc from it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "symcirc", "__init__.py")):
        raise ImportError(f"no symcirc sources under {src}")
    sys.path.insert(0, src)
    import symcirc

    if os.path.dirname(os.path.dirname(os.path.abspath(symcirc.__file__))) != src:
        raise ImportError(f"symcirc was imported from {symcirc.__file__}, not {src}")
    import bench_workloads  # noqa: F401


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START
    result, digest, notes = run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace), import_s=import_s)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} digest={digest} "
          + " ".join(f"{k}={v}" for k, v in sorted(notes.items())))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
