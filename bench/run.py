#!/usr/bin/env python3
"""turanlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (lp-product, bounds) in this
process, round after round, while the next round fits in S seconds and
at least three times. Each round draws fresh inputs from the seed and
the round's number. Every output is checked by ``checks.py``. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones (setup_s, wall_s, solve_p50_s, peak_rss_mb); with
``--trace 1`` they are the per-layer ones, and the spans are written to
``.bench_out/`` at the root of the checkout.

The benchmark imports the package from ``src/`` beside this directory,
so it runs from a plain source checkout with nothing installed.
"""
from __future__ import annotations

import os

# one BLAS thread: numpy reads these once, at import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
MIN_ROUNDS = 3
# The shared host's speed moves by up to 1.8x with its load, in spells of
# seconds to minutes. A fixed pure-Python loop is timed next to every
# measurement, and each time is scaled by NOMINAL_S / (the loop's time
# around it): the reported figures are seconds on a host that runs the
# loop in NOMINAL_S, whatever the host's speed was at that moment.
NOMINAL_S = 0.002


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the inputs, say "ready" and exit (times set-up)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int, workdir: str):
    """The first round's operations, with their inputs built."""
    import workloads

    os.makedirs(workdir, exist_ok=True)
    return workloads.build(workload, seed, 0, workdir)


def reference_loop() -> float:
    """Wall time of the fixed reference work: about NOMINAL_S when the
    host runs at full speed."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(20_000):
        acc += i * i % 7
        table[i & 255] = acc
    return time.perf_counter() - start


def probe_setup(args) -> tuple[float, float]:
    """Median over fresh processes of start-up until the first instance
    could run: interpreter, numpy and turanlab imports, input building.
    Returns (scaled, raw) seconds."""
    raw, scaled = [], []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-probe"]
        before = reference_loop()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            raw.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe {i} failed ({proc.returncode})")
        ref = (before + reference_loop()) / 2
        scaled.append(raw[-1] * NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(raw)


def run_rounds(ops, next_ops, seconds: float, tracer=None, install=None):
    """Run whole rounds while the next round still fits in ``seconds``,
    and at least MIN_ROUNDS. Round 0 runs ``ops``; round r > 0 runs
    ``next_ops(r)``, built before the round starts. Returns
    (times[op][round], refs[op][round], attempted, failed, correct,
    traced round indices), where refs holds the reference loop's time
    around each operation. In a traced run, odd rounds are traced and
    even ones are not, so the tracing overhead is measured in the same
    process."""
    from checks import CheckError

    times = [[] for _ in ops]
    refs = [[] for _ in ops]
    traced = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    rnd = 0
    last = 0.0
    while rnd < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        if rnd > 0:
            ops = next_ops(rnd)
        tracing = tracer is not None and rnd % 2 == 1
        if tracing:
            tracer.round = rnd
            install(tracer)
            traced.append(rnd)
        results = []
        ref = reference_loop()
        for i, op in enumerate(ops):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
                ok = True
            except Exception as exc:  # counted, reported, and the run goes on
                out, ok = exc, False
            times[i].append(time.perf_counter() - t0)
            results.append((op, ok, out))
            ref_after = reference_loop()
            refs[i].append((ref + ref_after) / 2)
            ref = ref_after
        if tracing:
            tracer.restore()
        for op, ok, out in results:
            if not ok:
                failed += 1
                if rnd == 0:
                    print(f"failed: {op.name}: {out}", file=sys.stderr)
                continue
            try:
                op.check(out)
            except CheckError as exc:
                correct = False
                print(f"incorrect: {op.name}: {exc}", file=sys.stderr)
        last = time.perf_counter() - begun
        rnd += 1
    return times, refs, attempted, failed, correct, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "turanlab", "__init__.py")):
        print(f"error: no turanlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _wall(times) -> float:
    """Sum over operations of each one's mean time: one round's wall."""
    return sum(statistics.fmean(t) for t in times)


def _p50(times) -> float:
    """Median over every solve of every operation."""
    return statistics.median(x for t in times for x in t)


def measure(args, workdir: str) -> int:
    import workloads

    def next_ops(rnd):
        return workloads.build(args.workload, args.seed, rnd, workdir)

    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        tracer.round = -1
        layers.install_groups(tracer)
    ops = setup(args.workload, args.seed, workdir)
    if tracer is not None:
        tracer.restore()
        times, refs, attempted, failed, correct, traced = run_rounds(
            ops, next_ops, args.seconds, tracer, layers.install)
        walls = [sum(t) for t in zip(*times)]
        # the overhead compares rounds run at different moments, so it is
        # taken from scaled round walls; the spans themselves are not scaled
        scaled_walls = [sum(w * NOMINAL_S / r for w, r in zip(ts, rs))
                        for ts, rs in zip(zip(*times), zip(*refs))]
        metrics = layers.metrics(tracer, scaled_walls, traced)
        print(f"LP spans cover {layers.lp_share(tracer, walls, traced):.4f} "
              "of the traced round wall time", file=sys.stderr)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(
            OUT, f"trace-{args.workload}-s{args.seed}.json"))
    else:
        setup_s, setup_raw = probe_setup(args)
        times, refs, attempted, failed, correct, _ = run_rounds(
            ops, next_ops, args.seconds)
        walls = [sum(t) for t in zip(*times)]
        # every solve's scaled time, leaving out round 0, which pays for
        # the cold caches
        scaled = [[w * NOMINAL_S / r for w, r in zip(ts[1:], rs[1:])]
                  for ts, rs in zip(times, refs)]
        raw = [t[1:] for t in times]
        all_refs = [r for rs in refs for r in rs[1:]]
        print(f"reference loop {statistics.median(all_refs) * 1e3:.3f} ms "
              f"(median), {min(all_refs) * 1e3:.3f} ms (best), nominal "
              f"{NOMINAL_S * 1e3:.3f} ms; unscaled: setup "
              f"{setup_raw:.4f} s, wall {_wall(raw):.4f} s, solve_p50 "
              f"{_p50(raw):.4f} s", file=sys.stderr)
        for op, sc, rw in zip(ops, scaled, raw):
            print(f"  {op.name}: mean {statistics.fmean(sc):.4f} s scaled, "
                  f"{statistics.fmean(rw):.4f} s unscaled", file=sys.stderr)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (_wall(scaled), "s"),
            "solve_p50_s": (_p50(scaled), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
    print(f"{args.workload}: {len(walls)} rounds of {len(ops)} operations, "
          f"round walls {', '.join(f'{w:.3f}' for w in walls)} s",
          file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
