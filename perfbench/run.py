#!/usr/bin/env python3
"""Benchmark of aradius: soundness campaigns, case replay and PDE reports.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root; ``aradius`` is imported from ``src/``.  One
caller runs one workload in a closed loop: each operation starts when the
previous one ends, and whole rounds of the workload's operations repeat
until ``--seconds`` have passed and at least 100 latency samples exist.
Latencies and throughput are scaled to a reference machine speed, which
a fixed loop measures between operations (``Speed``; see README.md).
The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
``--workload all`` runs every workload in its own process and prints a
table.  The exit status is 1 when any operation failed.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("campaign-operator", "campaign-lemma", "case-replay", "pde-refinement")
MIN_SAMPLES = 100
#: Set-up repeats: the import is timed in this process and in fresh ones.
IMPORT_PROBES = 10
BUILDS = 3
#: Median time of the ``Speed`` loop on the machine the README's figures
#: come from; timings are scaled to that speed.  The loop runs at the
#: start of each round and again whenever REF_EVERY_S seconds have passed.
REF_S = 0.0060
REF_EVERY_S = 0.25
REF_WINDOW = 2
#: numpy is imported before the clock starts: set-up times aradius, not numpy.
PROBE = (
    "import sys, time, numpy; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import aradius; print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=9000)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import aradius from this checkout's ``src``; return it and the import time."""
    import numpy  # noqa: F401  (outside the timed import, as in PROBE)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import aradius

    elapsed = time.perf_counter() - start
    if Path(aradius.__file__).resolve().parent != SRC / "aradius":
        raise SystemExit(f"aradius was imported from {aradius.__file__}, not {SRC}")
    return aradius, elapsed


def probe_import():
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Tally:
    """Attempts, failures and speed-scaled latency samples of a sequence of rounds."""

    def __init__(self):
        self.samples = []
        self.busy = 0.0
        self.raw_samples = []
        self.factors = []
        self.attempted = {}
        self.failed = {}
        self.first = {}
        self.reference = {}
        self.errors = {}

    def record(self, op, output, elapsed, error, factor):
        self.raw_samples.append(elapsed / op.weight)
        self.samples.append(elapsed / factor / op.weight)
        self.busy += elapsed / factor
        self.attempted[op.key] = self.attempted.get(op.key, 0) + op.weight
        if error is None:
            error = op.check(output)
        if error is None:
            summary = op.summary(output)
            if op.key not in self.reference:
                self.reference[op.key] = summary
                self.first[op.key] = output
            elif summary != self.reference[op.key]:
                error = "output differs from the first round"
        if error is not None:
            self.failed[op.key] = self.failed.get(op.key, 0) + op.weight
            self.errors.setdefault(op.key, error)

    def totals(self, bad):
        attempted = sum(self.attempted.values())
        failed = sum(
            self.attempted[k] if k in bad else self.failed.get(k, 0) for k in self.attempted
        )
        return attempted, failed


class Speed:
    """The machine's current speed, from a fixed loop that does not touch aradius.

    The loop makes 100 passes of a 4x4 complex ``eigh``, a product, a
    2-norm and a short Python loop.  ``factor`` is the loop's median time
    near an operation divided by ``REF_S``: 1.2 means the machine ran 20%
    slower.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

    def loop(self):
        np, m = self.np, self.m
        start = time.perf_counter()
        x = m
        for _ in range(100):
            np.linalg.eigh(0.5 * (x + x.conj().T))
            x = (x @ m) / float(np.linalg.norm(x, 2))
            [abs(complex(z)) for z in x.ravel()]
        return time.perf_counter() - start


def run_round(ops, tally, call, speed):
    """Run every operation once; return their summed time, not scaled.

    Each operation's time is scaled by the median of the ``Speed`` loops
    nearest to it: the one before it and REF_WINDOW on either side.
    """
    refs = [speed.loop()]
    last = time.perf_counter()
    results = []
    for op in ops:
        if time.perf_counter() - last >= REF_EVERY_S:
            refs.append(speed.loop())
            last = time.perf_counter()
        start = time.perf_counter()
        try:
            output, error = call(op.run), None
        except Exception:  # an operation that raises is a failed operation
            output, error = None, traceback.format_exc(limit=3)
        results.append((op, output, time.perf_counter() - start, error, len(refs) - 1))
    factors = [
        statistics.median(refs[max(0, j - REF_WINDOW) : j + REF_WINDOW + 1]) / REF_S
        for j in range(len(refs))
    ]
    tally.factors += factors
    for op, output, elapsed, error, j in results:
        tally.record(op, output, elapsed, error, factors[j])
    return sum(r[2] for r in results)


def timed_phase(work, seconds, speed):
    tally = Tally()
    start = time.perf_counter()
    while True:
        run_round(work.ops, tally, lambda fn: fn(), speed)
        if time.perf_counter() - start >= seconds and len(tally.samples) >= MIN_SAMPLES:
            return tally


def traced_phase(work, seconds, aradius, speed):
    """Alternate untraced and traced rounds; the traced ones give the layers."""
    import tracing

    tracer = tracing.Tracer(aradius)
    tally = Tally()
    plain = traced = 0.0
    n_ops = 0
    start = time.perf_counter()
    pairs = 0
    while True:
        # Alternate which side goes first, so drift and warm-up fall on both.
        for side in ("plain", "traced") if pairs % 2 == 0 else ("traced", "plain"):
            if side == "plain":
                plain += run_round(work.ops, tally, lambda fn: fn(), speed)
                continue
            tracer.install()
            try:
                traced += run_round(work.ops, tally, tracer.op, speed)
            finally:
                tracer.remove()
            n_ops += sum(op.weight for op in work.ops)
        pairs += 1
        if time.perf_counter() - start >= seconds:
            break
    metrics = tracing.layer_metrics(tracer, n_ops, aradius)
    metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    return tally, metrics, tracer


def report(correct, attempted, failed, metrics):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def set_up(name, seed, speed):
    """Import aradius and build the workload; return both and ``setup_s``.

    ``setup_s`` is the median import plus the median build, scaled to the
    reference speed by the median of the ``Speed`` loops run before each.
    """
    refs = [speed.loop()]
    aradius, first_import = import_package()
    import workloads

    imports = [first_import]
    for _ in range(IMPORT_PROBES):
        refs.append(speed.loop())
        imports.append(probe_import())
    builds = []
    work = None
    for _ in range(BUILDS):
        refs.append(speed.loop())
        work = None
        start = time.perf_counter()
        work = workloads.build(name, seed, OUT)
        builds.append(time.perf_counter() - start)
    factor = statistics.median(refs) / REF_S
    return aradius, work, (statistics.median(imports) + statistics.median(builds)) / factor


def run_workload(args):
    speed = Speed()
    aradius, work, setup_s = set_up(args.workload, args.seed, speed)

    if args.trace:
        tally, metrics, tracer = traced_phase(work, args.seconds, aradius, speed)
    else:
        tally = timed_phase(work, args.seconds, speed)

    correct = True
    verify_start = time.perf_counter()
    try:
        bad = work.verify(tally.first)
    except Exception:
        traceback.print_exc()
        correct, bad = False, {}
    print(
        f"{args.workload}: set-up {setup_s:.3f} s, {len(tally.samples)} samples, "
        f"{len(tally.first)} outputs verified in {time.perf_counter() - verify_start:.2f} s",
        file=sys.stderr,
    )
    attempted, failed = tally.totals(bad)
    for key, err in {**tally.errors, **bad}.items():
        print(f"FAILED {args.workload} {key}: {err}", file=sys.stderr)

    if args.trace:
        tracer.write(
            OUT / f"trace-{args.workload}-{args.seed}",
            {"workload": args.workload, "seed": args.seed, "metrics": metrics},
        )
    else:
        ms = [1e3 * s for s in tally.samples]
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": ((attempted - failed) / tally.busy, "ops/s"),
            "op_ms_p50": (statistics.median(ms), "ms"),
            "op_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        raw = [1e3 * s for s in tally.raw_samples]
        print(
            f"{args.workload}: unscaled p50 {statistics.median(raw):.4g} ms, "
            f"p90 {statistics.quantiles(raw, n=10)[-1]:.4g} ms; speed factor median "
            f"{statistics.median(tally.factors):.3f}, range {min(tally.factors):.3f}-"
            f"{max(tally.factors):.3f} over {len(tally.factors)} loop windows",
            file=sys.stderr,
        )
    print(json.dumps(report(correct, attempted, failed, metrics)))
    return 0 if correct and failed == 0 else 1


def run_all(args):
    """Each workload in its own process, so each has its own peak memory."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        res = json.loads(lines[-1])
        results[name] = res
        status = status or proc.returncode
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:42s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.seconds < 1:
        raise SystemExit("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
