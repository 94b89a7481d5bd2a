"""Benchmark of toric_hodge: cold rounds of a seeded corpus, checked outputs.

Usage (from the repository root):

    python3 benchmark/run.py --workload hodge-ci --seed 1 --seconds 20 --trace 0

Workloads: hodge-ci, hilbert-polygon, euler-ci (see README.md).  Each round
runs the whole corpus once in a fresh interpreter (`worker.py`), because the
program's memo tables live for the life of the process.  Rounds repeat until
--seconds have passed; the last one started is always finished.  After every
round has exited, this process checks each output against the independent
references in `references.py` and counts failed operations.

--trace 0 reports the end-to-end metrics; set-up time is the median over
the rounds and over extra set-up-only processes.  --trace 1 alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones (medians), with the tracing overhead on wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A detailed report goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import corpus  # noqa: E402

SETUP_SAMPLES = 7  # set-up-only processes per run, besides one per round
RUN_LIMIT_S = 170  # a run must end within 180 s
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mib": "MiB"}


def _per_layer_unit(name):
    return "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"


def run_round(spec_path, work, index, flags, deadline):
    out_path = os.path.join(work, f"round-{index}.json")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path, out_path, SRC]
    proc = subprocess.run(cmd + flags, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"round {index} exited with {proc.returncode}:\n{proc.stderr}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def verify(ops, rounds):
    """Check every round's outputs.

    Returns (attempted, failed, wrong, reasons).  An operation fails when it
    raises or when its output is wrong; `wrong` counts the latter alone.
    """
    attempted = failed = wrong = 0
    reasons = {}
    for rnd in rounds:
        outputs, errors = rnd["outputs"], rnd["errors"]
        for op in ops:
            attempted += 1
            why = errors.get(op["id"])
            if why is None:
                try:
                    why = checks.check(op, outputs[op["id"]], outputs)
                except Exception as exc:  # a malformed output is a wrong answer
                    why = f"unreadable output: {type(exc).__name__}: {exc}"
                wrong += why is not None
            if why is not None:
                failed += 1
                reasons.setdefault(op["id"], why)
    return attempted, failed, wrong, reasons


def _median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny corpus, for the tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "toric_hodge", "__init__.py")):
        print(f"error: no toric_hodge package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = corpus.build(args.workload, args.seed, smoke=args.smoke)
    ops = spec["ops"]
    work = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        spec_path = os.path.join(work, "corpus.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES):
                setups.append(run_round(spec_path, work, f"setup{i}", ["--setup-only"],
                                        deadline)["setup_s"])
        rounds, traced = [], []
        start = time.monotonic()
        while True:
            tracing_round = bool(args.trace) and len(rounds) % 2 == 1
            flags = ["--trace"] if tracing_round else []
            rnd = run_round(spec_path, work, len(rounds), flags, deadline)
            rounds.append(rnd)
            if tracing_round:
                traced.append(rnd)
            enough = time.monotonic() - start >= args.seconds
            if enough and (not args.trace or traced):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, wrong, reasons = verify(ops, rounds)
    untraced = [r for r in rounds if "layers" not in r]
    walls = [r["wall_s"] for r in untraced]
    if args.trace:
        names = traced[0]["layers"].keys()
        metrics = {n: _median([r["layers"][n] for r in traced]) for n in names}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(walls)
        metrics = {n: {"value": v, "unit": _per_layer_unit(n)} for n, v in metrics.items()}
    else:
        setups += [r["setup_s"] for r in rounds]
        op_times = [t for r in untraced for t in r["times"].values()]
        values = {
            "setup_s": _median(setups),
            "wall_s": _median(walls),
            "op_p50_ms": 1000 * _median(op_times),
            "peak_rss_mib": _median([r["peak_rss_mib"] for r in untraced]),
        }
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in values.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "traced_rounds": len(traced), "round_walls_s": walls,
        "op_median_ms": {op["id"]: round(1000 * _median(
            [r["times"][op["id"]] for r in untraced]), 3) for op in ops},
        "failures": reasons,
    }
    print(json.dumps(report, indent=1), file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
