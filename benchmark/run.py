"""linearrag benchmark: stage-level timings of indexing, appends and queries.

Usage, from the root of a checkout:

    python3 benchmark/run.py                      # all workloads, untraced
    python3 benchmark/run.py --trace 1            # all workloads, traced
    python3 benchmark/run.py --workload graph-query --seed 3 --seconds 10 --trace 0

One workload runs in one process. It generates its inputs from ``--seed``,
drives ``linearrag`` from ``src/`` through its public functions only, checks
every output, and prints a full report (inputs, environment, sample counts,
failures) followed by a last line holding one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Untraced, the metrics
are the ``end_to_end`` ones of ``BENCHMARK.json``; with ``--trace 1`` they are
its ``per_layer`` ones. ``--workload all`` runs each workload in a child
process and prints one table. Work files live under ``.bench_work/`` and are
removed at exit, except the span file a traced run writes there.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("graph-query", "append-query")
N_PASSAGES = 3000


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passages", type=int, default=N_PASSAGES, help="corpus size (smaller for smoke tests)")
    return parser.parse_args(argv)


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import numpy
    import scipy

    import linearrag

    task_dir = Path("/proc/self/task")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "linearrag": linearrag.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
    }


def run_one(args: argparse.Namespace, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    import linearrag

    if Path(linearrag.__file__).resolve().parent != SRC / "linearrag":
        print(f"error: imported linearrag from {linearrag.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from inputs import make_inputs
    from workloads import MEASURED_OUTSIDE, Bench

    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs = make_inputs(args.seed, args.passages)
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), inputs, work_dir)
        bench.run()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = bench.per_layer() if args.trace else bench.end_to_end()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "inputs": {
            "corpus_digest": inputs.corpus.source_digest,
            **{f"setup_index_{k}": v for k, v in bench.setup_index.items()},
            "appended_passages": sum(len(p.records) for p in bench.slices),
            "final_passages": bench.graph.n_passages,
            "chain_questions": len(inputs.chains),
        },
        "samples": {
            "setup": len(bench.setup_s),
            "append": len(bench.append_ms),
            "query": len(bench.query_ms),
            "quality_questions": len(bench.quality),
        },
        "environment": environment(),
        "graph_path_share": bench.graph_path_share(),
        "error_rate": bench.error_rate(),
        "network_attempts": bench.network_attempts,
        "failures": bench.failures[:20],
        "metrics": metrics,
    }
    if args.trace:
        spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        bench.tracer.write(spans_file)
        report["spans_file"] = str(spans_file.relative_to(ROOT))
        report["measured_outside"] = list(MEASURED_OUTSIDE)
    print(json.dumps(report, indent=1))
    correct = bench.failed == 0 and not bench.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    all_correct = True
    print(f"{'workload':<14} {'metric':<44} {'value':>14}  unit")
    for workload in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--passages", str(args.passages),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        if done.returncode != 0:
            print(f"{workload}: exit code {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"]
        for name, metric in result["metrics"].items():
            print(f"{workload:<14} {name:<44} {metric['value']:>14.6g}  {metric['unit']}")
        print(f"{workload:<14} {'correct':<44} {str(result['correct']):>14}  "
              f"({result['failed']} of {result['attempted']} operations failed)")
    return 0 if all_correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # Set before numpy loads OpenBLAS. A second BLAS thread gains nothing on
    # these matrix-vector products, and on a shared machine it waits for a
    # core another process holds: queries then ran 2-7x slower in whole
    # runs, at random.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "linearrag" / "__init__.py").is_file():
        print(f"error: no linearrag sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
