"""Run one benchmark workload and print its metrics as JSON on the last line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``, ``--trace
1`` the per-layer metrics of a separate traced run.  ``--workload all`` runs
every workload untraced and traced, each in its own child process, and prints
one ``workload metric value unit`` line per metric.

BLAS is pinned to one thread and the string-hash seed to 0 (the process
re-executes itself to apply them), and the program is imported
from this checkout's ``src/`` only; without it the benchmark exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Pinned before the interpreter or numpy reads them: one BLAS/OpenMP thread,
#: and a fixed string-hash seed so dict and set layouts repeat run to run.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("train", "serve_hot")


def pin_environment() -> None:
    """Set :data:`PINNED`, re-executing when the running interpreter missed it.

    The hash seed is read at interpreter start-up, so a process started
    without it always re-executes itself; so does one that loaded numpy (and
    its BLAS library) before the thread counts were set.
    """
    unpinned = {name for name, value in PINNED.items()
                if os.environ.get(name) != value}
    os.environ.update(PINNED)
    if "PYTHONHASHSEED" in unpinned or (unpinned and "numpy" in sys.modules):
        os.execv(sys.executable, [sys.executable, *sys.argv])


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"no program at {src}/repro; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not {src}")


def environment(args) -> dict:
    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        deps = config.get("Build Dependencies", {})
        blas = {key: deps.get(key, {}) for key in ("blas", "lapack")}
    except TypeError:  # numpy < 1.26 has no dict mode
        blas = {"blas": "unavailable"}
    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "pinned": {name: os.environ.get(name) for name in PINNED},
        "numpy": np.__version__, "blas": blas,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(), "affinity": affinity,
    }


def run_one(args) -> int:
    pin_environment()
    import_program()
    import workloads

    started = workloads.CLOCK()
    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    size = workloads.SIZES[args.size]
    outcome = workloads.RUNNERS[args.workload](args.seed, args.seconds, size,
                                               bool(args.trace))
    if outcome.tracer is not None:
        problems = outcome.tracer.invariant_violations()
        outcome.check(not problems, "; ".join(problems[:3]))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        outcome.tracer.write_jsonl(spans_path, extra=[{"env": env}])
        print(f"# spans {spans_path.relative_to(ROOT)} "
              f"({len(outcome.tracer.spans)} spans)")
    outcome.info["run_s"] = workloads.CLOCK() - started
    print("# phases " + json.dumps(outcome.phases, sort_keys=True))
    print("# info " + json.dumps(outcome.info, sort_keys=True, default=str))
    for problem in outcome.problems:
        print("# problem " + problem)
    for name, (value, unit) in outcome.metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    failed = outcome.failed
    print(json.dumps({
        "correct": failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in a waited child process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--size", args.size]
            completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                       text=True, check=False)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                sys.stderr.write(completed.stderr)
                print(f"{name:<11} trace={trace} FAILED (exit {completed.returncode})")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{name:<11} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"{name:<11} {metric:<30} {entry['value']:>14.6g} {entry['unit']}")
            status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every workload (for the tests)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
