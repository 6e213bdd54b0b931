"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a fresh child process (``worker.py``) with BLAS and
OpenMP limited to one thread, relays the child's report, and exits with
the child's status.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Generated inputs live
under ``.perfbench_work/`` in the checkout and are removed afterwards; a
traced run leaves its spans in ``.perfbench_out/<workload>.spans.csv``.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS  # noqa: E402

TIME_LIMIT_S = 175.0
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work", str(work),
    ]
    if args.trace:
        spans_dir = ROOT / ".perfbench_out"
        spans_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans_dir / f"{args.workload}.spans.csv")]
    env = dict(os.environ, **{name: "1" for name in ONE_THREAD})
    env.pop("PYTHONPATH", None)
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=max(1.0, TIME_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"error: {args.workload} did not finish within {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    if child.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        print(f"error: worker exited with status {child.returncode}", file=sys.stderr)
        return child.returncode or 1
    print(out, end="" if out.endswith("\n") else "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
