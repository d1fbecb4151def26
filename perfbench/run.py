"""Run one tenbed benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
the per-module metrics of a traced run.  Every output the run produces is
checked; the lines before the last describe the run, and the last line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when every check passed, 1 when one failed, 2 when tenbed cannot be
imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

# One caller, one BLAS thread: pinned before numpy loads so that timings do
# not depend on how many cores the machine happens to have free.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)



def _pin_to_current_cpu() -> int:
    """Keep this process, and the processes it starts, on the CPU it is on.

    Cores of a shared machine can run at different speeds at the same time;
    staying on one keeps the calibration kernel (``speed.py``) and the timed
    calls on the same core.
    """
    try:
        stat = Path("/proc/self/stat").read_text()
        cpu = int(stat.rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


REPO = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("desk_train", "paper_train", "paper_lookup"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the benchmark's own tests")
    return parser.parse_args(argv)


def _git_commit() -> str | None:
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(cpu: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = _pin_to_current_cpu()
    sys.path[:0] = [str(REPO / "src"), str(BENCH_DIR)]
    try:
        import tenbed  # noqa: F401
        import workloads
    except ImportError as exc:
        print(f"error: cannot import tenbed from {REPO / 'src'}: {exc}", file=sys.stderr)
        return 2

    workdir = REPO / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = workloads.Run(workload=args.workload, seed=args.seed, seconds=args.seconds,
                        trace=bool(args.trace), size=workloads.SIZES[args.size], workdir=workdir)
    try:
        jobs = workloads.execute(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if run.trace:
        metrics, detail = workloads.per_layer(run)
    else:
        metrics = workloads.end_to_end(run)
        detail = workloads.end_to_end_detail(run)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if run.trace else "end_to_end"]}
    detail["eval_accuracy"] = {j.name: j.eval_accuracy for j in jobs if j.eval_accuracy is not None}
    detail["setup_reps_s_as_measured"] = run.setup_reps_s

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} size {args.size}")
    print("# machine " + json.dumps(machine(cpu), sort_keys=True))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# failed_ratio = {run.failed}/{run.attempted} = {run.failed / run.attempted:.6g}")
    for what in run.failures[:20]:
        print(f"# FAILED: {what}")
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
