"""Run every workload over several seeds and record medians and spreads.

    python3 perfbench/record.py --runs 10 --out perfbench/results/BENCH_<label>.json

Each run is a separate ``run.py`` process, one at a time.  For every
end-to-end metric the record holds the values, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median.  One traced run per workload adds the
per-module metrics.  With ``--against`` an earlier record's medians are
compared with this one's, against each metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# machine "):
            result["machine"] = json.loads(line[len("# machine "):])
        elif line.startswith("# detail "):
            result["detail"] = json.loads(line[len("# detail "):])
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced-runs", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path, help="an earlier record to compare with")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    record = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in args.workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run_once(workload, seed, seconds, 0) for seed in seeds]
        record["machine"] = results[-1]["machine"]
        entry = {
            "seeds": list(seeds),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for name, first in results[0]["metrics"].items():
            row = summarise([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = {"unit": first["unit"], "bound": bounds[name], **row}
            print(f"{workload:13s} {name:22s} median {row['median']:12.6g} {first['unit']:8s}"
                  f" spread {row['spread']:.4f} (bound {bounds[name]})", flush=True)
        entry["per_kind_median"] = {
            key: {job: statistics.median(r["detail"][key][job] for r in results)
                  for job in results[0]["detail"][key]}
            for key in ("items_per_s", "items_per_s_as_measured",
                        "ckpt_save_mb_per_s", "ckpt_load_mb_per_s")
        }
        entry["per_kind_median"]["lookup_batch_ms_p50"] = {
            job: statistics.median(r["detail"]["lookup_batch_ms"][job]["p50"] for r in results)
            for job in results[0]["detail"]["lookup_batch_ms"]
        }
        traced = [run_once(workload, args.first_seed + i, seconds, 1)
                  for i in range(args.traced_runs)]
        if traced:
            entry["per_layer"] = {
                name: {"unit": first["unit"],
                       "median": statistics.median(t["metrics"][name]["value"] for t in traced)}
                for name, first in traced[0]["metrics"].items()
            }
            entry["per_layer_detail"] = traced[0]["detail"]
            entry["failed"] += sum(t["failed"] for t in traced)
            entry["attempted"] += sum(t["attempted"] for t in traced)
        record["workloads"][workload] = entry

    if args.against is not None:
        earlier = json.loads(args.against.read_text())["workloads"]
        record["against"] = args.against.name
        for workload, entry in record["workloads"].items():
            for name, row in entry["end_to_end"].items():
                before = earlier[workload]["end_to_end"][name]["median"]
                row["change_vs_against"] = change = row["median"] / before - 1
                print(f"{workload:13s} {name:22s} {before:12.6g} -> {row['median']:12.6g}"
                      f" ({change:+.2%}, bound {row['bound']:.0%})")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
