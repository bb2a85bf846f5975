#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/collect.py --seeds 1-10 --out .perfbench/proof.json
    python3 perfbench/collect.py --seeds 11-20 --against .perfbench/proof.json

For every workload and metric it reports the median and quartiles over
the seeds, and the spread (third minus first quartile, as a share of the
median) next to the bound in BENCHMARK.json. ``--against`` compares the
medians with an earlier summary: a metric fails when its median is worse
than the earlier one by more than its bound. Runs go seed by seed, so
slow drift of the machine spreads over every workload alike.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line for line in lines[:-1] if line.startswith("# ")]
    return result


def spread(values: list[float]) -> dict:
    """Median, quartiles, and their distance as a share of the median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)

    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            result = run_once(w, seed, args.seconds, args.trace)
            runs[w].append({"seed": seed, **result})
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    earlier = json.loads(args.against.read_text())["workloads"] if args.against else None
    summary: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for w in workloads:
        rows = {}
        for m in metrics:
            row = spread([r["metrics"][m["name"]]["value"] for r in runs[w]])
            row["unit"] = m["unit"]
            flags = []
            if "bound" in m:
                row["bound"] = m["bound"]
                if m["name"] != "setup_s" and row["spread"] > m["bound"]:
                    flags.append("SPREAD>BOUND")
                elif m["name"] != "setup_s" and row["spread"] > m["bound"] / 3:
                    flags.append("spread>bound/3")
                if earlier is not None:
                    before = earlier[w]["metrics"][m["name"]]["median"]
                    change = (row["median"] - before) / before
                    worse = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
                    row["change_vs_earlier"] = change
                    if worse:
                        flags.append("WORSE")
            ok = ok and not any(f.isupper() for f in flags)
            rows[m["name"]] = row
            print(f"{w:15s} {m['name']:45s} median {row['median']:.6g} {m['unit']:6s} "
                  f"spread {row['spread']:.4f} {' '.join(flags)}")
        summary["workloads"][w] = {
            "correct": all(r["correct"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "attempted": sum(r["attempted"] for r in runs[w]),
            "metrics": rows,
            "notes": {r["seed"]: r["notes"] for r in runs[w]},
        }
        ok = ok and summary["workloads"][w]["correct"]
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
