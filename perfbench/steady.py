"""Steadiness check: two sets of runs of one commit, compared metric by metric.

  python3 perfbench/steady.py [--runs 10] [--workloads NAME ...]

For every workload, runs `perfbench/run.py --trace 0` RUNS times with
seeds 1..RUNS (set A), then RUNS times with seeds 101..100+RUNS (set B),
with the run length from BENCHMARK.json.  For each end-to-end metric it
prints both medians, each set's spread (distance between the first and
third quartile as a share of the median), and whether the two medians
agree within the metric's bound.  It also compares the share of failed
ops between the sets.  The runs are written to perfbench/out/steady.json.
Exits 1 if any workload disagrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(spec: dict, sets: list) -> bool:
    """Print one row per metric; True when both sets agree within every bound."""
    ok = True
    shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
    if len(shares[0] | shares[1]) != 1:
        print(f"  failed share differs between runs: {sorted(shares[0] | shares[1])}")
        ok = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
        med_a, med_b = (statistics.median(v) for v in values)
        spreads = [spread(v) for v in values]
        change = (med_b - med_a) / med_a
        agree = abs(change) <= bound
        steady = name == "setup_s" or max(spreads) <= bound
        ok = ok and agree and steady
        print(f"  {name:12s} A {med_a:11.6g}  B {med_b:11.6g}  change {change:+7.2%}  "
              f"spread {spreads[0]:6.2%} / {spreads[1]:6.2%}  bound {bound:.0%}  "
              f"{'agree' if agree and steady else 'DISAGREE'}")
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    record, all_ok = {}, True
    for workload in args.workloads:
        sets = []
        for first_seed in (1, 101):
            runs = []
            for seed in range(first_seed, first_seed + args.runs):
                runs.append(one_run(workload, seed, spec["run_seconds"]))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                    file=sys.stderr, flush=True)
            sets.append(runs)
        record[workload] = sets
        print(f"{workload}:")
        all_ok = compare(spec, sets) and all_ok
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / "steady.json").write_text(json.dumps(record, indent=1))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
