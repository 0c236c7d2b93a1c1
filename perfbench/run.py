"""Benchmark of spinclock: one workload per run, end to end or traced.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, not from an installed copy.  Workloads (see perfbench/README.md):
cli-cold and operator-assembly, which BENCHMARK.json lists, and
symbol-quantization, which it leaves out because the machine's drift
spreads its times beyond any allowed bound; run it by hand.

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_s, peak_rss_mb
and setup_s (median of SETUP_STARTS fresh interpreters).  --trace 1 wraps
the layer functions and prints the per-layer metrics instead.  Either way
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; a readable summary goes to stderr, and the
full record to perfbench/out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cli-cold", "operator-assembly", "symbol-quantization")
END_TO_END = [("ops_per_s", "1/s"), ("op_p50_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s")]
SETUP_STARTS = 5
IMPORT_STARTS = 5
# BLAS threads of the process doing the work.  The machine has 2 cores; one
# BLAS thread leaves the other to this process and to the parent of each CLI
# op, so that the op under test does not compete with them.
THREADS = "1"
# Every run must end within 180 s, including set-up.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def worker_env() -> dict:
    """Environment of every process the benchmark starts: the program from
    ./src, THREADS BLAS threads, and bytecode caches written as in a default
    install, whatever the caller's PYTHONDONTWRITEBYTECODE says."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


def start_worker(args, run_dir: Path, setup_only: bool, deadline: Deadline):
    """Spawn a fresh worker; returns (process, seconds from spawn to 'ready')."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(run_dir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    killer = threading.Timer(deadline.left(), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
    finally:
        killer.cancel()
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, ready


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def finish(proc, deadline: Deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker passed the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def import_profile(deadline: Deadline) -> dict:
    """import.* metrics from `python -X importtime -c 'import spinclock'`."""
    samples = []
    for _ in range(IMPORT_STARTS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spinclock"],
                              capture_output=True, text=True, env=worker_env(), cwd=ROOT,
                              timeout=deadline.left())
        if proc.returncode != 0:
            raise BenchError(f"import spinclock failed: {proc.stderr[-400:]}")
        samples.append(parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def parse_importtime(text: str) -> dict:
    """Cumulative time of spinclock, of the scipy modules it pulls in, and
    the number of modules imported under it."""
    entries = []  # (depth, name, cumulative seconds), children before parents
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    top = max(i for i, e in enumerate(entries) if e[:2] == (0, "spinclock"))
    first = top
    while first > 0 and entries[first - 1][0] > 0:
        first -= 1
    subtree = entries[first:top + 1]
    scipy_s, stack = 0.0, []
    for depth, name, cumulative in reversed(subtree):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            scipy_s += cumulative
        stack.append((depth, is_scipy))
    return {"import.spinclock_s": entries[top][2], "import.scipy_s": scipy_s,
            "import.modules": len(subtree)}


def end_to_end(report: dict, setups: list) -> dict:
    times = report["op_times"]
    return {"ops_per_s": len(times) / report["busy_s"],
            "op_p50_s": statistics.median(times),
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(setups)}


def per_layer(report: dict, imports: dict) -> dict:
    ops = len(report["op_times"])
    values = {name: report["layers"].get(name, 0) / ops for name, _ in LAYER_METRICS}
    values.update(imports)
    values["trace.op_p50_s"] = statistics.median(report["op_times"])
    return values


def op_tail(times: list):
    """The highest percentile with at least ten ops beyond it (>= 40 ops)."""
    n = len(times)
    if n < 40:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def run(args) -> dict:
    deadline = Deadline(DEADLINE_S)
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = []
        for _ in range(SETUP_STARTS - 1 if not args.trace else 0):
            proc, ready = start_worker(args, run_dir, True, deadline)
            finish(proc, deadline)
            setups.append(ready)
        proc, ready = start_worker(args, run_dir, False, deadline)
        setups.append(ready)
        report = json.loads(finish(proc, deadline).strip().splitlines()[-1])
        if not report["op_times"]:
            raise BenchError("no op completed")
        if args.trace:
            metrics = per_layer(report, import_profile(deadline))
            units = dict(LAYER_METRICS)
            shutil.move(str(run_dir / "trace.json"),
                        str(OUT / f"trace-{args.workload}-seed{args.seed}.json"))
        else:
            metrics = end_to_end(report, setups)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "threads": THREADS, "setup_samples_s": setups, **report,
              "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    ops = len(report["op_times"])
    print(f"{args.workload}: {ops} ops, {report['failed']} failed, correct={report['correct']}",
          file=sys.stderr)
    tail = op_tail(report["op_times"])
    if tail and not args.trace:
        print(f"  op_tail_s (p{tail[0]:.1f} of {ops} ops) = {tail[1]:.6g} s", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}", file=sys.stderr)
    return {"correct": report["correct"], "attempted": ops + report["failed"],
            "failed": report["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "spinclock" / "__init__.py").is_file():
        print(f"run.py: no spinclock source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
