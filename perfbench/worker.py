"""One fresh interpreter that sets up a workload, signals 'ready' on stdout,
runs whole cycles of its ops in a closed loop (one client, no think time)
and prints one JSON line with the op times and check results.

Run by run.py; not meant to be started by hand.

  python3 perfbench/worker.py --workload NAME --seed N --seconds S
                              --trace 0|1 --out-dir DIR [--setup-only]
"""

import argparse
import json
import math
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import oracles
from tracer import Tracer, layer_totals

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120


class Op:
    """One timed call into the program and the check of what it returned."""

    def __init__(self, kind: str, run, check):
        self.kind, self.run, self.check = kind, run, check


# ------------------------------------------------------------------ cli-cold

class CliCold:
    """One op is one fresh `python -m spinclock` process, spawn to exit."""

    in_process = False

    def __init__(self, rng, seed: int, out_dir: Path, tracer):
        self.out_dir, self.tracer = out_dir, tracer
        self.seed = seed
        self.count = 0
        self.output_bytes = 0
        self.trace_files = []

    def _spawn(self, argv, traced=True):
        """Run one CLI process to its exit; returns its output and stderr paths."""
        k = self.count
        self.count += 1
        out = self.out_dir / f"op-{k}.csv"
        err = self.out_dir / f"op-{k}.err"
        if self.tracer is None or not traced:
            cmd = [sys.executable, "-m", "spinclock", *argv, "--out", str(out)]
        else:
            trace = self.out_dir / f"op-{k}.trace.json"
            self.trace_files.append(trace)
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(trace), str(self.tracer.op_id),
                   *argv, "--out", str(out)]
        with open(err, "w") as err_fh:
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err_fh)
            try:
                code = proc.wait(timeout=CLI_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)}: exit code {code}: {err.read_text()[-400:]}")
        return out, err

    def _read(self, result):
        out, err = result
        text = out.read_text()
        self.output_bytes += len(text.encode())
        stderr = err.read_text()
        for path in (out, err):
            path.unlink()
        return oracles.read_csv(text), stderr

    def warm_up(self):
        """One small command, so that bytecode caches exist before timing."""
        for path in self._spawn(["overlap", "--j", "1", "--xi", "0,0", "--xi-prime", "1,0"],
                                traced=False):
            path.unlink()

    def cycle(self):
        ops = [Op("figure1", lambda: self._spawn(["figure", "1", "--j", "50"]), self._figure1),
               Op("figure2", lambda: self._spawn(["figure", "2", "--j", "50", "--xi-mag", "1"]),
                  self._figure2),
               Op("overlap", lambda: self._spawn(["overlap", "--j", "10", "--xi", "0,0", "--sweep",
                                                  "xi_prime:0:2:2001"]), self._overlap),
               Op("clock-trace", lambda: self._spawn(["clock-trace", "--m", "100", "--xi", "1,0"]),
                  self._clock_trace),
               Op("symbols", lambda: self._spawn(["symbols", "--j", "20"]), self._symbols),
               Op("verify", lambda: self._spawn(["verify", "--j", "5", "--seed", str(self.seed)]),
                  self._verify)]
        first = self.seed % len(ops)
        return ops[first:] + ops[:first]

    def _figure1(self, result):
        cols, _ = self._read(result)
        theta = math.pi / 4
        tp = oracles.floats(cols["theta_prime"])
        oracles.sweep_grid("theta_prime", tp, theta - 0.75, theta + 0.75, 201)
        oracles.figure1_column(tp, oracles.floats(cols["overlap_abs"]), 50, theta)
        oracles.width_fit("figure 1", oracles.floats(cols["sigma2_fit"]),
                          oracles.amplitude_width(50))

    def _figure2(self, result):
        cols, _ = self._read(result)
        dphi = oracles.floats(cols["delta_phi"])
        oracles.sweep_grid("delta_phi", dphi, -math.pi, math.pi, 201)
        oracles.figure2_column(dphi, oracles.floats(cols["overlap_abs"]), 50, 1.0)
        oracles.width_fit("figure 2", oracles.floats(cols["sigma2_fit"]),
                          oracles.phase_width(50, 1.0))

    def _overlap(self, result):
        cols, _ = self._read(result)
        xp = oracles.floats(cols["xi_prime_re"])
        oracles.sweep_grid("xi_prime", xp, 0.0, 2.0, 2001)
        xp = xp + 1j * oracles.floats(cols["xi_prime_im"])
        oracles.overlap_columns(0j, xp, oracles.floats(cols["overlap_re"]),
                                oracles.floats(cols["overlap_im"]),
                                oracles.floats(cols["overlap_abs"]), 10)

    def _clock_trace(self, result):
        cols, _ = self._read(result)
        tau = oracles.floats(cols["tau"])
        oracles.sweep_grid("tau", tau, 0.0, 4 * math.pi, 201)
        # classical phase omega*tau + phi' + arg(xi), with xi = 1, phi' = 0
        oracles.one_sinusoid(tau, oracles.floats(cols["q1_quantum"]), phase=0.0)

    def _symbols(self, result):
        cols, _ = self._read(result)
        xi = oracles.floats(cols["xi_re"]) + 1j * oracles.floats(cols["xi_im"])
        oracles.sweep_grid("xi", xi.real, 0.0, 3.0, 61)
        for kind in ("closed", "upper"):
            oracles.spin_symbols(f"symbols {kind}", xi,
                                 *(oracles.floats(cols[f"s{k}_{kind}"]) for k in (1, 2, 3)), 20)

    def _verify(self, result):
        cols, stderr = self._read(result)
        oracles.verify_report(stderr, cols["passed"])

    def peak_rss_kb(self) -> int:
        # the largest CLI process this worker waited for
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def layer_totals(self, trace_path: Path) -> dict:
        """Merge the spans and counts each traced CLI process wrote."""
        children = []
        totals = {"cli.output_bytes": self.output_bytes}
        for path in self.trace_files:
            data = json.loads(path.read_text())
            path.unlink()
            children.append(data)
            for key, value in layer_totals(data["spans"], data["counts"]).items():
                totals[key] = totals.get(key, 0) + value
        trace_path.write_text(json.dumps({"processes": children}))
        return totals


class InProcess:
    """Workloads that call the program's functions in this interpreter."""

    in_process = True

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def layer_totals(self, trace_path: Path) -> dict:
        self.tracer.dump(str(trace_path))
        return layer_totals(self.tracer.spans, self.tracer.all_counts())


# --------------------------------------------------------- in-process ops

def _import_spinclock():
    import spinclock
    from spinclock import clock, coherent, symbols

    src = HERE.parent / "src"
    if src.resolve() not in Path(spinclock.__file__).resolve().parents:
        raise RuntimeError(f"spinclock was imported from {spinclock.__file__}, not {src}")
    return clock, coherent, symbols


class OperatorAssembly(InProcess):
    """One op builds one (2j+1)^2 operator on the sphere grid."""

    spins = (50, 100)

    def __init__(self, rng, seed: int, out_dir: Path, tracer):
        self.rng, self.tracer = rng, tracer
        self.clock, self.coherent, self.symbols = _import_spinclock()

    def _ops(self, j):
        tau = float(self.rng.uniform(0.0, 2 * math.pi))
        c0 = float(self.rng.uniform(-2.0, 2.0))
        c1 = float(self.rng.uniform(0.5, 2.5))

        def ratio(xi):
            t = np.square(np.abs(xi))
            return c0 + c1 * t / (1.0 + t)

        return [
            Op("resolution_of_unity", lambda: self.coherent.resolution_of_unity(j),
               oracles.resolution_of_unity),
            Op("clock_operator", lambda: self.clock.clock_operator(j, tau),
               lambda mat: oracles.clock_structure("clock_operator", mat)),
            Op("reconstruct_operator", lambda: self.symbols.reconstruct_operator(ratio, j),
               lambda mat: oracles.operator_equals(
                   "reconstruct_operator", mat, oracles.ratio_operator(c0, c1, j),
                   1e-10 * (abs(c0) + abs(c1)))),
        ]

    def warm_up(self):
        for op in self._ops(2):
            op.run()

    def cycle(self):
        return [op for j in self.spins for op in self._ops(j)]


# The benchmark's own full lower symbols o(xi, r, theta): numpy ufunc
# expressions, equal whether called with scalars or with arrays.
def alpha_sq(xi, r, theta):
    t = np.square(np.abs(xi))
    return r * t / (1.0 + t)


def beta_sq(xi, r, theta):
    return r / (1.0 + np.square(np.abs(xi)))


def radius(xi, r, theta):
    return r


class SymbolQuantization(InProcess):
    """One op: a full lower symbol -> project_lower_symbol at m = 2j ->
    reconstruct_operator at j, for j = 1 and j = 2; or the clock slice
    deparameterize(q1, 2j, tau) -> reconstruct_operator at the same spins.

    Seven ops of unequal cost make a cycle; an odd count keeps the median
    op inside one kind's times rather than between two kinds."""

    spins = (1, 2)

    def __init__(self, rng, seed: int, out_dir: Path, tracer):
        self.rng, self.tracer = rng, tracer
        self.clock, _, self.symbols = _import_spinclock()
        q1, q2 = self.symbols.q1_position_symbol, self.symbols.q2_position_symbol
        self.full_symbols = {
            "alpha2": alpha_sq, "beta2": beta_sq, "r": radius,
            "q1sq": lambda xi, r, theta: np.square(q1(xi, r, theta)),
            "q2sq": lambda xi, r, theta: np.square(q2(xi, r, theta)),
            "q2": q2,
        }

    def _projection(self, kind):
        sym = self.full_symbols[kind]

        def run():
            symbols = self.symbols
            return [symbols.reconstruct_operator(symbols.project_lower_symbol(sym, 2 * j), j)
                    for j in self.spins]

        def check(mats):
            for j, mat in zip(self.spins, mats):
                oracles.operator_equals(f"{kind} at j={j}", mat, oracles.antinormal(kind, j),
                                        1e-10)

        return Op(kind, run, check)

    def _slice(self):
        q1 = self.symbols.q1_position_symbol
        taus = [float(self.rng.uniform(0.0, 2 * math.pi)) for _ in self.spins]
        xis = [complex(*self.rng.normal(size=2)) for _ in self.spins]

        def run():
            results = []
            for j, tau, xi in zip(self.spins, taus, xis):
                sliced = self.clock.deparameterize(q1, 2 * j, tau)
                results.append((sliced(xi), self.symbols.reconstruct_operator(sliced, j)))
            return results

        def check(results):
            for j, tau, xi, (value, mat) in zip(self.spins, taus, xis, results):
                oracles.clock_structure(f"clock slice at j={j}", mat)
                oracles.slice_value(value, oracles.radial_mean(lambda r: q1(xi, r, tau), 2 * j))

        return Op("slice", run, check)

    def warm_up(self):
        # r is the cheapest symbol to project; it still runs every program path
        self._projection("r").run()
        self._slice().run()

    def cycle(self):
        return [self._projection(kind) for kind in self.full_symbols] + [self._slice()]


WORKLOADS = {"cli-cold": CliCold, "operator-assembly": OperatorAssembly,
             "symbol-quantization": SymbolQuantization}


# ------------------------------------------------------------------ loop

def run_loop(workload, seconds: float, tracer):
    """Whole cycles until the next one would pass `seconds` of op time.

    An op that raises counts as failed; an op whose output disagrees with
    its oracle makes the run incorrect."""
    times, failures, wrong = [], [], []
    busy = 0.0
    while True:
        cycle_busy = 0.0
        for op in workload.cycle():
            index = len(times) + len(failures)
            if tracer is not None:
                tracer.op_id = index
            start = time.perf_counter()
            try:
                result = op.run()
            except Exception:
                failures.append(f"op {index} ({op.kind}) failed: {traceback.format_exc()}")
                continue
            finally:
                elapsed = time.perf_counter() - start
                busy += elapsed
                cycle_busy += elapsed
                if tracer is not None:
                    tracer.op_id = -1
            times.append(elapsed)
            try:
                op.check(result)
            except oracles.CheckFailed as exc:
                wrong.append(f"op {index} ({op.kind}) is wrong: {exc}")
        if busy + cycle_busy > seconds:
            return times, failures, wrong, busy


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    out_dir = Path(args.out_dir)
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](rng, args.seed, out_dir, tracer)
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if tracer is not None and workload.in_process:
        tracer.install()
    times, failures, wrong, busy = run_loop(workload, args.seconds, tracer)
    for message in failures + wrong:
        print(message, file=sys.stderr)
    report = {"op_times": times, "failed": len(failures), "busy_s": busy,
              "correct": not wrong, "peak_rss_kb": workload.peak_rss_kb()}
    if tracer is not None:
        report["layers"] = dict(workload.layer_totals(out_dir / "trace.json"))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
