"""Command-line driver: overlap tables, figure traces, clock traces,
symbol tables and the verification suite, emitted as CSV or JSON.

Outputs are deterministic: numeric formatting is full round-trip
precision, the effective config is echoed into the output metadata, and
nothing time- or thread-dependent is written to the files.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, clock, coherent, fock, symbols, verify
from .errors import SpinclockError
from .grids import _check_two_j

USAGE_ERROR = 1
VERIFY_FAILURE = 2

# the most bytes of arrays a subcommand may plan to hold at once;
# every documented use plans under 100 MiB
ARRAY_BUDGET = 4 * 2**30
# bytes per sweep point of the columns, the output text and the sweep's own
# arrays: tracemalloc measures 430-890 over every subcommand and format, the
# most for symbols --format json (10 columns)
SWEEP_POINT_BYTES = 1024
# bytes per grid node of quantizing a symbol on verify's grid: tracemalloc measures at
# most 65, 42 and 41 for its symbols cos(Theta) and Re xi / (1+|xi|^2) at j = 30, 100
# and 200, each a first call that builds the rows of ring-amplitude products of both
# parities and the binomial ratios, its result included.  The clock symbol on a grid of
# 8 (2j+6) rings of 2j+2 nodes, which no command builds, measures 73 at j = 30
# (test_clock_symbol_quantization_memory_per_node)
GRID_NODE_BYTES = 80
# bytes verify holds at every spin: tracemalloc measures 1.06 MB at j = 5 and 10, most
# of it numpy.polynomial, which the width fits import on first use
VERIFY_BASE_BYTES = 1.5 * 2**20


class _Parser(argparse.ArgumentParser):
    # spec'd exit codes: 1 for usage errors (argparse default is 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _parse_complex(text: str) -> complex:
    re, _, im = text.partition(",")
    z = complex(float(re), float(im) if im else 0.0)
    # |z| beyond the largest float is the chart pole z = inf to double precision
    if not math.isfinite(math.hypot(z.real, z.imag)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a RE,IM pair of finite modulus")
    return z


def _parse_finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _parse_positive(text: str) -> float:
    if not _parse_finite(text) > 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number > 0")
    return float(text)


def _parse_seed(text: str) -> int:
    # random.Random(-s) draws what random.Random(s) draws
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 0")
    return seed


def _parse_sweep(text: str) -> tuple[str, float, float, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("sweep must be VAR:MIN:MAX:COUNT")
    var, lo, hi, count = parts[0], float(parts[1]), float(parts[2]), int(parts[3])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("sweep MIN and MAX must be finite")
    if count < 2:
        raise argparse.ArgumentTypeError("sweep count must be >= 2")
    if hi <= lo:
        raise argparse.ArgumentTypeError("sweep needs MAX > MIN")
    return var, lo, hi, count


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(body: dict, meta: dict, out: str | None):
    """body and {"meta": meta} as one JSON object, keys sorted, indented by one space."""
    _write(json.dumps(dict(body, meta=meta), sort_keys=True, default=str, indent=1) + "\n", out)


def _write_table(columns: dict, meta: dict, fmt: str, out: str | None):
    if fmt == "json":
        return _write_json({"columns": columns}, meta, out)
    names = list(columns)
    nrows = len(next(iter(columns.values())))
    lines = [f"# config {json.dumps(meta, sort_keys=True, default=str)}", ",".join(names)]
    for i in range(nrows):
        lines.append(",".join(_fmt(columns[k][i]) for k in names))
    _write("\n".join(lines) + "\n", out)


def _sweep_grid(args, var: str, default: tuple[float, float, int] | None = None):
    """The points of --sweep, which must name the subcommand's sweep variable.

    Without --sweep this is linspace(*default), or None when there is no default.
    A sweep whose columns and output text would need more than ARRAY_BUDGET is
    refused before its points are built.
    """
    sweep = args.sweep
    if sweep is None:
        return None if default is None else np.linspace(*default)
    if sweep[0] != var:
        raise SpinclockError(f"{args.command} sweeps over {var}, not {sweep[0]!r}")
    count = sweep[3]
    # a count past 1e300 has no float; its bytes are inf, as in grid_bytes
    _check_array_bytes(f"a sweep of {count} points",
                       SWEEP_POINT_BYTES * (count if count < 1e300 else math.inf))
    return np.linspace(sweep[1], sweep[2], count)


def _spin(args, default: float | None = None) -> tuple[float, int]:
    """Spin j and its 2j from the one spin flag given: --j, --m-prime or (clock-trace) --m.

    Without a spin flag j is default, or a usage error when there is none;
    2j must be a nonnegative integer.
    """
    flags = {"--j": args.j, "--m-prime": args.m_prime}
    if "m" in args:
        flags["--m"] = args.m
    given = [(flag, value) for flag, value in flags.items() if value is not None]
    if len(given) > 1:
        raise SpinclockError(f"give exactly one of {' / '.join(flags)}")
    if not given and default is None:
        raise SpinclockError(f"one of {' / '.join(flags)} is required")
    flag, value = given[0] if given else ("--j", default)
    j = float(value) if flag == "--j" else value / 2.0
    return j, _check_two_j(j)


def array_bytes(j: float, matrices: int, labels: int = 0) -> float:
    """Estimated peak bytes at spin j: `matrices` complex (2j+1) x (2j+1)
    matrices, and 4 complex words per label and basis state for an
    amplitude batch over `labels` labels and its temporaries (tracemalloc
    measures 3.0 for upper_symbol over 2001 labels at j = 30, 100 and 200).
    A float, so that an absurd spin gives inf instead of an int too large
    to print.
    """
    dim = 2.0 * j + 1.0
    return 16.0 * dim * (matrices * dim + 4 * labels)


def grid_bytes(n_polar: float, n_azimuthal: float) -> float:
    """Estimated peak bytes of reconstruct_operator on an n_polar x n_azimuthal grid: 4 n_polar^2
    for the polar rule and GRID_NODE_BYTES per node."""
    # a larger int has no float; its bytes are inf
    n_polar, n_azimuthal = float(min(n_polar, 1e300)), float(min(n_azimuthal, 1e300))
    return n_polar * (4.0 * n_polar + GRID_NODE_BYTES * n_azimuthal)


def _check_array_bytes(what: str, need: float):
    """Refuse, before any array is built, a spin or sweep whose arrays need more than
    ARRAY_BUDGET; `what` names it in the message."""
    if need > ARRAY_BUDGET:
        raise SpinclockError(f"{what} needs about {need / 2**30:.1f} GiB of "
                             f"arrays, over the {ARRAY_BUDGET / 2**30:g} GiB budget")


def _add_common(p: argparse.ArgumentParser):
    # only options every subcommand reads or echoes into its metadata
    p.add_argument("--j", type=_parse_finite, help="spin j (2j must be an integer)")
    p.add_argument("--m-prime", type=int, help="total quanta m' = 2j")
    p.add_argument("--omega", type=_parse_positive, default=1.0,
                   help="oscillator frequency (default 1)")
    p.add_argument("--hbar", type=_parse_positive, default=1.0, help="Planck constant (default 1)")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--seed", type=_parse_seed, default=0,
                   help="seed of verify's label draws (default 0); other commands echo it")
    p.add_argument("--config", help="JSON config file (flags override it)")


def build_parser() -> _Parser:
    parser = _Parser(prog="spinclock",
                     description="constrained double-oscillator quantum clock toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("overlap", cmd_overlap), ("figure", cmd_figure),
                     ("clock-trace", cmd_clock_trace), ("symbols", cmd_symbols),
                     ("verify", cmd_verify)]:
        # no abbreviations: figure would otherwise take --xi as --xi-mag
        p = sub.add_parser(name, allow_abbrev=False)
        _add_common(p)
        p.set_defaults(func=fn)
        # overlap reads its one --xi-prime only without a --sweep
        group = p.add_mutually_exclusive_group() if name == "overlap" else p
        if name != "verify":
            group.add_argument("--sweep", type=_parse_sweep, help="sweep as VAR:MIN:MAX:COUNT")
        if name == "overlap":
            p.add_argument("--xi", type=_parse_complex, default=0j,
                           help="chart coordinate as RE,IM (default 0,0)")
            group.add_argument("--xi-prime", type=_parse_complex,
                               help="second label as RE,IM (alternative to --sweep)")
        if name == "figure":
            p.add_argument("which", type=int, choices=(1, 2))
            p.add_argument("--theta", type=_parse_finite,
                           help="reference amplitude angle (figure 1 only, default pi/4)")
            p.add_argument("--xi-mag", type=_parse_finite,
                           help="reference |xi| (figure 2 only, default 1)")
            p.add_argument("--antipodal", action="store_true",
                           help="read angles in the chart centred on oscillator 1")
        if name == "clock-trace":
            p.add_argument("--m", type=int, help="total quanta (alias of --m-prime)")
            p.add_argument("--xi", type=_parse_complex, default=1 + 0j,
                           help="chart coordinate as RE,IM (default 1,0)")
            p.add_argument("--phi-prime", type=_parse_finite, default=0.0,
                           help="clock phase offset (default 0)")
        if name == "verify":
            p.add_argument("--quad-order", type=int, help="polar quadrature order override")
    return parser


def _meta(args, **extra) -> dict:
    meta = {"omega": args.omega, "hbar": args.hbar, "seed": args.seed, "version": __version__}
    meta.update(extra)
    return meta


def cmd_overlap(args) -> int:
    j, _ = _spin(args)
    xi = args.xi
    xps = _sweep_grid(args, "xi_prime")
    if xps is None:
        xps = np.array([xi if args.xi_prime is None else args.xi_prime])
    xps = xps.astype(complex)
    vals = coherent.overlap(xps, xi, j)
    cols = {
        "xi_re": [xi.real] * len(xps),
        "xi_im": [xi.imag] * len(xps),
        "xi_prime_re": list(xps.real),
        "xi_prime_im": list(xps.imag),
        "overlap_re": list(vals.real),
        "overlap_im": list(vals.imag),
        # np.hypot rounds |z| as Python's abs does; np.abs can differ in the last ulp
        "overlap_abs": list(np.hypot(vals.real, vals.imag)),
    }
    _write_table(cols, _meta(args, command="overlap", j=j), args.format, args.out)
    return 0


def cmd_figure(args) -> int:
    j, _ = _spin(args)
    chart = "antipodal" if args.antipodal else "primary"
    if args.which == 1:
        if args.xi_mag is not None:
            raise SpinclockError("figure 1 does not read --xi-mag")
        # |cos(theta' - theta)|^{2j} reads the same in either chart: --antipodal names it
        theta = math.pi / 4 if args.theta is None else args.theta
        grid = _sweep_grid(args, "theta_prime", (theta - 0.75, theta + 0.75, 201))
        trace = clock.amplitude_correlation(theta, j, grid)
        sweep_name, config = "theta_prime", {"kind": "amplitude", "theta_ref": theta}
    else:
        if args.theta is not None:
            raise SpinclockError("figure 2 does not read --theta")
        grid = _sweep_grid(args, "delta_phi", (-math.pi, math.pi, 201))
        xi_mag = 1.0 if args.xi_mag is None else args.xi_mag
        trace = clock.phase_correlation(xi_mag, j, grid)
        sweep_name, config = "delta_phi", {"kind": "phase", "xi_mag": xi_mag}
    n = len(trace.sweep)
    cols = {
        sweep_name: list(trace.sweep),
        "overlap_abs": list(trace.overlap),
        "gaussian_fit": list(trace.gaussian),
        "sigma2_fit": [trace.sigma2_fit] * n,
        "sigma2_pred": [trace.sigma2_pred] * n,
    }
    _write_table(cols, _meta(args, command=f"figure{args.which}", j=j, chart=chart, **config),
                 args.format, args.out)
    return 0


def cmd_clock_trace(args) -> int:
    _, m = _spin(args)
    xi, omega, phi_prime = args.xi, args.omega, args.phi_prime
    taus = _sweep_grid(args, "tau", (0.0, 4 * math.pi, 201))
    quantum = clock.clock_symbol_q1(xi, m, taus, phi_prime, omega, args.hbar)
    a_cl = clock.classical_amplitude(m, xi, omega, args.hbar)
    classical_q1 = a_cl * np.cos(omega * taus + phi_prime + np.angle(xi))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(classical_q1) > 1e-12 * max(a_cl, 1e-300),
                         quantum / np.where(classical_q1 != 0, classical_q1, 1.0),
                         np.nan)
    cols = {"tau": list(taus), "q1_quantum": list(quantum),
            "q1_classical": list(classical_q1), "ratio": list(ratio)}
    _write_table(cols, _meta(args, command="clock-trace", m=m,
                             xi=f"{xi.real},{xi.imag}", phi_prime=phi_prime),
                 args.format, args.out)
    return 0


def cmd_symbols(args) -> int:
    j, two_j = _spin(args)
    # the spin matrices peak at 5.5 matrices' worth (tracemalloc, j = 200); the
    # amplitude batch over the labels is checked once their count is known
    _check_array_bytes(f"spin j={j:g}", array_bytes(j, matrices=6))
    xis = _sweep_grid(args, "xi", (0.0, 3.0, 61)).astype(complex)
    _check_array_bytes(f"spin j={j:g}", array_bytes(j, matrices=6, labels=len(xis)))
    cols = {"xi_re": list(xis.real), "xi_im": list(xis.imag)}
    cols.update({f"s{k}_closed": list(s)
                 for k, s in enumerate(symbols.spin_symbols_closed_form(xis, j), 1)})
    # at j = 0 the spin matrices are 1 x 1 zeros, so the upper symbols are 0
    cols.update({f"s{k}_upper": list(symbols.upper_symbol(mat, xis).real)
                 for k, mat in enumerate(fock.spin_operators(two_j), 1)})
    _write_table(cols, _meta(args, command="symbols", j=j), args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    j, two_j = _spin(args, default=5.0)
    # tracemalloc at j = 200: run_checks peaks at 11.2 matrices' worth, its quantizations
    # on its one grid included, of which reconstruct_operator takes 4.6; the estimate keeps
    # 15 matrices and the grid
    n = args.quad_order
    need = (VERIFY_BASE_BYTES + array_bytes(j, matrices=15)
            + grid_bytes(*verify._grid_shapes(two_j, n)))
    _check_array_bytes(f"spin j={j:g}" + ("" if n is None else f" with --quad-order {n}"), need)
    results = verify.run_checks(j=j, seed=args.seed, quad_order=args.quad_order)
    all_passed = all(r.passed for r in results)
    meta = _meta(args, command="verify", j=j)
    out = args.out
    if args.format == "json":
        _write_json({"checks": [{"name": r.name, "passed": r.passed,
                                 "measured": r.measured, "tol": r.tol} for r in results],
                     "all_passed": all_passed}, meta, out)
    else:
        cols = {"name": [r.name for r in results],
                "passed": [int(r.passed) for r in results],
                "measured": [r.measured for r in results],
                "tol": [r.tol for r in results]}
        _write_table(cols, meta, "csv", out)
    for r in results:
        print(r.line(), file=sys.stderr)
    return 0 if all_passed else VERIFY_FAILURE


def _config_tokens(parser: _Parser, path: str) -> list[str]:
    """The JSON object in path as --key=value tokens (a bare --key for true)."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"--config {path}: {exc}")
    if not isinstance(config, dict):
        parser.error(f"--config {path}: not a JSON object")
    return [f"--{key.replace('_', '-')}" + ("" if value is True else f"={value}")
            for key, value in config.items()]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.config:
        # config values parse as flags placed before the user's own, so the
        # same checks apply and a flag given on the command line wins
        args = parser.parse_args(argv[:1] + _config_tokens(parser, args.config) + argv[1:])
    try:
        return args.func(args)
    except (SpinclockError, ValueError, OSError) as exc:
        print(f"spinclock: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
