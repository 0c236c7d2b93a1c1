import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinclock import __version__, cli, clock, verify
from spinclock.cli import build_parser, main

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # the parser's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_overlap_single_pair(capsys):
    code, out, _ = run_cli(["overlap", "--j", "0.5", "--xi", "0,0",
                            "--xi-prime", "1,0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config ")
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert float(row["overlap_abs"]) == pytest.approx(1 / math.sqrt(2), rel=1e-12)


def test_overlap_self_pair(capsys):
    code, out, _ = run_cli(["overlap", "--j", "3", "--xi", "0.4,0.2"], capsys)
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert float(last.split(",")[-1]) == pytest.approx(1.0)


def test_overlap_of_label_whose_abs_sq_overflows(capsys):
    code, out, _ = run_cli(["overlap", "--j", "2", "--xi", "1e160,0",
                            "--xi-prime", "1e160,0"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()[1:]
    row = dict(zip(header.split(","), row.split(",")))
    assert float(row["overlap_abs"]) == pytest.approx(1.0, abs=1e-12)


def test_overlap_sweep_matches_cosine_law(capsys):
    code, out, _ = run_cli(["overlap", "--j", "10", "--xi", "0,0",
                            "--sweep", "xi_prime:0:2:21"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[1].split(",")
    for line in lines[2:]:
        row = dict(zip(header, line.split(",")))
        xp = float(row["xi_prime_re"])
        expected = math.cos(math.atan(xp)) ** 20
        assert float(row["overlap_abs"]) == pytest.approx(expected, abs=1e-12)


def test_overlap_complex_sweep_matches_baseline(tmp_path, capsys):
    out_file = tmp_path / "overlap.csv"
    code = main(["overlap", "--j", "10", "--xi", "0.3,-0.7",
                 "--sweep", "xi_prime:-3:2:2001", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    assert out_file.read_bytes() == (DATA / "overlap_j10_complex_baseline.csv").read_bytes()


def test_json_numbers_are_the_csv_numbers(capsys):
    # --format json writes every double as the CSV's round-trip text reads back
    argv = ["overlap", "--j", "10", "--xi", "0.3,-0.7", "--sweep", "xi_prime:-3:2:2001"]
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    columns = json.loads(out)["columns"]
    lines = (DATA / "overlap_j10_complex_baseline.csv").read_text().splitlines()
    names = lines[1].split(",")
    assert list(columns) == sorted(names)
    rows = [line.split(",") for line in lines[2:]]
    for i, name in enumerate(names):
        assert columns[name] == [float(row[i]) for row in rows]


def test_spin_flag_conflict_is_usage_error(capsys):
    code, _, err = run_cli(["overlap", "--j", "1", "--m-prime", "2"], capsys)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--j", "1", "--m-prime", "4"],
    ["clock-trace", "--m", "10", "--j", "7"],
    ["clock-trace", "--m", "10", "--m-prime", "10"],
])
def test_second_spin_flag_is_usage_error(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "give exactly one of" in err


@pytest.mark.parametrize("argv", [
    ["clock-trace", "--j", "0.3"],
    ["verify", "--j", "2.7"],
    ["verify", "--j", "-1"],
    ["overlap", "--m-prime", "-3"],
    ["figure", "1", "--j", "0.25"],
    ["symbols", "--j", "-0.5"],
    ["verify", "--j", "1e308"],  # 2j overflows to inf
])
def test_spin_that_is_not_a_half_integer_is_usage_error(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "2j must be a nonnegative integer" in err


def test_missing_spin_is_usage_error(capsys):
    code, out, err = run_cli(["overlap"], capsys)
    assert code == 1
    assert out == ""
    assert "one of --j / --m-prime is required" in err


def test_bad_subcommand_exits_one():
    proc = subprocess.run([sys.executable, "-m", "spinclock", "bogus"],
                          capture_output=True)
    assert proc.returncode == 1


@pytest.mark.parametrize("sweep,message", [
    ("theta_prime:0.5:0.5:10", "sweep needs MAX > MIN"),
    ("theta_prime:0:1", "sweep must be VAR:MIN:MAX:COUNT"),
    ("theta_prime:0:1:1", "sweep count must be >= 2"),
], ids=["zero-width", "three-fields", "one-point"])
def test_malformed_sweep_is_usage_error(sweep, message, capsys):
    code, out, err = run_cli(["figure", "1", "--j", "10", "--sweep", sweep], capsys)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ["symbols", "--j", "2", "--sweep", "phi:0:6.28:4"],
    ["clock-trace", "--m", "10", "--sweep", "xi:0:1:3"],
    ["figure", "1", "--j", "10", "--sweep", "bogus:0:1:3"],
])
def test_sweep_of_wrong_variable_is_usage_error(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "sweeps over" in err


@pytest.mark.parametrize("argv", [
    ["overlap", "--j", "2", "--xi", "0,0", "--sweep", "xi_prime:nan:1:3"],
    ["overlap", "--j", "2", "--xi", "0,0", "--sweep", "xi_prime:0:inf:3"],
    ["overlap", "--j", "2", "--xi", "0,0", "--sweep", "xi_prime:-inf:1:3"],
    ["overlap", "--j", "2", "--xi", "inf,0", "--xi-prime", "1,0"],
    ["overlap", "--j", "2", "--xi", "0,0", "--xi-prime", "1,nan"],
    ["overlap", "--j", "2", "--xi", "1.5e308,1.5e308", "--xi-prime", "1,0"],
    ["overlap", "--j", "inf"],
    ["clock-trace", "--m", "10", "--omega", "nan"],
    ["clock-trace", "--m", "10", "--phi-prime", "nan"],
    ["clock-trace", "--m", "10", "--omega", "0"],
    ["clock-trace", "--m", "10", "--omega=-1"],
    ["clock-trace", "--m", "10", "--hbar=-1"],
    ["figure", "1", "--j", "10", "--theta", "nan"],
    ["figure", "2", "--j", "10", "--xi-mag", "inf"],
])
def test_non_finite_input_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "-1"],
    ["overlap", "--j", "1", "--seed=-1"],
])
def test_negative_seed_is_usage_error(argv, capsys):
    # random.Random(-s) draws what random.Random(s) draws
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "argument --seed: '-1' is not an integer >= 0" in err


@pytest.mark.parametrize("omega", ["1e200", "1e-200"])
def test_omega_whose_square_leaves_the_float_range_is_an_error(omega, capsys):
    code, out, err = run_cli(["clock-trace", "--m", "10", "--omega", omega,
                              "--sweep", "tau:0:1:3"], capsys)
    assert code == 1
    assert out == ""
    assert "float range" in err


# (subcommand, float option, whether it must also be > 0)
FLOAT_OPTIONS = [("overlap", "--j", False), ("clock-trace", "--omega", True),
                 ("clock-trace", "--hbar", True), ("clock-trace", "--phi-prime", False),
                 ("figure", "--theta", False), ("figure", "--xi-mag", False)]


@given(st.sampled_from(FLOAT_OPTIONS), st.floats())
def test_float_options_take_exactly_the_finite_values(option, x):
    command, flag, positive = option
    argv = [command, *(["1"] if command == "figure" else []), f"{flag}={x!r}"]
    if math.isfinite(x) and (x > 0 or not positive):
        args = build_parser().parse_args(argv)
        assert getattr(args, flag[2:].replace("-", "_")) == x
    else:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 1
        assert "finite" in err.getvalue()


def test_import_pulls_in_neither_scipy_nor_numba():
    # numpy.fft too: only commands that assemble an operator pay for it
    code = ("import sys, spinclock.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'numba')\n"
            "             or m.startswith('numpy.fft')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_figure1_width_in_output(tmp_path, capsys):
    out_file = tmp_path / "fig1.csv"
    code = main(["figure", "1", "--j", "10", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert float(row["sigma2_pred"]) == pytest.approx(0.05)
    assert float(row["sigma2_fit"]) == pytest.approx(0.05, rel=0.01)
    peak_col = [float(line.split(",")[1]) for line in lines[2:]]
    sweep_col = [float(line.split(",")[0]) for line in lines[2:]]
    assert sweep_col[int(np.argmax(peak_col))] == pytest.approx(math.pi / 4)


def test_figure2_width(tmp_path, capsys):
    out_file = tmp_path / "fig2.csv"
    code = main(["figure", "2", "--j", "20", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    row = out_file.read_text().strip().splitlines()[2].split(",")
    header = out_file.read_text().strip().splitlines()[1].split(",")
    vals = dict(zip(header, row))
    assert float(vals["sigma2_fit"]) == pytest.approx(0.1, rel=0.01)


def test_figure2_matches_baseline(tmp_path, capsys):
    out_file = tmp_path / "fig2.csv"
    code = main(["figure", "2", "--j", "50", "--xi-mag", "1", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    assert out_file.read_bytes() == (DATA / "figure2_j50_baseline.csv").read_bytes()


@pytest.mark.parametrize("argv,message", [
    (["figure", "2", "--j", "0"], "need j >= 1/2"),
    (["figure", "2", "--j", "5", "--xi-mag", "1e200"], "float range"),
    (["figure", "2", "--j", "5", "--xi-mag", "1e-200"], "float range"),
])
def test_figure2_input_it_cannot_compute_is_an_error(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert message in err


def test_figure_chart_pole_guidance(capsys):
    code, _, err = run_cli(["figure", "1", "--j", "10",
                            "--theta", repr(math.pi / 2)], capsys)
    assert code == 1
    assert "antipodal" in err


def test_figure1_antipodal_reads_theta_in_the_chart_it_names(capsys):
    # |cos(theta' - theta)|^{2j} reads the same in either chart: only the label changes
    argv = ["figure", "1", "--j", "50", "--theta", "0.3"]
    code, primary, _ = run_cli(argv, capsys)
    assert code == 0
    code, antipodal, _ = run_cli(argv + ["--antipodal"], capsys)
    assert code == 0
    config, rows = antipodal.split("\n", 1)
    assert rows == primary.split("\n", 1)[1]
    assert json.loads(config.removeprefix("# config ")) == dict(
        json.loads(primary.split("\n", 1)[0].removeprefix("# config ")), chart="antipodal")
    cols = _columns(antipodal)
    overlap = [float(v) for v in cols["overlap_abs"]]
    peak = int(np.argmax(overlap))
    assert overlap[peak] == pytest.approx(1.0, abs=1e-12)
    assert float(cols["theta_prime"][peak]) == pytest.approx(0.3, abs=1e-12)
    assert float(cols["sigma2_fit"][0]) == pytest.approx(0.01, rel=0.05)
    # the pole of the primary chart is a regular point of the antipodal one
    assert run_cli(["figure", "1", "--j", "10", "--theta", "0", "--antipodal"], capsys)[0] == 0
    code, _, err = run_cli(["figure", "1", "--j", "10", "--theta", repr(math.pi / 2),
                            "--antipodal"], capsys)
    assert code == 1
    assert "--antipodal" in err and "the antipodal chart" not in err


def test_figure2_antipodal_keeps_its_rows(capsys):
    code, out, _ = run_cli(["figure", "2", "--j", "50", "--xi-mag", "1", "--antipodal"], capsys)
    assert code == 0
    baseline = (DATA / "figure2_j50_baseline.csv").read_text()
    assert out.split("\n", 1)[1] == baseline.split("\n", 1)[1]
    assert '"chart": "antipodal"' in out.split("\n", 1)[0]


@pytest.mark.parametrize("argv", [
    ["figure", "1", "--j", "10", "--xi-mag", "3"],
    ["figure", "2", "--j", "10", "--theta", "0.3"],
])
def test_figure_rejects_the_other_figures_option(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "does not read" in err


def test_clock_trace_zero_label(tmp_path, capsys):
    out_file = tmp_path / "trace.csv"
    code = main(["clock-trace", "--m", "10", "--xi", "0,0",
                 "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    for line in out_file.read_text().strip().splitlines()[2:]:
        assert float(line.split(",")[1]) == 0.0


def test_clock_trace_constant_ratio(tmp_path, capsys):
    # quantum over classical is G(m)/sqrt(m+1), G(m) = Gamma(m+5/2)/(m+1)!, in any units
    out_file = tmp_path / "trace.csv"
    for omega, hbar in (("1", "1"), ("1.7", "0.5"), ("1", "0.5")):
        code = main(["clock-trace", "--m", "100", "--xi", "0.8,0.3", "--omega", omega,
                     "--hbar", hbar, "--sweep", "tau:0.05:2.9:40", "--out", str(out_file)])
        capsys.readouterr()
        assert code == 0
        ratios = [float(line.split(",")[3])
                  for line in out_file.read_text().strip().splitlines()[2:]]
        finite = [r for r in ratios if not math.isnan(r)]
        assert max(finite) - min(finite) < 1e-10
        assert finite[0] == pytest.approx(1.0037075188, rel=1e-10)


def test_clock_trace_of_label_whose_abs_sq_overflows(capsys):
    code, out, _ = run_cli(["clock-trace", "--m", "4", "--xi", "1e160,0",
                            "--sweep", "tau:0:1:2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[1].split(",")
    rows = [{k: float(v) for k, v in zip(header, line.split(","))} for line in lines[2:]]
    assert len(rows) == 2
    for row in rows:
        # |xi| / sqrt(1+|xi|^2) = 1 to double precision at |xi| = 1e160; A = sqrt(2E), E = 5
        assert row["q1_quantum"] == pytest.approx(
            clock.slice_amplitude(4) * math.cos(row["tau"]), rel=1e-15)
        assert row["q1_classical"] == pytest.approx(math.sqrt(10.0) * math.cos(row["tau"]),
                                                    rel=1e-15)
        assert math.isfinite(row["ratio"])


def test_clock_trace_matches_baseline(capsys):
    code, out, _ = run_cli(["clock-trace", "--m", "7", "--xi=-2.7,1.2", "--phi-prime", "0.4",
                            "--omega", "1.7", "--hbar", "0.5"], capsys)
    assert code == 0
    assert out == (DATA / "clock_trace_m7_baseline.csv").read_text()


def test_clock_trace_baseline_matches_mpmath():
    # with q = sqrt(hbar/2 omega)(a + a^dagger), H = (p^2 + omega^2 q^2)/2 and E = hbar omega (m+1):
    # q1_quantum = sqrt(2 hbar/omega) G |xi|/sqrt(1+|xi|^2) cos(omega tau + phi' + arg xi),
    # q1_classical the same with sqrt(2E)/omega for sqrt(2 hbar/omega) G, and
    # ratio = G/sqrt(m+1), G = Gamma(m+5/2)/(m+1)!; measured within 3.3e-15 of each
    lines = (DATA / "clock_trace_m7_baseline.csv").read_text().splitlines()
    with mpmath.workdps(30):
        omega, hbar, phi_prime, m = mpmath.mpf("1.7"), mpmath.mpf("0.5"), mpmath.mpf("0.4"), 7
        xi = mpmath.mpc("-2.7", "1.2")
        g = mpmath.gamma(m + mpmath.mpf(5) / 2) / mpmath.factorial(m + 1)
        shape = abs(xi) / mpmath.sqrt(1 + abs(xi) ** 2)
        quantum = mpmath.sqrt(2 * hbar / omega) * g * shape
        classical = mpmath.sqrt(2 * hbar * omega * (m + 1)) / omega * shape
        ratio = float(g / mpmath.sqrt(m + 1))
        assert lines[1] == "tau,q1_quantum,q1_classical,ratio" and len(lines) == 203
        for line in lines[2:]:
            tau, q1_quantum, q1_classical, got_ratio = map(float, line.split(","))
            wave = mpmath.cos(omega * mpmath.mpf(tau) + phi_prime + mpmath.arg(xi))
            assert abs(q1_quantum - quantum * wave) < 1e-13 * quantum
            assert abs(q1_classical - classical * wave) < 1e-13 * classical
            assert got_ratio == pytest.approx(ratio, rel=1e-13)
    assert ratio == pytest.approx(1.0460381, rel=1e-7)


def test_symbols_closed_form_matches_matrix(tmp_path, capsys):
    out_file = tmp_path / "symbols.csv"
    code = main(["symbols", "--j", "2", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    header = lines[1].split(",")
    for line in lines[2:]:
        row = dict(zip(header, line.split(",")))
        for k in ("s1", "s2", "s3"):
            assert float(row[f"{k}_closed"]) == pytest.approx(
                float(row[f"{k}_upper"]), abs=1e-12)


def test_symbols_of_labels_whose_abs_sq_overflows(capsys):
    code, out, _ = run_cli(["symbols", "--j", "2", "--sweep", "xi:1e160:2e160:2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[1].split(",")
    for line in lines[2:]:
        row = {k: float(v) for k, v in zip(header, line.split(","))}
        # near the pole xi = inf: (s1, s2, s3) = (2j / xi, 0, j)
        assert row["s1_closed"] == pytest.approx(4.0 / row["xi_re"], rel=1e-12)
        assert row["s3_closed"] == pytest.approx(2.0, abs=1e-12)
        assert row["s3_upper"] == pytest.approx(2.0, abs=1e-12)
        assert row["s1_upper"] == pytest.approx(row["s1_closed"], rel=1e-10)


def _columns(text):
    lines = text.strip().splitlines()
    header = lines[1].split(",")
    return {k: [line.split(",")[i] for line in lines[2:]] for i, k in enumerate(header)}


def test_symbols_j20_matches_baseline(capsys):
    code, out, _ = run_cli(["symbols", "--j", "20"], capsys)
    assert code == 0
    got = _columns(out)
    want = _columns((DATA / "symbols_j20_baseline.csv").read_text())
    assert list(got) == list(want)
    for k in ("xi_re", "xi_im", "s1_closed", "s2_closed", "s3_closed"):
        assert got[k] == want[k], k
    for k in ("s1_upper", "s2_upper", "s3_upper"):
        diff = np.abs(np.array(got[k], dtype=float) - np.array(want[k], dtype=float))
        assert np.max(diff) < 1e-13, k


def test_symbols_upper_columns_match_closed_form_to_rounding(capsys):
    # amplitudes accurate to a few eps put <xi|S_k|xi> within 1.1e-14 of the closed form
    # at j = 20, against 5.1e-13 when they came from a cancelling log sum
    code, out, _ = run_cli(["symbols", "--j", "20"], capsys)
    assert code == 0
    cols = {k: np.array(v, dtype=float) for k, v in _columns(out).items()}
    for k in (1, 2, 3):
        err = np.max(np.abs(cols[f"s{k}_upper"] - cols[f"s{k}_closed"]))
        assert err <= 8 * verify.EPS * 20, k


def test_symbols_degenerate_spin_is_zero(capsys):
    code, out, _ = run_cli(["symbols", "--j", "0", "--sweep", "xi:0:2:3"], capsys)
    assert code == 0
    cols = _columns(out)
    for k in ("s1_closed", "s2_closed", "s3_closed", "s1_upper", "s2_upper", "s3_upper"):
        assert [float(v) for v in cols[k]] == [0.0, 0.0, 0.0], k


def test_verify_passes_and_exit_zero(tmp_path, capsys):
    out_file = tmp_path / "verify.json"
    code = main(["verify", "--j", "1", "--format", "json",
                 "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["all_passed"]
    assert all(c["passed"] for c in report["checks"])


def test_verify_under_resolved_grid_fails(capsys):
    code = main(["verify", "--j", "10", "--quad-order", "2"])
    capsys.readouterr()
    assert code == 2


def test_verify_degenerate_spin_passes(capsys):
    code = main(["verify", "--j", "0"])
    capsys.readouterr()
    assert code == 0


@pytest.mark.parametrize("j", ["30", "100"])
def test_verify_passes_at_large_spin(j, capsys):
    # the tolerances scale with the size of the entries they bound
    code, _, err = run_cli(["verify", "--j", j], capsys)
    assert code == 0, err


def test_array_estimate_at_large_spin():
    dim = 200001  # j = 1e5
    assert cli.array_bytes(1e5, 15) == 16 * 15 * dim**2
    assert cli.array_bytes(1e5, 6, labels=61) == 16 * dim * (6 * dim + 4 * 61)
    assert cli.array_bytes(1e5, 6) > 2**40 > cli.ARRAY_BUDGET


def test_array_budget_admits_documented_uses():
    assert cli.array_bytes(200, 6, labels=2001) < 100 * 2**20
    verify_grid = cli.grid_bytes(*verify._grid_shapes(200, None))
    assert cli.array_bytes(100, 15) + verify_grid < 100 * 2**20


def test_verify_budget_covers_its_measured_peak():
    # a cold run_checks in a fresh process; measured 1.55 MB at j = 30 (1.06 MB of it
    # held at every spin) and 7.5 MB at j = 100, against estimates of 3.1 and 17.9 MB
    code = ("import tracemalloc\n"
            "from spinclock import verify\n"
            "for j in (30, 100):\n"
            "    tracemalloc.start()\n"
            "    verify.run_checks(j)\n"
            "    print(tracemalloc.get_traced_memory()[1])\n"
            "    tracemalloc.stop()\n")
    peaks = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           text=True).stdout.split()
    for j, peak in zip((30, 100), map(int, peaks)):
        plan = cli.array_bytes(j, 15) + cli.grid_bytes(*verify._grid_shapes(2 * j, None))
        assert cli.VERIFY_BASE_BYTES + plan >= peak


def _refuse_arrays(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built an array before the budget check")

    for name in ("linspace", "zeros", "empty", "eye", "arange"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(verify, "run_checks", refuse)


@pytest.mark.parametrize("argv", [["verify", "--j", "100000"],
                                  ["symbols", "--j", "100000"],
                                  ["symbols", "--m-prime", "200000", "--sweep", "xi:0:1:3"],
                                  ["symbols", "--j", "1e200"]])  # an estimate of inf
def test_spin_too_large_for_memory_is_refused_before_any_array(argv, monkeypatch, capsys):
    _refuse_arrays(monkeypatch)
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert re.fullmatch(r"spinclock: error: spin j=(100000|1e\+200) needs about "
                        r"(\d+\.\d|inf) GiB of arrays, over the 4 GiB budget\n", err)


@pytest.mark.parametrize("j, n, gib", [
    pytest.param("5", "100000", "37.4", id="100000-37.4"),
    pytest.param("5", "1" + "0" * 400, "inf", id="1" + "0" * 400 + "-inf"),
    # 6.2 GiB on 4j+4 = 2876 azimuths instead of the default 2700
    pytest.param("718", "20000", "6.0", id="j718-20000-6.0"),
    # at j = 8e307, 4j+4 and the default azimuth count exceed the float range
    pytest.param("8e+307", "4", "inf", id="j8e+307-4-inf")])
def test_quad_order_too_large_for_memory_is_refused_before_any_array(j, n, gib, monkeypatch,
                                                                      capsys):
    # at 100000 the polar rule alone would hold two 50000 x 50001 float matrices, 18.6 GiB
    _refuse_arrays(monkeypatch)
    code, out, err = run_cli(["verify", "--j", j, "--quad-order", n], capsys)
    assert code == 1 and out == ""
    assert err == (f"spinclock: error: spin j={j} with --quad-order {n} needs about "
                   f"{gib} GiB of arrays, over the 4 GiB budget\n")


@pytest.mark.parametrize("argv", [
    ["overlap", "--j", "1", "--sweep", "xi_prime:0:1:1000000000000"],
    ["figure", "1", "--j", "5", "--sweep", "theta_prime:0:1:1000000000000"],
    ["figure", "2", "--j", "5", "--sweep", "delta_phi:0:1:1000000000000"],
    ["clock-trace", "--m", "4", "--sweep", "tau:0:1:1000000000000"],
    ["symbols", "--j", "1", "--sweep", "xi:0:1:1000000000000"],
    ["overlap", "--j", "1", "--sweep", "xi_prime:0:1:1" + "0" * 400]])  # an estimate of inf
def test_sweep_too_large_for_memory_is_refused_before_any_array(argv, monkeypatch, capsys):
    _refuse_arrays(monkeypatch)
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert re.fullmatch(r"spinclock: error: a sweep of 10+ points needs about "
                        r"(953674\.3|inf) GiB of arrays, over the 4 GiB budget\n", err)


@pytest.mark.parametrize("argv", [
    ["overlap", "--j", "10", "--xi", "0.3,-0.7", "--sweep", "xi_prime:-3:2:4000"],
    ["figure", "1", "--j", "50", "--sweep", "theta_prime:0.2:1.3:4000"],
    ["figure", "2", "--j", "50", "--sweep", "delta_phi:-3:3:4000"],
    ["clock-trace", "--m", "100", "--xi=-2.7,1.2", "--sweep", "tau:0:6.28:4000"],
    ["symbols", "--j", "1", "--sweep", "xi:-3:3:4000"]])
def test_sweep_budget_covers_its_measured_peak(argv, tmp_path, capsys):
    # measured per point: 670-880 for overlap, 470-660 for the figures and
    # clock-trace, 700-1050 for symbols at j = 1 (its amplitude batch included)
    argv = argv + ["--out", str(tmp_path / "out")]
    plan = 4000 * cli.SWEEP_POINT_BYTES
    if argv[0] == "symbols":
        plan += cli.array_bytes(1, 6, labels=4000)
    for fmt in ("csv", "json"):
        assert main(argv + ["--format", fmt]) == 0  # imports what the command imports
        tracemalloc.start()
        try:
            assert main(argv + ["--format", fmt]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= plan, (fmt, peak / 4000)
    capsys.readouterr()


def _readme_commands():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("spinclock ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_example_runs(line, tmp_path, monkeypatch, capsys):
    argv = shlex.split(line, comments=True)[1:]
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(argv, capsys)
    assert code in ((0, 2) if argv[0] == "verify" else (0,))


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j": 1.0, "format": "json"}))
    out_file = tmp_path / "o.json"
    code = main(["overlap", "--config", str(cfg), "--xi", "0,0",
                 "--xi-prime", "1,0", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["meta"]["j"] == 1.0
    # flag overrides the file
    code = main(["overlap", "--config", str(cfg), "--j", "2", "--xi", "0,0",
                 "--xi-prime", "1,0", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out_file.read_text())["meta"]["j"] == 2.0


@pytest.mark.parametrize("config", [{"j": 2, "omega": 0}, {"j": 2, "hbar": "nan"},
                                    {"j": "inf"}])
def test_config_bad_float_value_is_usage_error(config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        main(["overlap", "--config", str(cfg)])
    assert exc.value.code == 1
    assert "finite" in capsys.readouterr().err


def test_config_value_parses_like_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j": 2, "xi": "1,0", "xi_prime": "0.5,-0.25"}))
    code, from_config, _ = run_cli(["overlap", "--config", str(cfg)], capsys)
    assert code == 0
    code, from_flags, _ = run_cli(["overlap", "--j", "2", "--xi", "1,0",
                                   "--xi-prime=0.5,-0.25"], capsys)
    assert code == 0
    assert from_config == from_flags


def test_config_sweep_sweeps(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": "xi:0:1:3"}))
    code, out, _ = run_cli(["symbols", "--j", "2", "--config", str(cfg)], capsys)
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("text,message", [
    ('{"j": 2, "xi": "nan,0"}', "finite"),
    ('{"j": 2', "--config"),
    ("[2]", "not a JSON object"),
], ids=["non-finite", "not-json", "not-an-object"])
def test_config_file_it_cannot_read_is_usage_error(text, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, out, err = run_cli(["overlap", "--config", str(cfg)], capsys)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv", [
    ["verify", "--j", "2", "--sweep", "xi:0:1:3"],
    ["verify", "--j", "2", "--xi", "1,0"],
    ["figure", "1", "--j", "10", "--xi", "2"],
    ["symbols", "--j", "2", "--phi-prime", "0.5"],
    ["overlap", "--j", "2", "--quad-order", "4"],
    ["overlap", "--j", "1", "--xi-prime", "5,0", "--sweep", "xi_prime:0:1:3"],
])
def test_option_the_subcommand_does_not_read_is_usage_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    # overlap reads --xi-prime only when it does not sweep
    if "--xi-prime" in argv:
        assert "argument --sweep: not allowed with argument --xi-prime" in err
    else:
        assert "unrecognized arguments" in err


def test_output_deterministic_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["figure", "1", "--j", "10", "--out", str(path)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_output_independent_of_thread_count(tmp_path):
    outs = []
    for threads in ("1", "4"):
        path = tmp_path / f"t{threads}.csv"
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   NUMBA_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "spinclock", "figure", "2",
                        "--j", "20", "--out", str(path)],
                       check=True, env=env, capture_output=True)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_symbols_independent_of_blas_thread_count():
    # at j = 200 a BLAS matrix product changes its last bits with the thread count
    digests = set()
    for threads in ("1", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "spinclock", "symbols", "--j", "200",
                               "--sweep", "xi:0:3:201"],
                              check=True, env=env, capture_output=True)
        digests.add(hashlib.sha256(proc.stdout).hexdigest())
    assert len(digests) == 1


@pytest.mark.parametrize("quad_order, shapes", [(None, (10**5, 10**5)), ("9", (10**5, 10**5))])
def test_verify_budget_reads_the_grid_shapes(quad_order, shapes, monkeypatch, capsys):
    # a 10^5 x 10^5 grid needs 782 GiB: verify refuses it, with or without --quad-order
    asked = []

    def grid_shapes(two_j, n):
        asked.append((two_j, n))
        return shapes

    _refuse_arrays(monkeypatch)
    monkeypatch.setattr(verify, "_grid_shapes", grid_shapes)
    argv = ["verify", "--j", "5"] + ([] if quad_order is None else ["--quad-order", quad_order])
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert asked == [(10, None if quad_order is None else 9)]
    spin = "spin j=5" if quad_order is None else "spin j=5 with --quad-order 9"
    assert err == (f"spinclock: error: {spin} needs about 782.3 GiB of arrays, "
                   f"over the 4 GiB budget\n")


@pytest.mark.parametrize("command", ["verify", "overlap"])
def test_json_output_is_sorted_indented_and_versioned(command, capsys):
    # one writer serves every command's JSON
    code, out, _ = run_cli([command, "--j", "1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=1) + "\n"
    assert payload["meta"]["version"] == __version__
