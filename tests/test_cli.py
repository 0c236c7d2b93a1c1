import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinclock.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(argv, capsys):
    code = main(argv)
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


def test_missing_spin_is_usage_error(capsys):
    code, _, _ = run_cli(["overlap"], capsys)
    assert code == 1


def test_bad_subcommand_exits_one():
    proc = subprocess.run([sys.executable, "-m", "spinclock", "bogus"],
                          capture_output=True)
    assert proc.returncode == 1


def test_zero_width_sweep_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "1", "--j", "10", "--sweep", "theta_prime:0.5:0.5:10"])
    assert exc.value.code == 1
    capsys.readouterr()


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
])
def test_non_finite_input_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "finite" in capsys.readouterr().err


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


def test_figure_chart_pole_guidance(capsys):
    code, _, err = run_cli(["figure", "1", "--j", "10",
                            "--theta", repr(math.pi / 2)], capsys)
    assert code == 1
    assert "antipodal" in err


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
    out_file = tmp_path / "trace.csv"
    code = main(["clock-trace", "--m", "100", "--xi", "1,0",
                 "--sweep", "tau:0.05:2.9:40", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    ratios = [float(line.split(",")[3])
              for line in out_file.read_text().strip().splitlines()[2:]]
    finite = [r for r in ratios if not math.isnan(r)]
    assert max(finite) - min(finite) < 1e-10


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


def test_config_non_finite_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j": 2, "xi": "nan,0"}))
    with pytest.raises(SystemExit) as exc:
        main(["overlap", "--config", str(cfg)])
    assert exc.value.code == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--j", "2", "--sweep", "xi:0:1:3"],
    ["verify", "--j", "2", "--xi", "1,0"],
    ["figure", "1", "--j", "10", "--xi", "2"],
    ["symbols", "--j", "2", "--phi-prime", "0.5"],
    ["overlap", "--j", "2", "--quad-order", "4"],
])
def test_option_the_subcommand_does_not_read_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


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
