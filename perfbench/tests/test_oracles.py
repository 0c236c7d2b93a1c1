"""Each of the benchmark's checks accepts the right answer and rejects a
deliberately wrong one.

  python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
from oracles import CheckFailed  # noqa: E402
from tracer import LAYER_METRICS, self_times  # noqa: E402


def test_figure1_column_rejects_an_offset_of_1e_9():
    theta = np.linspace(math.pi / 4 - 0.75, math.pi / 4 + 0.75, 201)
    exact = np.abs(np.cos(theta - math.pi / 4)) ** 100
    oracles.figure1_column(theta, exact, 50, math.pi / 4)
    with pytest.raises(CheckFailed):
        oracles.figure1_column(theta, exact + 1e-9, 50, math.pi / 4)


def test_figure2_column_rejects_the_wrong_spin():
    dphi = np.linspace(-math.pi, math.pi, 201)
    exact = (np.abs(1 + np.exp(1j * dphi)) / 2) ** 100
    oracles.figure2_column(dphi, exact, 50, 1.0)
    with pytest.raises(CheckFailed):
        oracles.figure2_column(dphi, (np.abs(1 + np.exp(1j * dphi)) / 2) ** 98, 50, 1.0)


def test_width_fit_allows_five_percent():
    oracles.width_fit("w", [0.0104], oracles.amplitude_width(50))
    with pytest.raises(CheckFailed):
        oracles.width_fit("w", [0.0106], oracles.amplitude_width(50))
    # E1 = E2 = j at |xi| = 1, so 2j/(E1 E2) = 2/j
    assert oracles.phase_width(50, 1.0) == pytest.approx(2 / 50)


def test_overlap_rejects_the_conjugate():
    xi, xp = 0.3 + 0.4j, np.array([0.5 - 0.2j, 1.0 + 1.0j])
    exact = (1 + np.conj(xi) * xp) ** 10 / ((1 + abs(xi) ** 2) * (1 + np.abs(xp) ** 2)) ** 5
    oracles.overlap_columns(xi, xp, exact.real, exact.imag, np.abs(exact), 5)
    with pytest.raises(CheckFailed):
        oracles.overlap_columns(xi, xp, exact.real, -exact.imag, np.abs(exact), 5)


def test_spin_symbols_reject_the_reflected_s2():
    xi = np.array([0.5 + 0.5j, 2.0 - 1.0j])
    s1, s2, s3 = oracles.radcliffe_symbols(xi, 20)
    np.testing.assert_allclose(s1 ** 2 + s2 ** 2 + s3 ** 2, 400.0)
    oracles.spin_symbols("s", xi, s1, s2, s3, 20)
    with pytest.raises(CheckFailed):
        oracles.spin_symbols("s", xi, s1, -s2, s3, 20)


def test_one_sinusoid_rejects_phase_shift_harmonic_and_sign():
    tau = np.linspace(0, 4 * math.pi, 201)
    oracles.one_sinusoid(tau, 7.0 * np.cos(tau + 0.3), phase=0.3)
    for wrong in (7.0 * np.cos(tau + 0.31), 7.0 * np.cos(tau + 0.3) + 1e-6 * np.cos(2 * tau),
                  -7.0 * np.cos(tau + 0.3)):
        with pytest.raises(CheckFailed):
            oracles.one_sinusoid(tau, wrong, phase=0.3)


def test_verify_report_rejects_a_fail_line():
    oracles.verify_report("PASS a measured=0\nPASS b measured=0\n", ["1", "1"])
    with pytest.raises(CheckFailed):
        oracles.verify_report("PASS a measured=0\nFAIL b measured=1\n", ["1", "0"])
    with pytest.raises(CheckFailed):
        oracles.verify_report("", [])


def test_sweep_grid_rejects_another_count():
    oracles.sweep_grid("x", np.linspace(0, 2, 2001), 0.0, 2.0, 2001)
    with pytest.raises(CheckFailed):
        oracles.sweep_grid("x", np.linspace(0, 2, 2000), 0.0, 2.0, 2001)


def test_read_csv_skips_the_config_line():
    cols = oracles.read_csv('# config {"j": 1}\na,b\n1,2\n3,4\n')
    assert cols == {"a": ["1", "3"], "b": ["2", "4"]}


def test_resolution_of_unity_rejects_1e_9():
    oracles.resolution_of_unity(np.eye(5) + 1e-12)
    with pytest.raises(CheckFailed):
        oracles.resolution_of_unity(np.eye(5) + 1e-9)


def test_antinormal_rejects_diag_n_for_a_adagger():
    n = np.arange(5)
    expected = oracles.antinormal("alpha2", 2)
    np.testing.assert_array_equal(np.diag(expected), n + 1)
    np.testing.assert_array_equal(np.diag(oracles.antinormal("beta2", 2)), 5 - n)
    np.testing.assert_array_equal(np.diag(oracles.antinormal("r", 2)), np.full(5, 6.0))
    with pytest.raises(CheckFailed):
        oracles.operator_equals("alpha2", np.diag(n.astype(float)), expected, 1e-10)


def test_ratio_operator_is_the_anti_normal_number_ratio():
    # c0 + c1 |xi|^2/(1+|xi|^2) at c1 = 2j+2 is c0 + |alpha|^2 on the sector
    op = oracles.ratio_operator(0.5, 6.0, 2)
    np.testing.assert_allclose(np.diag(op), 0.5 + np.arange(5) + 1)


def _tridiagonal(dim):
    off = np.sqrt(np.arange(1, dim))
    return np.diag(off, 1) + np.diag(off, -1)


def test_clock_structure_rejects_second_off_diagonal_and_the_rest():
    good = _tridiagonal(6)
    oracles.clock_structure("c", good)
    second = good + 1e-6 * (np.eye(6, k=2) + np.eye(6, k=-2))
    non_hermitian = good + 1e-6j * (np.eye(6, k=1) + np.eye(6, k=-1))
    traced = good + 1e-6 * np.eye(6)
    for wrong in (second, non_hermitian, traced, np.zeros((6, 6))):
        with pytest.raises(CheckFailed):
            oracles.clock_structure("c", wrong)


def test_radial_mean_matches_closed_forms():
    for m in (2, 4):
        assert oracles.radial_mean(lambda r: r, m) == pytest.approx(m + 2, rel=1e-12)
        half = math.exp(math.lgamma(m + 2.5) - math.lgamma(m + 2))
        assert oracles.radial_mean(math.sqrt, m) == pytest.approx(half, rel=1e-12)


def test_slice_value_rejects_1e_5():
    oracles.slice_value(1.0 + 2e-7, 1.0)
    with pytest.raises(CheckFailed):
        oracles.slice_value(1.0 + 1e-5, 1.0)


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("c", 2.0, 3.0, 1, 0),
             ("d", 5.0, 6.0, 0, 0)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | encodings
import time:        50 |         50 |     scipy._lib
import time:        20 |         70 |   scipy
import time:        10 |         10 |     scipy.linalg._x
import time:        30 |         40 |   scipy.linalg
import time:         5 |          5 |   numpy
import time:         1 |        116 | spinclock
"""


def test_parse_importtime_counts_the_spinclock_subtree():
    got = run.parse_importtime(IMPORTTIME)
    assert got == pytest.approx({"import.spinclock_s": 116e-6, "import.scipy_s": 110e-6,
                                 "import.modules": 6})


def test_benchmark_json_names_the_metrics_run_py_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_traced_cli_records_spans_at_every_binding(tmp_path):
    trace = tmp_path / "trace.json"
    env = run.worker_env()
    proc = subprocess.run([sys.executable, str(BENCH / "cli_traced.py"), str(trace), "7",
                           "overlap", "--j", "1", "--xi", "0,0", "--sweep", "xi_prime:0:1:3",
                           "--out", str(tmp_path / "o.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(trace.read_text())
    names = [s[0] for s in data["spans"]]
    assert names.count("coherent.overlap") == 3
    assert names[0] == "cli.main" and all(s[4] == 7 for s in data["spans"])
