"""End-to-end command-line runs on temporary directories."""

import csv
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from losscost.cli import main

K1_MODEL = """{
  "classes": [{"lambda": 1.0, "mu": 1.0, "bandwidth": 1, "omega": 1}],
  "policy": {"type": "full_sharing", "capacity": 2}
}
"""

SYMMETRIC_MODEL = """{
  "classes": [
    {"lambda": 1.0, "mu": 1.0, "bandwidth": 1, "omega": 1},
    {"lambda": 0.5, "mu": 1.0, "bandwidth": 1, "omega": 2}
  ],
  "policy": {"type": "full_sharing", "capacity": 3}
}
"""

ASYMMETRIC_MODEL = SYMMETRIC_MODEL.replace('"mu": 1.0, "bandwidth": 1, "omega": 2', '"mu": 2.0, "bandwidth": 1, "omega": 2')

ZERO_RATE_MODEL = K1_MODEL.replace('"lambda": 1.0', '"lambda": 0.0')

ZERO_COST_MODEL = K1_MODEL.replace('"omega": 1', '"omega": 0')

B12_MODEL = """{
  "classes": [
    {"lambda": 3.0, "mu": 1.0, "bandwidth": 1, "omega": 1},
    {"lambda": 1.0, "mu": 1.0, "bandwidth": 2, "omega": 2}
  ],
  "policy": {"type": "full_sharing", "capacity": 6}
}
"""


def _write(tmp_path, text, name="model.json"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_stationary_reference(tmp_path):
    model = _write(tmp_path, K1_MODEL)
    out = tmp_path / "out"
    assert main(["stationary", "--model", model, "--out", str(out)]) == 0
    row = _read_csv(out / "summary.csv")[0]
    assert float(row["g"]) == pytest.approx(0.2, abs=1e-12)
    assert float(row["G"]) == pytest.approx(2.5, abs=1e-12)
    assert float(row["blocking_prob_1"]) == pytest.approx(0.2, abs=1e-12)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["states"] == 3
    assert manifest["warnings"] == 0


def test_stationary_zero_rate_blocking_zero(tmp_path):
    model = _write(tmp_path, ZERO_RATE_MODEL)
    out = tmp_path / "out"
    assert main(["stationary", "--model", model, "--out", str(out)]) == 0
    row = _read_csv(out / "summary.csv")[0]
    assert float(row["blocking_prob_1"]) == 0.0


@pytest.mark.parametrize("method", ["exact", "general", "symmetric", "equal-bandwidth"])
def test_shadow_zero_load_gives_zero_costs(tmp_path, method):
    # g = r = 0, so v = 0 solves Howard's equation exactly
    model = _write(tmp_path, ZERO_RATE_MODEL)
    out = tmp_path / "out"
    assert main(["shadow", "--model", model, "--out", str(out), "--method", method]) == 0
    assert [float(row["v"]) for row in _read_csv(out / "relative_costs.csv")] == [0.0, 0.0, 0.0]


def test_shadow_exact_zero_load_writes_no_negative_zero(tmp_path):
    model = _write(tmp_path, ZERO_RATE_MODEL)
    out = tmp_path / "out"
    assert main(["shadow", "--model", model, "--out", str(out), "--method", "exact"]) == 0
    for name in ("relative_costs.csv", "shadow_prices.csv", "bill_dist.csv"):
        assert "-0." not in (out / name).read_text(), name


def test_shadow_series_zero_load_converges_at_start(tmp_path):
    # g = r = 0: the zero start solves Howard's equation
    model = _write(tmp_path, ZERO_RATE_MODEL)
    out = tmp_path / "out"
    assert main(["shadow", "--model", model, "--out", str(out), "--method", "series"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["series"] == {"converged": True, "message": "converged after 0 terms"}


def test_malformed_model_is_validation_error(tmp_path, capsys):
    model = _write(tmp_path, K1_MODEL.replace('"mu": 1.0', '"mu": -1.0'))
    assert main(["stationary", "--model", model, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "classes[0]" in err and "service rate" in err


def test_missing_model_file(tmp_path):
    assert main(["stationary", "--model", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 1


def test_out_path_is_an_existing_file(tmp_path, capsys):
    model = _write(tmp_path, K1_MODEL)
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert main(["stationary", "--model", model, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "File exists" in err and str(out) in err


def test_model_path_is_a_directory(tmp_path, capsys):
    assert main(["stationary", "--model", str(tmp_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err


def test_model_file_not_utf8(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_bytes(K1_MODEL.replace("1.0", "1.\xe9").encode("latin-1"))
    assert main(["shadow", "--model", str(model), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: model file is not UTF-8") and "(line 2)" in err


def test_shadow_symmetric_method_rejects_asymmetric(tmp_path, capsys):
    model = _write(tmp_path, ASYMMETRIC_MODEL)
    code = main(["shadow", "--model", model, "--out", str(tmp_path / "o"), "--method", "symmetric"])
    assert code == 1
    assert "equal" in capsys.readouterr().err


def test_shadow_symmetric_method_rejects_thresholds(tmp_path, capsys):
    # equal rates and bandwidths, but not complete sharing
    model = _write(tmp_path, SYMMETRIC_MODEL.replace('"lambda": 0.5, "mu": 1.0, "bandwidth": 1, "omega": 2',
                                                     '"lambda": 1.0, "mu": 1.0, "bandwidth": 1, "omega": 1')
                   .replace('"type": "full_sharing", "capacity": 3', '"type": "per_class", "thresholds": [3, 3]'))
    code = main(["shadow", "--model", model, "--out", str(tmp_path / "o"), "--method", "symmetric"])
    assert code == 1
    assert "complete sharing" in capsys.readouterr().err


def test_shadow_exact_equals_symmetric_closed_form(tmp_path):
    model = _write(tmp_path, SYMMETRIC_MODEL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["shadow", "--model", model, "--out", str(out_a), "--method", "exact"]) == 0
    assert main(["shadow", "--model", model, "--out", str(out_b), "--method", "symmetric"]) == 0
    for name in ("relative_costs.csv", "shadow_prices.csv", "bill_dist.csv"):
        rows_a, rows_b = _read_csv(out_a / name), _read_csv(out_b / name)
        assert len(rows_a) == len(rows_b)
        for ra, rb in zip(rows_a, rows_b):
            for key in ra:
                try:
                    assert float(ra[key]) == pytest.approx(float(rb[key]), abs=1e-8)
                except ValueError:
                    assert ra[key] == rb[key]


HEAVY_MODEL = json.dumps({
    "classes": [{"lambda": 6.25, "mu": 1.0, "bandwidth": 1, "omega": w} for w in (1, 2, 3)],
    "policy": {"type": "full_sharing", "capacity": 25},
})


def test_shadow_exact_heavy_load(tmp_path):
    # rho_k = C/4 at C = 25, 3,276 states
    model = _write(tmp_path, HEAVY_MODEL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["shadow", "--model", model, "--out", str(out_a), "--method", "exact"]) == 0
    assert main(["shadow", "--model", model, "--out", str(out_b), "--method", "symmetric"]) == 0
    va = np.array([float(r["v"]) for r in _read_csv(out_a / "relative_costs.csv")])
    vb = np.array([float(r["v"]) for r in _read_csv(out_b / "relative_costs.csv")])
    assert len(va) == 3276
    np.testing.assert_allclose(va, vb, rtol=1e-10, atol=0.0)


def test_shadow_series_reports_residual_history(tmp_path):
    model = _write(tmp_path, ASYMMETRIC_MODEL)
    out = tmp_path / "o"
    code = main(["shadow", "--model", model, "--out", str(out), "--method", "series", "--terms", "4"])
    rows = _read_csv(out / "residuals.csv")
    assert [r["method"] for r in rows] == ["series"] * len(rows)
    assert [int(r["terms"]) for r in rows] == list(range(len(rows)))
    residuals = [float(r["residual"]) for r in rows]
    # either the completion converged cleanly or the run is flagged
    manifest = json.loads((out / "run_manifest.json").read_text())
    if residuals[-1] > 1e-6:
        assert code == 3 and manifest["warnings"] >= 1


def test_costdist_simple_matches_closed(tmp_path):
    # the closed scheme is the continuous-time law; the recursion approaches
    # it at rate 1/steps, so agreement at 1e-6 needs fine stepping
    model = _write(tmp_path, K1_MODEL)
    out_s, out_c = tmp_path / "s", tmp_path / "c"
    assert main(["costdist", "--model", model, "--out", str(out_s), "--t", "2.0",
                 "--scheme", "simple", "--rmax", "25", "--steps", "100000"]) == 0
    assert main(["costdist", "--model", model, "--out", str(out_c), "--t", "2.0",
                 "--scheme", "closed", "--rmax", "25"]) == 0
    rows_s = {r["r"]: float(r["probability"]) for r in _read_csv(out_s / "total_cost.csv")}
    rows_c = {r["r"]: float(r["probability"]) for r in _read_csv(out_c / "total_cost.csv")}
    for r in rows_c:
        assert rows_s[r] == pytest.approx(rows_c[r], abs=1e-6)


def test_costdist_zero_cost_point_mass(tmp_path):
    model = _write(tmp_path, ZERO_COST_MODEL)
    out = tmp_path / "o"
    assert main(["costdist", "--model", model, "--out", str(out), "--t", "3.0"]) == 0
    rows = _read_csv(out / "total_cost.csv")
    assert float(rows[0]["probability"]) == pytest.approx(1.0, abs=1e-12)
    assert all(float(r["probability"]) == 0.0 for r in rows[1:])


def test_costdist_mean_matches_analytic(tmp_path):
    model = _write(tmp_path, SYMMETRIC_MODEL)
    for scheme in ("simple", "closed"):
        out = tmp_path / scheme
        assert main(["costdist", "--model", model, "--out", str(out), "--t", "2.5",
                     "--scheme", scheme]) == 0
        risk = _read_csv(out / "risk.csv")[0]
        summary_out = tmp_path / "stat"
        main(["stationary", "--model", model, "--out", str(summary_out)])
        g = float(_read_csv(summary_out / "summary.csv")[0]["g"])
        assert float(risk["mean"]) == pytest.approx(2.5 * g, abs=1e-6)


def test_costdist_closed_long_horizon(tmp_path):
    # exp(-t lam) underflows at t = 1000; the closed law must not
    model = _write(tmp_path, K1_MODEL)
    out = tmp_path / "o"
    assert main(["costdist", "--model", model, "--out", str(out), "--t", "1000",
                 "--scheme", "closed"]) == 0
    risk = _read_csv(out / "risk.csv")[0]
    assert float(risk["mean"]) == pytest.approx(200.0, rel=1e-9)
    assert int(risk["q95"]) == 1021  # 0.8 + 0.2 F(r) >= 0.95, F the Poisson(1000) cdf


def test_costdist_closed_mean_exact_at_large_load(tmp_path):
    # mean cost 1e5 over the law: the risk mean must be t*g to 1e-9, with the
    # Erlang B blocking exact in rationals (a recursion over r drifted 9.1e-9)
    model = _write(tmp_path, K1_MODEL.replace('"lambda": 1.0', '"lambda": 1e5')
                   .replace('"capacity": 2', '"capacity": 3'))
    out = tmp_path / "o"
    assert main(["costdist", "--model", model, "--out", str(out), "--t", "1",
                 "--scheme", "closed"]) == 0
    terms = [Fraction(1)]
    for k in range(1, 4):
        terms.append(terms[-1] * 100_000 / k)
    tg = 100_000 * terms[-1] / sum(terms)
    mean = float(_read_csv(out / "risk.csv")[0]["mean"])
    assert abs(float((Fraction(mean) - tg) / tg)) <= 1e-9


def test_costdist_requires_t(tmp_path):
    model = _write(tmp_path, K1_MODEL)
    assert main(["costdist", "--model", model, "--out", str(tmp_path / "o"), "--scheme", "simple", "--t", "0"]) == 1


def test_simulate_deterministic_outputs(tmp_path):
    model = _write(tmp_path, K1_MODEL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--model", model, "--t", "30.0", "--reps", "200", "--seed", "9"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    for name in ("pi_mc.csv", "cost_dist_mc.csv", "total_cost_mc.csv", "risk_mc.csv",
                 "bill_dist_mc.csv", "comparison.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_reference_comparison_passes(tmp_path):
    model = _write(tmp_path, SYMMETRIC_MODEL)
    out = tmp_path / "o"
    assert main(["simulate", "--model", model, "--out", str(out), "--t", "60.0",
                 "--reps", "400", "--seed", "4"]) == 0
    rows = _read_csv(out / "comparison.csv")
    assert rows, "comparison report missing"
    assert all(r["pass"] == "1" for r in rows)


def test_simulate_rejects_zero_reps(tmp_path):
    model = _write(tmp_path, K1_MODEL)
    assert main(["simulate", "--model", model, "--out", str(tmp_path / "o"),
                 "--t", "10", "--reps", "0"]) == 1


# class 2 needs 5 units of a 3-unit link, so no state admits it
NEVER_FITS_MODEL = json.dumps({
    "classes": [{"lambda": 1, "mu": 1, "bandwidth": 1, "omega": 1},
                {"lambda": 0.5, "mu": 1, "bandwidth": 5, "omega": 2}],
    "policy": {"type": "full_sharing", "capacity": 3}})


def test_shadow_class_that_never_fits(tmp_path):
    model = _write(tmp_path, NEVER_FITS_MODEL)
    out = tmp_path / "o"
    assert main(["shadow", "--model", model, "--out", str(out), "--method", "exact"]) == 0
    rows = _read_csv(out / "bill_dist.csv")
    assert rows and {r["class"] for r in rows} == {"1"}


def test_simulate_class_that_never_fits(tmp_path, capsys):
    model = _write(tmp_path, NEVER_FITS_MODEL)
    code = main(["simulate", "--model", model, "--out", str(tmp_path / "o"), "--t", "5",
                 "--reps", "50"])
    assert code != 1, capsys.readouterr().err
    assert (tmp_path / "o" / "bill_dist_mc.csv").exists()


def test_unknown_method_is_validation_error(tmp_path, capsys):
    model = _write(tmp_path, K1_MODEL)
    assert main(["shadow", "--model", model, "--out", str(tmp_path / "o"),
                 "--method", "unknown"]) == 1


def test_costdist_truncation_warning_exit(tmp_path):
    model = _write(tmp_path, K1_MODEL)
    out = tmp_path / "o"
    code = main(["costdist", "--model", model, "--out", str(out), "--t", "20.0",
                 "--scheme", "shadow", "--rmax", "2"])
    assert code == 3
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["warnings"] >= 1


@pytest.mark.parametrize("t", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("scheme", ["closed", "simple", "shadow"])
def test_costdist_rejects_bad_horizon(tmp_path, scheme, t):
    model = _write(tmp_path, K1_MODEL)
    assert main(["costdist", "--model", model, "--out", str(tmp_path / "o"),
                 "--scheme", scheme, f"--t={t}"]) == 1


@pytest.mark.parametrize("scheme", ["closed", "simple", "shadow"])
def test_costdist_rejects_negative_rmax(tmp_path, capsys, scheme):
    model = _write(tmp_path, K1_MODEL)
    assert main(["costdist", "--model", model, "--out", str(tmp_path / "o"),
                 "--t", "1.0", "--scheme", scheme, "--rmax", "-1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_costdist_closed_rmax_is_honoured(tmp_path):
    # --rmax is the truncation of every scheme, closed too: it is not grown,
    # and a leak past it above LEAKAGE_WARN exits 3
    model = _write(tmp_path, K1_MODEL)
    for rmax, code in (("0", 3), ("1", 3), ("40", 0)):
        out = tmp_path / rmax
        assert main(["costdist", "--model", model, "--out", str(out),
                     "--t", "2.0", "--scheme", "closed", "--rmax", rmax]) == code
        assert json.loads((out / "run_manifest.json").read_text())["r_max"] == int(rmax)
        assert len(_read_csv(out / "total_cost.csv")) == int(rmax) + 1


# lam = (0.5, 1), omega = (100, 1), C = 2: the cost spread is far from one
# Poisson count, t g = 31.655172 at t = 2
WIDE_COST_MODEL = """{
  "classes": [
    {"lambda": 0.5, "mu": 1.0, "bandwidth": 1, "omega": 100},
    {"lambda": 1.0, "mu": 1.0, "bandwidth": 1, "omega": 1}
  ],
  "policy": {"type": "full_sharing", "capacity": 2}
}
"""


def test_costdist_default_rmax_is_one_for_every_scheme(tmp_path):
    # every scheme truncates at default_r_max and none leaks past it
    model = _write(tmp_path, WIDE_COST_MODEL)
    out = tmp_path / "pi"
    assert main(["stationary", "--model", model, "--out", str(out)]) == 0
    tg = 2.0 * float(_read_csv(out / "summary.csv")[0]["g"])
    r_max = set()
    for scheme in ("closed", "simple", "shadow"):
        out = tmp_path / scheme
        assert main(["costdist", "--model", model, "--out", str(out), "--t", "2",
                     "--scheme", scheme]) == 0
        r_max.add(json.loads((out / "run_manifest.json").read_text())["r_max"])
        if scheme != "shadow":
            assert float(_read_csv(out / "risk.csv")[0]["mean"]) == pytest.approx(tg, rel=1e-5)
    assert r_max == {993}


@pytest.mark.parametrize("lam,mu", [("1e-300", "1e300"), ("1e12", "1e-300")],
                         ids=["underflow", "overflow"])
def test_stationary_load_beyond_float_range(tmp_path, lam, mu):
    # rho = lam / mu under- or overflows; the stationary law uses log rho
    model = _write(tmp_path, K1_MODEL.replace('"lambda": 1.0', f'"lambda": {lam}')
                   .replace('"mu": 1.0', f'"mu": {mu}'))
    out = tmp_path / "o"
    assert main(["stationary", "--model", model, "--out", str(out)]) == 0
    pi = [float(row["probability"]) for row in _read_csv(out / "pi.csv")]
    if lam == "1e-300":
        assert pi == [1.0, 0.0, 0.0]
    else:
        # pi(1) / pi(2) = 2 / rho = 2e-312
        assert pi[0] == 0.0 and pi[2] == 1.0
        assert pi[1] == pytest.approx(2e-312, rel=1e-9)


@pytest.mark.parametrize("method", ["general", "symmetric", "equal-bandwidth", "series"])
def test_shadow_closed_forms_refuse_overflow(tmp_path, capsys, method):
    # rho = 1e-312: 1/rho overflows in the double sums, which must fail, not
    # write nan
    model = _write(tmp_path, K1_MODEL.replace('"lambda": 1.0', '"lambda": 1e-300')
                   .replace('"mu": 1.0', '"mu": 1e12').replace('"omega": 1', '"omega": 2'))
    assert main(["shadow", "--model", model, "--out", str(tmp_path / "o"), "--method", method]) == 2
    assert "relative costs are not finite" in capsys.readouterr().err
    assert not (tmp_path / "o" / "relative_costs.csv").exists()


@pytest.mark.parametrize("terms,code", [("-5", 1), ("0", 0)])
def test_shadow_series_terms_bound(tmp_path, capsys, terms, code):
    # no correction term is valid (the start approximation); fewer is not
    model = _write(tmp_path, K1_MODEL)
    assert main(["shadow", "--model", model, "--out", str(tmp_path / "o"),
                 "--method", "series", "--terms", terms]) == code
    assert ("n_terms" in capsys.readouterr().err) == (code == 1)


# K=3, unit bandwidth, one service rate, C=16: 969 states
SYM969_MODEL = """{
  "classes": [
    {"lambda": 2.0, "mu": 1.0, "bandwidth": 1, "omega": 1},
    {"lambda": 2.1, "mu": 1.0, "bandwidth": 1, "omega": 2},
    {"lambda": 1.9, "mu": 1.0, "bandwidth": 1, "omega": 3}
  ],
  "policy": {"type": "full_sharing", "capacity": 16}
}
"""

# the stationary law answers at once (G overflows), but the default cost
# truncation is about 5e160
HUGE_RATE_MODEL = K1_MODEL.replace('"lambda": 1.0', '"lambda": 1e160').replace('"capacity": 2', '"capacity": 3')


@pytest.mark.parametrize("model", [K1_MODEL, SYM969_MODEL], ids=["k1", "sym969"])
def test_shadow_series_many_terms_allocate_nothing(tmp_path, model):
    # a term budget sizes no array: 100,000 terms peak no higher than 6
    import tracemalloc

    path = _write(tmp_path, model)
    peaks = []
    for terms in ("6", "100000"):
        tracemalloc.start()
        try:
            assert main(["shadow", "--model", path, "--out", str(tmp_path / terms),
                         "--method", "series", "--terms", terms]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**20


@pytest.mark.parametrize("scheme", ["closed", "simple", "shadow"])
@pytest.mark.parametrize("model,extra", [(HUGE_RATE_MODEL, []),
                                         (SYM969_MODEL, ["--rmax", "100000000000"])],
                         ids=["huge-rate", "rmax-1e11"])
def test_costdist_rejects_oversized_lattice(tmp_path, capsys, scheme, model, extra):
    path = _write(tmp_path, model)
    started = time.perf_counter()
    assert main(["costdist", "--model", path, "--out", str(tmp_path / "o"),
                 "--t", "5", "--scheme", scheme, *extra]) == 1
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: r_max=") and "cost lattice cap" in err


# mu_2 = 1e12 asks for 1e14 steps of 6 states x 603 costs at t = 50
UNBOUNDED_STEPS_MODEL = json.dumps({
    "classes": [{"lambda": l, "mu": m, "bandwidth": 1, "omega": 1} for l, m in ((1.0, 1e-300), (7.0, 1e12))],
    "policy": {"type": "per_class", "thresholds": [2, 1]},
})


def test_costdist_shadow_refuses_unbounded_work(tmp_path):
    # in a child process, so that a recursion that runs on fails the test
    # at its timeout instead of holding the run
    path = _write(tmp_path, UNBOUNDED_STEPS_MODEL)
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "losscost", "costdist", "--model", path,
                           "--out", str(tmp_path / "o"), "--t", "50", "--scheme", "shadow"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("error: 100000000000800 steps over 6 states x 603 costs")
    assert "is 3.62e+17 cell-steps, past the shadow recursion's cap of 17179869184" in done.stderr


# about 5e9 events at t = 1e9
BUSY_MODEL = json.dumps({
    "classes": [{"lambda": l, "mu": 1.0, "bandwidth": 1, "omega": w} for l, w in ((2.0, 1), (1.0, 2))],
    "policy": {"type": "full_sharing", "capacity": 3},
})


def test_simulate_refuses_unbounded_work(tmp_path):
    # in a child process, like the shadow recursion's test
    path = _write(tmp_path, BUSY_MODEL)
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "losscost", "simulate", "--model", path,
                           "--out", str(tmp_path / "o"), "--t", "1e9", "--reps", "1"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 1
    assert done.stderr == ("error: 1 replications x horizon 1e+09 x peak event rate 6 is 6e+09 events, "
                           "past the simulator's cap of 16777216\n")


def test_simulate_refuses_histogram_past_lattice_cap(tmp_path, capsys, monkeypatch):
    # total_cost_mc.csv has a row for every cost up to the largest sample;
    # one blocked arrival at omega = 1000 already passes a cap of 1000 rows
    from losscost import costdist as cd
    monkeypatch.setattr(cd, "LATTICE_CAP", 1000)
    path = _write(tmp_path, K1_MODEL.replace('"lambda": 1.0', '"lambda": 2.0')
                  .replace('"omega": 1', '"omega": 1000'))
    out = tmp_path / "o"
    assert main(["simulate", "--model", path, "--out", str(out), "--t", "5", "--reps", "100"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: largest sampled total cost r=\d+000 needs \d+001 rows in "
                        r"total_cost_mc\.csv, past the cost lattice cap of 1000\n", err), err
    assert not list(out.iterdir())


# t * lambda * omega and the peak event rate times t overflow to inf
INFINITE_PRODUCT_MODEL = HUGE_RATE_MODEL.replace('"lambda": 1e160', '"lambda": 1e308')


@pytest.mark.parametrize("extra", [[], ["--steps", "10"]], ids=["default", "steps"])
@pytest.mark.parametrize("scheme", ["closed", "simple", "shadow"])
def test_costdist_rejects_infinite_rate_products(tmp_path, capsys, scheme, extra):
    # neither the default cost truncation nor the default step count exists
    path = _write(tmp_path, INFINITE_PRODUCT_MODEL)
    assert main(["costdist", "--model", path, "--out", str(tmp_path / "o"),
                 "--t", "5", "--scheme", scheme, *extra]) == 1
    err = capsys.readouterr().err
    if scheme == "closed" and extra:
        # the closed scheme takes no steps, so the flag is refused first
        assert err.startswith("error: --steps applies")
    else:
        assert err.startswith("error: horizon 5 times") and "not finite" in err


# lambda * omega = 2e308 for class 1: every state that blocks it has an
# infinite blocking-cost rate
INFINITE_COST_RATE_MODEL = json.dumps({
    "classes": [{"lambda": 1e308, "mu": 1, "bandwidth": 1, "omega": 2},
                {"lambda": 1, "mu": 1, "bandwidth": 1, "omega": 1}],
    "policy": {"type": "full_sharing", "capacity": 3},
})


@pytest.mark.parametrize("argv", [["stationary"], ["shadow", "--method", "exact"],
                                  ["shadow", "--method", "general"], ["simulate", "--t", "1", "--reps", "2"]],
                         ids=["stationary", "exact", "general", "simulate"])
def test_infinite_blocking_cost_rate_is_refused(tmp_path, capsys, argv):
    path = _write(tmp_path, INFINITE_COST_RATE_MODEL)
    assert main(argv + ["--model", path, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: total blocking-cost rate sum_j lam_j omega_j is not finite")


@pytest.mark.parametrize("command", ["stationary", "shadow", "costdist", "simulate"])
@pytest.mark.parametrize("field,value", [("lambda", "NaN"), ("lambda", "Infinity"),
                                         ("mu", "NaN"), ("mu", "Infinity")])
def test_non_finite_rates_are_validation_errors(tmp_path, capsys, command, field, value):
    # json.loads accepts the NaN and Infinity literals; the class rejects them
    text = K1_MODEL.replace(f'"{field}": 1.0', f'"{field}": {value}')
    path = _write(tmp_path, text)
    args = {"costdist": ["--t", "1"], "simulate": ["--t", "1", "--reps", "2"]}.get(command, [])
    assert main([command, "--model", path, "--out", str(tmp_path / "o"), *args]) == 1
    err = capsys.readouterr().err
    rate = "arrival" if field == "lambda" else "service"
    assert err.startswith(f"error: {rate} rate must be finite") and "$.classes[0]" in err


@pytest.mark.parametrize("t", ["0", "-1", "nan", "inf"])
def test_simulate_rejects_bad_horizon(tmp_path, t):
    model = _write(tmp_path, K1_MODEL)
    assert main(["simulate", "--model", model, "--out", str(tmp_path / "o"),
                 f"--t={t}", "--reps", "2"]) == 1


def test_simulate_risk_quantiles_follow_cost_law_rule(tmp_path):
    # q95/q99 of risk_mc.csv are the smallest costs whose empirical
    # cumulative share reaches the level, read back from cost_dist_mc.csv
    model = _write(tmp_path, K1_MODEL)
    out = tmp_path / "o"
    main(["simulate", "--model", model, "--out", str(out), "--t", "30", "--reps", "200", "--seed", "2"])
    counts = {}
    for row in _read_csv(out / "cost_dist_mc.csv"):
        r = int(row["r"])
        counts[r] = counts.get(r, 0) + round(float(row["probability"]) * 200)
    samples = np.repeat(sorted(counts), [counts[r] for r in sorted(counts)])
    assert len(samples) == 200
    risk = _read_csv(out / "risk_mc.csv")[0]
    assert int(risk["q95"]) == samples[189] and int(risk["q99"]) == samples[197]


FLOAT = re.compile(r"-?\d\.\d{17}e[+-]\d{2,3}")
CSV_HEADERS = {
    "pi.csv": "q1,probability",
    "summary.csv": "G,g,blocking_prob_1",
    "relative_costs.csv": "q1,v",
    "shadow_prices.csv": "q1,class,price",
    "bill_dist.csv": "class,price,probability",
    "residuals.csv": "method,terms,residual",
    "cost_dist.csv": "t,q1,r,probability",
    "total_cost.csv": "t,r,probability,cumulative",
    "risk.csv": "t,mean,q95,q99",
    "pi_mc.csv": "q1,probability,se",
    "cost_dist_mc.csv": "t,q1,r,probability,se",
    "total_cost_mc.csv": "t,r,probability,wilson_low,wilson_high",
    "risk_mc.csv": "t,mean,se,q95,q99",
    "bill_dist_mc.csv": "class,price,probability",
    "comparison.csv": "quantity,simulated,analytic,se,z,pass",
}
NOT_FLOAT = {"q1", "class", "method", "terms", "r", "q95", "q99", "quantity", "pass"}


def test_csv_file_format(tmp_path):
    # the determinism tests compare two runs of the same code; this pins the
    # format itself: every header, and .17e for every float field
    model = _write(tmp_path, K1_MODEL)
    out = tmp_path / "o"
    for argv in (["stationary"], ["shadow"], ["costdist", "--t", "2"],
                 ["simulate", "--t", "10", "--reps", "50"]):
        assert main(argv + ["--model", model, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(CSV_HEADERS)
    for name, header in CSV_HEADERS.items():
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert ",".join(rows[0]) == header, name
        assert len(rows) > 1, name
        for row in rows[1:]:
            for key, field in zip(rows[0], row):
                if key not in NOT_FLOAT:
                    assert FLOAT.fullmatch(field) or field in ("nan", "overflow"), (name, key, field)


def test_csv_table_in_readme_matches_headers():
    # README's output-file table, q1..qK and blocking_prob_1..K read at K=1
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| \w+ +\| `([\w.]+\.csv)` +\| `([^`]*)`", readme, re.MULTILINE)
    table = {name: cols.replace("q1..qK", "q1").replace("blocking_prob_1..blocking_prob_K", "blocking_prob_1")
             .replace(", ", ",") for name, cols in rows}
    assert len(rows) == len(table)
    assert table == CSV_HEADERS


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    model = _write(tmp_path, K1_MODEL)
    assert main(["simulate", "--model", model, "--out", str(tmp_path / "o"),
                 "--t", "10", "--reps", "2", "--seed", "-1"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["costdist", "--t", "2", "--scheme", "closed", "--steps", "5"], "--steps"),
    (["costdist", "--t", "2", "--steps", "5"], "--steps"),
    (["shadow", "--method", "exact", "--terms", "-3"], "--terms"),
    (["shadow", "--terms", "6"], "--terms"),
    (["shadow", "--method", "general", "--terms", "2"], "--terms"),
], ids=["closed-steps", "default-scheme-steps", "exact-terms", "default-method-terms", "general-terms"])
def test_cli_rejects_flags_that_do_not_apply(tmp_path, capsys, argv, flag):
    model = _write(tmp_path, K1_MODEL)
    out = tmp_path / "o"
    assert main(argv + ["--model", model, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} applies")
    assert not (out / "run_manifest.json").exists()


def test_shadow_series_manifest_names_default_terms(tmp_path):
    model = _write(tmp_path, ASYMMETRIC_MODEL)
    runs = {"default": [], "explicit": ["--terms", "6"]}
    for name, extra in runs.items():
        assert main(["shadow", "--model", model, "--out", str(tmp_path / name),
                     "--method", "series", *extra]) in (0, 3)
    default, explicit = (json.loads((tmp_path / name / "run_manifest.json").read_text()) for name in runs)
    assert default["terms"] == explicit["terms"] == 6
    assert "terms" not in default["parameters"]
    for name in ("relative_costs.csv", "residuals.csv"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "explicit" / name).read_bytes()


@pytest.mark.parametrize("text", [ASYMMETRIC_MODEL, SYM969_MODEL], ids=["asymmetric", "symmetric"])
def test_series_manifest_records_outcome(tmp_path, text):
    from losscost import enumerate_states, series_refine, stationary
    from losscost.model_io import load_model

    model = _write(tmp_path, text)
    classes, policy = load_model(model)
    space = enumerate_states(classes, policy)
    dist = stationary(space, classes)
    result = series_refine(space, classes, dist.g, dist.r)
    for method in ("series", "exact", "general", "equal-bandwidth"):
        out = tmp_path / method
        code = main(["shadow", "--method", method, "--model", model, "--out", str(out)])
        manifest = json.loads((out / "run_manifest.json").read_text())
        if method == "series":
            assert code == (0 if result.converged else 3)
            assert manifest["series"] == {"converged": result.converged, "message": result.message}
        else:
            assert "series" not in manifest
    assert result.converged == (text == SYM969_MODEL)


def _warning_lines(capsys, out):
    """The run's ``warning:`` lines on stderr, checked against the
    manifest's count and texts."""
    lines = capsys.readouterr().err.splitlines()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert lines == [f"warning: {text}" for text in manifest["warning_messages"]]
    assert manifest["warnings"] == len(lines)
    return lines


def test_exit_3_says_why(tmp_path, capsys):
    # every run that exits 3 prints one warning line per cause and records
    # the texts; a clean run prints and records none
    from losscost import enumerate_states, series_refine, stationary
    from losscost.model_io import load_model

    asymmetric = _write(tmp_path, ASYMMETRIC_MODEL, "asymmetric.json")
    classes, policy = load_model(asymmetric)
    space = enumerate_states(classes, policy)
    dist = stationary(space, classes)
    series = series_refine(space, classes, dist.g, dist.r)
    assert not series.converged
    out = tmp_path / "series"
    assert main(["shadow", "--model", asymmetric, "--out", str(out), "--method", "series"]) == 3
    assert _warning_lines(capsys, out) == [f"warning: series did not converge: {series.message}"]

    b12 = _write(tmp_path, B12_MODEL)
    out = tmp_path / "costdist"
    assert main(["costdist", "--model", b12, "--out", str(out), "--t", "2",
                 "--scheme", "simple", "--rmax", "1"]) == 3
    leakage = 1.0 - float(_read_csv(out / "total_cost.csv")[-1]["cumulative"])
    line, = _warning_lines(capsys, out)
    assert line == (f"warning: cost truncation leaked {leakage:.3e} probability past r_max=1, "
                    "above LEAKAGE_WARN=1e-06")

    # started empty, a short horizon fails every stationary reference
    out = tmp_path / "simulate"
    assert main(["simulate", "--model", b12, "--out", str(out), "--t", "0.5", "--reps", "2000",
                 "--seed", "1"]) == 3
    lines = _warning_lines(capsys, out)
    failed = [r for r in _read_csv(out / "comparison.csv") if r["pass"] == "0"]
    assert len(lines) == len(failed) == 4
    for line, row in zip(lines, failed):
        name, value = row["quantity"], float(row["simulated"])
        if name == "occupancy_tv_distance":
            assert line == f"warning: comparison {name} failed: TV distance {value:.4g}, not below 0.05"
        else:
            assert line == (f"warning: comparison {name} failed: simulated {value:.6g} against analytic "
                            f"{float(row['analytic']):.6g}, z = {float(row['z']):+.2f}, |z| > 3")

    for argv in (["stationary"], ["shadow"], ["costdist", "--t", "2"],
                 ["simulate", "--t", "60", "--reps", "400", "--seed", "4"]):
        out = tmp_path / "clean" / argv[0]
        assert main([argv[0], "--model", _write(tmp_path, SYMMETRIC_MODEL, "symmetric.json"),
                     "--out", str(out), *argv[1:]]) == 0
        assert _warning_lines(capsys, out) == []


def test_simulate_cli_counts_a_block_per_replication(tmp_path, capsys):
    model = _write(tmp_path, B12_MODEL)
    assert main(["simulate", "--model", model, "--out", str(tmp_path / "o"), "--t", "1e-12",
                 "--reps", "1000000"]) == 1
    assert capsys.readouterr().err == ("error: 1000000 replications x one block of 256 events is "
                                       "2.56e+08 events, past the simulator's cap of 16777216\n")


def test_risk_quantile_past_truncation_reads_rmax_plus_one(tmp_path):
    # with r_max = 1 the truncated law never reaches 0.95: both quantiles
    # read r_max + 1, and the leakage warning makes the run exit 3
    model = _write(tmp_path, B12_MODEL)
    out = tmp_path / "o"
    assert main(["costdist", "--model", model, "--out", str(out), "--t", "2",
                 "--scheme", "simple", "--rmax", "1"]) == 3
    assert float(_read_csv(out / "total_cost.csv")[-1]["cumulative"]) < 0.95
    risk = _read_csv(out / "risk.csv")[0]
    assert (int(risk["q95"]), int(risk["q99"])) == (2, 2)


@pytest.mark.parametrize("scheme", ["shadow", "simple"])
def test_costdist_rejects_zero_steps(tmp_path, capsys, scheme):
    model = _write(tmp_path, K1_MODEL)
    assert main(["costdist", "--model", model, "--out", str(tmp_path / "o"),
                 "--t", "2.0", "--scheme", scheme, "--steps", "0"]) == 1
    assert "steps" in capsys.readouterr().err


def test_simulate_manifest_records_events(tmp_path):
    from losscost import SimConfig, enumerate_states, simulate
    from losscost.model_io import load_model

    model = _write(tmp_path, K1_MODEL)
    out = tmp_path / "o"
    assert main(["simulate", "--model", model, "--out", str(out), "--t", "30.0",
                 "--reps", "200", "--seed", "9"]) == 0
    classes, policy = load_model(model)
    space = enumerate_states(classes, policy)
    config = SimConfig(horizon=30.0, replications=200, seed=9, warmup=7.5)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["events"] == simulate(space, classes, config).events > 0


def test_parser_built_once_gives_same_files(tmp_path):
    # main reuses one parser per process; successive subcommands through it
    # must write what fresh parsers write
    from losscost.cli import _build_parser

    model = _write(tmp_path, SYMMETRIC_MODEL)
    runs = [["stationary"], ["shadow", "--method", "series", "--terms", "3"],
            ["costdist", "--t", "1.5", "--scheme", "simple", "--steps", "40"],
            ["simulate", "--t", "3", "--reps", "20", "--seed", "4"], ["shadow"]]
    assert _build_parser() is _build_parser()
    for i, argv in enumerate(runs):
        assert main(argv + ["--model", model, "--out", str(tmp_path / "reused" / str(i))]) in (0, 3)
    for i, argv in enumerate(runs):
        _build_parser.cache_clear()
        assert main(argv + ["--model", model, "--out", str(tmp_path / "fresh" / str(i))]) in (0, 3)
    for i in range(len(runs)):
        reused, fresh = tmp_path / "reused" / str(i), tmp_path / "fresh" / str(i)
        names = sorted(p.name for p in fresh.iterdir())
        assert names == sorted(p.name for p in reused.iterdir())
        for name in names:
            if name == "run_manifest.json":
                a, b = (json.loads((d / name).read_text()) for d in (reused, fresh))
                for key in ("elapsed_seconds", "out"):
                    del a[key], b[key]
                assert a == b
            else:
                assert (reused / name).read_bytes() == (fresh / name).read_bytes(), (i, name)


B123_MODEL = """{
  "classes": [
    {"lambda": 3.0, "mu": 1.0, "bandwidth": 1, "omega": 1},
    {"lambda": 1.5, "mu": 1.0, "bandwidth": 2, "omega": 2},
    {"lambda": 1.0, "mu": 1.0, "bandwidth": 3, "omega": 3}
  ],
  "policy": {"type": "full_sharing", "capacity": 10}
}
"""

THRESHOLD_MODEL = """{
  "classes": [
    {"lambda": 1.2, "mu": 0.7, "bandwidth": 1, "omega": 1},
    {"lambda": 0.8, "mu": 1.3, "bandwidth": 2, "omega": 3}
  ],
  "policy": {"type": "per_class", "thresholds": [3, 2]}
}
"""

OVERFLOW_MODEL = K1_MODEL.replace('"lambda": 1.0', '"lambda": 1e160')


def _render_reference(out, model, method):
    """Every CSV of the runs in ``test_csv_bytes_match_row_writer``, rebuilt
    from the library's results by the row writer of ``test_report``."""
    from test_report import (ref_fmt, reference_bill_distribution, reference_cost_grid,
                             reference_relative_costs, reference_risk, reference_shadow_prices,
                             reference_total_cost, reference_write)

    from losscost import costdist as cd
    from losscost import howard as hw
    from losscost.cli import _relative_costs, simulation_checks
    from losscost.model import blocking_probabilities, enumerate_states, stationary
    from losscost.model_io import load_model
    from losscost.simulate import (SimConfig, empirical_bill_hist, empirical_quantile,
                                   empirical_total_cost_hist, simulate)

    classes, policy = load_model(model)
    space = enumerate_states(classes, policy)
    dist = stationary(space, classes)
    states, occupancy, K = [f"q{k + 1}" for k in range(space.K)], space.occupancy.tolist(), space.K
    for d in ("stationary", "shadow", "closed", "simple", "simulate"):
        (out / d).mkdir(parents=True)

    reference_write(out / "stationary" / "pi.csv", states + ["probability"],
                    (q + [ref_fmt(p)] for q, p in zip(occupancy, dist.pi)))
    reference_write(out / "stationary" / "summary.csv",
                    ["G", "g"] + [f"blocking_prob_{k + 1}" for k in range(K)],
                    [[ref_fmt(dist.G) if dist.G is not None else "overflow", ref_fmt(dist.g)]
                     + [ref_fmt(b) for b in blocking_probabilities(space, dist.pi)]])
    if method is None:
        return

    costs, history, _ = _relative_costs(space, classes, dist, method, 6)
    prices = hw.shadow_prices(costs, space)
    reference_relative_costs(out / "shadow" / "relative_costs.csv", space, costs)
    reference_shadow_prices(out / "shadow" / "shadow_prices.csv", space, prices)
    reference_bill_distribution(out / "shadow" / "bill_dist.csv",
                                hw.bill_distribution(prices, dist.pi, space))
    reference_write(out / "shadow" / "residuals.csv", ["method", "terms", "residual"],
                    ([method, n, ref_fmt(res)] for n, res in enumerate(history)))

    grids = {"closed": cd.closed_form_grid(space, classes, 2.0, cd.default_r_max(classes, 2.0), dist=dist),
             "simple": cd.evolve_simple_costs(space, classes, 2.0, 80, 12, warn=False)}
    for d, grid in grids.items():
        total = cd.TotalCostDistribution.from_mass(2.0, grid.total_cost(), grid.leakage)
        reference_cost_grid(out / d / "cost_dist.csv", space, grid)
        reference_total_cost(out / d / "total_cost.csv", 2.0, total.mass)
        reference_risk(out / d / "risk.csv", total)

    n, t = 200, ref_fmt(5.0)
    costs = hw.solve_howard_exact(space, classes, dist.g, dist.r)
    prices = hw.shadow_prices(costs, space)
    result = simulate(space, classes, SimConfig(horizon=5.0, replications=n, seed=3, warmup=1.25), prices=prices)
    sim = out / "simulate"
    reference_write(sim / "pi_mc.csv", states + ["probability", "se"],
                    (q + [ref_fmt(p), ref_fmt(se)]
                     for q, p, se in zip(occupancy, result.occupancy, result.occupancy_se)))
    cells, counts = np.unique(np.column_stack([result.final_states, result.total_cost_samples]),
                              axis=0, return_counts=True)
    prob = counts / n
    reference_write(sim / "cost_dist_mc.csv", ["t"] + states + ["r", "probability", "se"],
                    ([t] + occupancy[st] + [r, ref_fmt(p), ref_fmt(se)]
                     for (st, r), p, se in zip(cells, prob, np.sqrt(prob * (1.0 - prob) / n))))
    samples = result.total_cost_samples
    hist = empirical_total_cost_hist(samples, int(samples.max()))
    reference_write(sim / "total_cost_mc.csv", ["t", "r", "probability", "wilson_low", "wilson_high"],
                    ([t, r, ref_fmt(p), ref_fmt(lo), ref_fmt(hi)]
                     for r, (p, lo, hi) in enumerate(zip(*hist))))
    reference_write(sim / "risk_mc.csv", ["t", "mean", "se", "q95", "q99"],
                    [[t, ref_fmt(result.mean_cost()), ref_fmt(result.mean_cost_se()),
                      empirical_quantile(samples, 0.95), empirical_quantile(samples, 0.99)]])
    reference_bill_distribution(sim / "bill_dist_mc.csv", hw.BillDistribution(tuple(
        empirical_bill_hist(result, k) if len(result.bill_samples[k]) else () for k in range(K))))
    reference_write(sim / "comparison.csv", ["quantity", "simulated", "analytic", "se", "z", "pass"],
                    ([name, ref_fmt(s), ref_fmt(a), ref_fmt(e), ref_fmt(z), int(ok)]
                     for name, s, a, e, z, ok in simulation_checks(space, dist, costs, prices, result)))


@pytest.mark.parametrize("text,method", [
    (K1_MODEL, "exact"), (SYMMETRIC_MODEL, "symmetric"), (B123_MODEL, "series"),
    (THRESHOLD_MODEL, "general"), (ZERO_RATE_MODEL, "equal-bandwidth"), (OVERFLOW_MODEL, None)],
    ids=["k1", "symmetric", "b123", "threshold", "zero_rate", "overflow"])
def test_csv_bytes_match_row_writer(tmp_path, text, method):
    # all 15 files, byte for byte, against the row writer the CSV layer replaced
    model = _write(tmp_path, text)
    got, want = tmp_path / "got", tmp_path / "want"
    runs = {"stationary": ["stationary"]}
    if method is not None:
        runs |= {"shadow": ["shadow", "--method", method],
                 "closed": ["costdist", "--t", "2", "--scheme", "closed"],
                 "simple": ["costdist", "--t", "2", "--scheme", "simple", "--steps", "80", "--rmax", "12"],
                 "simulate": ["simulate", "--t", "5", "--reps", "200", "--seed", "3"]}
    for d, argv in runs.items():
        assert main(argv + ["--model", model, "--out", str(got / d)]) in (0, 3)
    _render_reference(want, model, method)
    files = sorted(p.relative_to(want) for p in want.rglob("*.csv"))
    assert files == sorted(p.relative_to(got) for p in got.rglob("*.csv"))
    assert {p.name for p in files} == (set(CSV_HEADERS) if method else {"pi.csv", "summary.csv"})
    for p in files:
        assert (got / p).read_bytes() == (want / p).read_bytes(), p


@pytest.mark.parametrize("path", ["bicgstab", "superlu"])
def test_exact_manifests_record_the_solver(tmp_path, monkeypatch, path):
    from losscost import howard as hw
    from losscost import enumerate_states, solve_howard_exact, stationary
    from losscost.model_io import load_model

    if path == "superlu":
        # a NaN Jacobi preconditioner breaks the first attempt down
        monkeypatch.setattr(hw, "_jacobi", lambda A: lambda b: np.full_like(b, np.nan))
    model = _write(tmp_path, B12_MODEL)
    classes, policy = load_model(model)
    space = enumerate_states(classes, policy)
    dist = stationary(space, classes)
    costs = solve_howard_exact(space, classes, dist.g, dist.r)
    want = {"path": path, "iterations": costs.iterations, "condition": costs.condition,
            "residual": costs.residual, "tolerance": costs.tolerance}
    assert costs.iterations == 1 if path == "superlu" else costs.iterations > 1
    runs = {"shadow": ["shadow", "--method", "exact"],
            "simulate": ["simulate", "--t", "3", "--reps", "20", "--seed", "2"]}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(argv + ["--model", model, "--out", str(out)]) in (0, 3)
        assert json.loads((out / "run_manifest.json").read_text())["solver"] == want
    out = tmp_path / "series"
    assert main(["shadow", "--method", "series", "--model", model, "--out", str(out)]) in (0, 3)
    assert "solver" not in json.loads((out / "run_manifest.json").read_text())


@pytest.mark.parametrize("argv", [["shadow"], ["simulate", "--t", "3", "--reps", "20"]],
                         ids=["shadow", "simulate"])
def test_exact_solve_failure_exits_2(tmp_path, monkeypatch, capsys, argv):
    # a zero residual gate: BiCGSTAB never meets it and SuperLU misses it
    from losscost import howard as hw

    monkeypatch.setattr(hw, "BACKWARD_TOL", 0.0)
    model = _write(tmp_path, B12_MODEL)
    assert main(argv + ["--model", model, "--out", str(tmp_path / "o")]) == 2
    assert "numeric failure: relative-cost solve residual" in capsys.readouterr().err


# lambda_1 = 1e6 on a link of 100: pi(empty) underflows to 0, and only the
# empty state admits class 2
UNDERFLOW_BILL_MODEL = json.dumps({
    "classes": [{"lambda": 1e6, "mu": 1.0, "bandwidth": 1, "omega": 1},
                {"lambda": 1.0, "mu": 1.0, "bandwidth": 100, "omega": 1}],
    "policy": {"type": "full_sharing", "capacity": 100},
})


def test_shadow_bill_underflow_exits_2(tmp_path, capsys):
    model = _write(tmp_path, UNDERFLOW_BILL_MODEL)
    assert main(["shadow", "--method", "general", "--model", model, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ("numeric failure: class 2: the stationary probability "
                                       "of its admitting states underflows to zero\n")
    # the failure comes before the first write: no partial outputs
    assert not list((tmp_path / "o").glob("*.csv"))


# the same load on 441 states, where class 2 fits beside up to 38 class-1
# calls and its bill law can be formed
NARROW_UNDERFLOW_MODEL = (UNDERFLOW_BILL_MODEL.replace('"bandwidth": 100', '"bandwidth": 2')
                          .replace('"capacity": 100', '"capacity": 40'))


@pytest.mark.parametrize("text", [UNDERFLOW_BILL_MODEL, NARROW_UNDERFLOW_MODEL], ids=["b2-100", "b2-2"])
@pytest.mark.parametrize("argv", [["shadow", "--method", "exact"], ["simulate", "--t", "1", "--reps", "10"]],
                         ids=["shadow", "simulate"])
def test_bill_underflow_exact_solve_answers(tmp_path, capsys, argv, text):
    # at lambda_1 = 1e6 no float64 solve gets the residual under 1e-8, but
    # both models meet the gate at their data's scale (8.0e-7 and 3.2e-7);
    # what fails on b2-100 is the bill law, not the solve
    model = _write(tmp_path, text)
    code = main(argv + ["--model", model, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if text == UNDERFLOW_BILL_MODEL:
        assert code == 2
        assert err == ("numeric failure: class 2: the stationary probability "
                       "of its admitting states underflows to zero\n")
    elif argv[0] == "shadow":
        assert code == 0
    else:
        # exit 3 from comparison warnings against stationary references
        assert code in (0, 3)


# rates spread over five decades, 444 states: BiCGSTAB does not converge
SPREAD_RATES_MODEL = json.dumps({
    "classes": [{"lambda": l, "mu": m, "bandwidth": b, "omega": w}
                for l, m, b, w in zip((0.001, 50, 1), (0.001, 10, 100), (1, 1, 2), (1, 2, 3))],
    "policy": {"type": "full_sharing", "capacity": 15},
})


@pytest.mark.parametrize("argv", [["shadow"], ["simulate", "--t", "3", "--reps", "20"]],
                         ids=["shadow", "simulate"])
def test_exact_solve_above_superlu_bound_exits_2(tmp_path, monkeypatch, capsys, argv):
    from losscost import howard as hw

    monkeypatch.setattr(hw, "SUPERLU_STATE_CAP", 400)
    model = _write(tmp_path, SPREAD_RATES_MODEL)
    assert main(argv + ["--model", model, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: BiCGSTAB ")
    assert "SuperLU factors at most 400 states, not 444" in err


def test_cli_import_leaves_heavy_modules_unloaded():
    # mpmath serves recursion_solve, scipy.sparse.linalg the exact solve's
    # SuperLU preconditioner and scipy.linalg the series completion's line
    # solves; none is loaded at start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import losscost.cli, sys; "
            "print(sorted(m for m in ('mpmath', 'scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.stdout.strip() == "[]"
