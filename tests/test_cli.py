"""End-to-end command-line runs on temporary directories."""

import csv
import json
import re
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


def test_shadow_series_zero_load_is_validation_error(tmp_path, capsys):
    model = _write(tmp_path, ZERO_RATE_MODEL)
    assert main(["shadow", "--model", model, "--out", str(tmp_path / "out"), "--method", "series"]) == 1
    assert "arrival rate" in capsys.readouterr().err


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


def test_costdist_closed_rmax_zero_grows(tmp_path):
    # the truncation doubles from 1 until the tail fits, as from --rmax 1
    model = _write(tmp_path, K1_MODEL)
    for rmax in ("0", "1"):
        assert main(["costdist", "--model", model, "--out", str(tmp_path / rmax),
                     "--t", "2.0", "--scheme", "closed", "--rmax", rmax]) == 0
    for name in ("total_cost.csv", "risk.csv", "cost_dist.csv"):
        assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


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
def test_shadow_series_rejects_oversized_box(tmp_path, capsys, model):
    # the box (969 states: 21.3 PiB) or the one-class matrix (100,005^2) is
    # refused before it is allocated
    path = _write(tmp_path, model)
    assert main(["shadow", "--model", path, "--out", str(tmp_path / "o"),
                 "--method", "series", "--terms", "100000"]) == 1
    assert "error: series box" in capsys.readouterr().err


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
    assert err.startswith("error: horizon 5 times") and "not finite" in err


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


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    model = _write(tmp_path, K1_MODEL)
    assert main(["simulate", "--model", model, "--out", str(tmp_path / "o"),
                 "--t", "10", "--reps", "2", "--seed", "-1"]) == 1
    assert "error:" in capsys.readouterr().err


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

    total = cd.total_cost_distribution(space, classes, 2.0)
    grids = {"closed": (cd.closed_form_grid(space, classes, 2.0, len(total.mass) - 1, dist=dist), total)}
    grid = cd.evolve_simple_costs(space, classes, 2.0, 80, 12, warn=False)
    grids["simple"] = (grid, cd.TotalCostDistribution.from_mass(
        2.0, grid.total_cost(), 2.0 * dist.g, grid.leakage))
    for d, (grid, total) in grids.items():
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
