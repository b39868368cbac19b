"""Model-file parsing and validation diagnostics."""

import pytest

import losscost as lc
from losscost.model_io import ModelFileError, parse_model

GOOD = """{
  "classes": [
    {"lambda": 1.0, "mu": 1.0, "bandwidth": 1, "omega": 1},
    {"lambda": 0.5, "mu": 2.0, "bandwidth": 2, "omega": 3}
  ],
  "policy": {"type": "full_sharing", "capacity": 4}
}
"""


def test_parse_good_model():
    classes, policy = parse_model(GOOD)
    assert len(classes) == 2
    assert classes[1] == lc.TrafficClass(lam=0.5, mu=2.0, bandwidth=2, omega=3)
    assert policy == lc.FullSharing(capacity=4)


def test_defaults_apply():
    classes, _ = parse_model(
        '{"classes": [{"lambda": 1, "mu": 1}], "policy": {"type": "full_sharing", "capacity": 2}}'
    )
    assert classes[0].bandwidth == 1
    assert classes[0].omega == 0


def test_per_class_policy():
    _, policy = parse_model(
        '{"classes": [{"lambda": 1, "mu": 1}, {"lambda": 1, "mu": 1}],'
        ' "policy": {"type": "per_class", "thresholds": [2, 3]}}'
    )
    assert policy == lc.PerClassThreshold(thresholds=(2, 3))


def test_syntax_error_carries_line():
    with pytest.raises(ModelFileError) as exc:
        parse_model('{\n  "classes": [\n')
    assert exc.value.line is not None


def test_negative_mu_names_field_and_line():
    bad = GOOD.replace('"mu": 2.0', '"mu": -2.0')
    with pytest.raises(ModelFileError) as exc:
        parse_model(bad)
    assert "classes[1]" in str(exc.value)
    assert exc.value.line == 4  # second class entry


def test_missing_field():
    bad = GOOD.replace('"mu": 1.0, ', "")
    with pytest.raises(ModelFileError) as exc:
        parse_model(bad)
    assert "mu" in str(exc.value)


def test_fractional_omega_rejected():
    bad = GOOD.replace('"omega": 1', '"omega": 1.5')
    with pytest.raises(ModelFileError) as exc:
        parse_model(bad)
    assert "omega" in str(exc.value)
    assert "integer" in str(exc.value)


def test_unknown_field_rejected():
    bad = GOOD.replace('"omega": 1', '"omega": 1, "cost": 2')
    with pytest.raises(ModelFileError) as exc:
        parse_model(bad)
    assert "cost" in str(exc.value)


def test_threshold_count_must_match():
    bad = (
        '{"classes": [{"lambda": 1, "mu": 1}],'
        ' "policy": {"type": "per_class", "thresholds": [1, 2]}}'
    )
    with pytest.raises(ModelFileError) as exc:
        parse_model(bad)
    assert "thresholds" in str(exc.value)


def test_unknown_policy_type():
    bad = GOOD.replace("full_sharing", "trunk_reservation")
    with pytest.raises(ModelFileError) as exc:
        parse_model(bad)
    assert "trunk_reservation" in str(exc.value)


MULTILINE = """{
  "classes": [
    {"lambda": 1.0, "mu": 1.0},
    {
      "lambda": 0.5,
      "mu": 2.0,
      "bandwidth": 0,
      "omega": 1
    }
  ],
  "policy": {"type": "full_sharing", "capacity": 4}
}
"""


def test_class_error_names_failing_field_and_its_line():
    with pytest.raises(ModelFileError) as exc:
        parse_model(MULTILINE)
    assert exc.value.json_path == "$.classes[1].bandwidth"
    assert exc.value.line == 7
    assert str(exc.value).endswith("at $.classes[1].bandwidth (line 7)")


def test_key_line_is_found_inside_its_own_class():
    # class 0 has no omega, so the only "omega" key is class 1's
    bad = MULTILINE.replace('"bandwidth": 0', '"bandwidth": 1').replace('"omega": 1', '"omega": 1.5')
    with pytest.raises(ModelFileError) as exc:
        parse_model(bad)
    assert exc.value.json_path == "$.classes[1].omega"
    assert exc.value.line == 8
    # an earlier class's key of the same name is not the one reported
    bad = MULTILINE.replace('{"lambda": 1.0, "mu": 1.0}', '{"lambda": 1.0, "mu": 1.0, "bandwidth": 2}')
    with pytest.raises(ModelFileError) as exc:
        parse_model(bad)
    assert (exc.value.json_path, exc.value.line) == ("$.classes[1].bandwidth", 7)


def test_missing_field_points_at_its_object():
    bad = MULTILINE.replace('      "mu": 2.0,\n', "")
    with pytest.raises(ModelFileError) as exc:
        parse_model(bad)
    assert (exc.value.json_path, exc.value.line) == ("$.classes[1]", 4)
    assert "missing required field 'mu'" in str(exc.value)


def test_same_key_in_another_object_is_not_reported():
    bad = (
        '{"notes": {"capacity": 9}, "classes": [{"lambda": 1, "mu": 1}],\n'
        ' "policy": {"type": "full_sharing",\n "capacity": 0}}'
    )
    with pytest.raises(ModelFileError) as exc:
        parse_model(bad)
    assert (exc.value.json_path, exc.value.line) == ("$.policy.capacity", 3)
