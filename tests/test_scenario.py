import dataclasses
import json
import math

import numpy as np
import pytest

from netalloc import (Scenario, ScenarioFormatError, ScenarioParams,
                      ScenarioValidationError, db_to_linear, generate_scenario,
                      hex_layout, linear_to_db, load_scenario, save_scenario,
                      scenario_violations, scenarios_equal, validate_scenario)

from conftest import make_scenario


def test_db_conversions():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-60.0) == pytest.approx(1e-6, rel=1e-12)
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
    assert linear_to_db(db_to_linear(7.3)) == pytest.approx(7.3, rel=1e-12)
    with pytest.raises(ValueError):
        linear_to_db(0.0)


def test_params_broadcast_scalars_per_cell():
    p = ScenarioParams(num_cells=3, users_per_cell=2, weights=1.0)
    assert p.users_per_cell == (2, 2, 2)
    assert p.weights == (1.0, 1.0, 1.0)
    q = ScenarioParams(num_cells=2, users_per_cell=(2, 3), weights=(1.0, 0.5))
    assert q.users_per_cell == (2, 3)


def test_params_violations_name_fields():
    bad = ScenarioParams(num_cells=2, num_subcarriers=0, p_max=-1.0,
                         weights=(0.0, 0.0))
    messages = bad.violations()
    joined = "\n".join(messages)
    assert "num_subcarriers" in joined
    assert "p_max" in joined
    assert "weights" in joined
    with pytest.raises(ScenarioValidationError):
        bad.validated()


@pytest.mark.parametrize("field", [
    {"num_cells": True}, {"num_subcarriers": True}, {"users_per_cell": True},
    {"users_per_cell": (2, True, 2)}, {"seed": True}])
def test_params_reject_bools_as_integers(field):
    # `True` is an `int`: left through, it built a one-cell layout or failed
    # in `hex_layout` with an untyped TypeError.
    params = ScenarioParams(**{"num_cells": 3, "num_subcarriers": 8,
                               "users_per_cell": 2, **field})
    with pytest.raises(ScenarioValidationError, match=next(iter(field))):
        params.validated()


def test_load_rejects_a_bool_cell_count(tmp_path):
    s = make_scenario(cells=1, subcarriers=3, users=1, seed=0)
    path = tmp_path / "bool.json"
    save_scenario(s, path)
    doc = json.loads(path.read_text())
    doc["params"]["num_cells"] = True
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioValidationError, match="num_cells"):
        load_scenario(path)


def test_params_length_mismatch_rejected():
    with pytest.raises(ScenarioValidationError):
        ScenarioParams(num_cells=3, users_per_cell=(2, 2))


def test_generate_default_shape():
    s = generate_scenario(ScenarioParams(seed=5))
    assert s.gains.shape == (3, 3, 2, 32)
    assert s.noise.shape == (3, 2, 32)
    assert s.bs_positions.shape == (3, 2)
    assert [pts.shape for pts in s.user_positions] == [(2, 2)] * 3
    assert np.isfinite(s.gains).all() and (s.gains > 0).all()


def test_generate_deterministic_and_seed_sensitive():
    a = make_scenario(seed=3)
    b = make_scenario(seed=3)
    c = make_scenario(seed=4)
    assert scenarios_equal(a, b)
    assert not scenarios_equal(a, c)


def test_unit_fades_gain_is_pure_pathloss():
    s = make_scenario(cells=1, subcarriers=4, users=1, seed=9,
                      pathloss_exponent=3.0)
    s = generate_scenario(s.params, unit_fades=True)
    d = np.linalg.norm(s.user_positions[0][0] - s.bs_positions[0])
    assert d >= 1.0
    expected = d ** -3.0
    assert s.gains[0, 0, 0, :] == pytest.approx([expected] * 4, rel=1e-12)


def test_pathloss_monotone_across_cells_without_fades():
    s = generate_scenario(ScenarioParams(num_cells=2, num_subcarriers=2,
                                         users_per_cell=2, seed=2),
                          unit_fades=True)
    for m, u in s.cells_users():
        other = 1 - m
        assert (s.gains[m, m, u, :] > s.gains[other, m, u, :]).all()


def test_hex_layout_spacing_and_prefix():
    r = 40.0
    xy3 = hex_layout(3, r)
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(xy3[i] - xy3[j]) == pytest.approx(2 * r, rel=1e-12)
    xy9 = hex_layout(9, r)
    assert np.allclose(xy9[:3], xy3)
    # ring 1 holds exactly six stations around the origin
    for i in range(1, 7):
        assert np.linalg.norm(xy9[i]) == pytest.approx(2 * r, rel=1e-12)


def test_users_inside_annulus():
    s = make_scenario(cells=2, subcarriers=2, users=30, seed=1, cell_radius=25.0)
    for m in range(2):
        d = np.linalg.norm(s.user_positions[m] - s.bs_positions[m], axis=1)
        assert (d >= 1.0).all() and (d <= 25.0).all()


def test_roundtrip_is_bit_exact(tmp_path):
    s = make_scenario(cells=2, subcarriers=5, users=(2, 3), seed=13,
                      weights=(1.0, 0.25))
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    loaded = load_scenario(path)
    assert scenarios_equal(s, loaded)
    assert loaded.params == s.params


def test_save_is_deterministic(tmp_path):
    s = make_scenario(seed=7, subcarriers=6)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_scenario(s, p1)
    save_scenario(s, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_negative_gain(tmp_path):
    s = make_scenario(cells=2, subcarriers=3, users=1, seed=0)
    path = tmp_path / "bad.json"
    save_scenario(s, path)
    doc = json.loads(path.read_text())
    doc["gains"][0][1][0][2] = -doc["gains"][0][1][0][2]
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioValidationError):
        load_scenario(path)


def test_load_rejects_missing_subcarrier(tmp_path):
    s = make_scenario(cells=2, subcarriers=3, users=1, seed=0)
    path = tmp_path / "short.json"
    save_scenario(s, path)
    doc = json.loads(path.read_text())
    doc["gains"][1][0][0] = doc["gains"][1][0][0][:2]
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioFormatError) as err:
        load_scenario(path)
    assert "gains" in str(err.value)


def test_load_rejects_bad_json_and_missing_fields(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioFormatError) as err:
        load_scenario(path)
    assert "line" in str(err.value)

    path2 = tmp_path / "empty.json"
    path2.write_text("{}")
    with pytest.raises(ScenarioFormatError) as err:
        load_scenario(path2)
    assert "params" in str(err.value)


def test_validate_scenario_reports_indices():
    s = make_scenario(cells=2, subcarriers=3, users=2, seed=4)
    assert scenario_violations(s) == []
    validate_scenario(s)

    gains = s.gains.copy()
    gains[1, 0, 1, 2] = 0.0
    broken = Scenario(params=s.params, bs_positions=s.bs_positions,
                      user_positions=s.user_positions, gains=gains,
                      noise=s.noise)
    bad = scenario_violations(broken)
    assert len(bad) == 1
    assert "l=1" in bad[0] and "m=0" in bad[0] and "u=1" in bad[0] and "n=2" in bad[0]


def test_all_zero_weights_is_one_violation():
    s = make_scenario(cells=2, subcarriers=2, users=1, seed=0)
    import dataclasses
    zero_w = dataclasses.replace(s.params, weights=(0.0, 0.0))
    broken = dataclasses.replace(s, params=zero_w)
    bad = scenario_violations(broken)
    assert len(bad) == 1 and "weights" in bad[0]


def test_heterogeneous_cells_roundtrip(tmp_path):
    s = make_scenario(cells=3, subcarriers=4, users=(2, 3, 1), seed=21)
    assert s.max_users == 3
    assert s.gains.shape == (3, 3, 3, 4)
    path = tmp_path / "hetero.json"
    save_scenario(s, path)
    assert scenarios_equal(s, load_scenario(path))


def test_real_users_mask_is_cached_and_read_only():
    s = make_scenario(cells=3, subcarriers=4, users=(2, 3, 1), seed=21)
    mask = s.real_users
    assert mask is s.real_users
    assert mask.tolist() == [[True, True, False], [True, True, True],
                             [True, False, False]]
    with pytest.raises(ValueError):
        mask[0, 2] = True
    # A replaced scenario builds its own mask from its own parameters.
    swapped = dataclasses.replace(
        s, params=dataclasses.replace(s.params, users_per_cell=(3, 1, 2)))
    assert swapped.real_users is not mask
    assert swapped.real_users.tolist() == [[True, True, True], [True, False, False],
                                           [True, True, False]]
    assert mask.tolist()[0] == [True, True, False]
