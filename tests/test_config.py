"""Config-document validation: accepted shapes, collected violations with
document paths, and the mode cross-checks."""

import json

import numpy as np
import pytest

from ilcset.config import config_from_dict
from ilcset.errors import DimensionMismatchError, SchemaError
from ilcset.plant import UncertaintySpec


def minimal_doc(**overrides) -> dict:
    doc = {
        "system": {
            "n": 1, "m": 1, "p": 1, "N": 2,
            "A": [["0.5"]], "B": [["1"]], "C": [["1"]], "D": [["1"]],
            "w": ["0"], "v": ["0"], "r": ["1"],
            "x0": [0.0],
        },
        "uncertainty": {"amplitudes": 0.001, "seed": 3},
        "gains": {"Xi": [["0.5"]]},
        "run": {"mode": "direct-xi", "iterations": 5},
    }
    for key, value in overrides.items():
        doc[key] = value
    return doc


def test_minimal_document_builds():
    cfg = config_from_dict(minimal_doc())
    assert (cfg.system.n, cfg.system.m, cfg.system.p, cfg.system.N) == (1, 1, 1, 2)
    assert cfg.system.A.at(1)[0, 0] == 0.5
    assert cfg.uncertainty.amp_A == 0.001
    assert cfg.uncertainty.seed == 3
    assert cfg.xi.at(0)[0, 0] == 0.5
    assert np.all(cfg.gamma.at(0) == 0.0)
    assert cfg.mode == "direct-xi"
    assert cfg.iterations == 5
    assert cfg.record_every == 1
    assert len(cfg.u0) == 3 and all(u.shape == (1, 1) for u in cfg.u0)


def test_vectors_accept_flat_and_nested_rows():
    doc = minimal_doc()
    doc["system"]["w"] = [["0.25"]]
    flat = config_from_dict(minimal_doc())
    nested = config_from_dict(doc)
    assert flat.system.w.at(0)[0, 0] == 0.0
    assert nested.system.w.at(0)[0, 0] == 0.25


def test_numbers_accepted_as_cells():
    doc = minimal_doc()
    doc["system"]["A"] = [[0.5]]
    cfg = config_from_dict(doc)
    assert cfg.system.A.at(2)[0, 0] == 0.5


def test_shape_violation_names_the_field():
    doc = minimal_doc()
    doc["system"]["n"] = 4
    doc["system"]["A"] = [["0"] * 4] * 4
    doc["system"]["w"] = ["0"] * 4
    doc["system"]["x0"] = [0.0] * 4
    doc["system"]["B"] = [["0"] * 3] * 3  # wrong: needs 4 rows, 1 column
    doc["system"]["C"] = [["0"] * 4]
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    assert "/system/B" in str(exc.value)


def test_all_violations_collected_at_once():
    doc = minimal_doc()
    doc["system"]["A"] = [["0.5 +"]]       # parse failure
    doc["system"]["r"] = [["1"], ["2"]]    # wrong shape
    doc["uncertainty"]["seed"] = -1
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    message = str(exc.value)
    assert "/system/A/0/0" in message
    assert "/system/r" in message
    assert "/uncertainty/seed" in message


def test_expression_eval_failures_reported_with_cell():
    doc = minimal_doc()
    doc["system"]["A"] = [["1/(k-1)"]]  # divides by zero at k = 1
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    assert "/system/A/0/0" in str(exc.value)


def test_p_greater_than_m_rejected():
    doc = minimal_doc()
    doc["system"]["p"] = 2
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    assert "/system/p" in str(exc.value)


def test_unknown_mode_rejected():
    with pytest.raises(SchemaError) as exc:
        config_from_dict(minimal_doc(run={"mode": "sideways"}))
    assert "/run/mode" in str(exc.value)


def test_look_ahead_mode_needs_zero_feedthrough():
    doc = minimal_doc(gains={"Gamma": [["0.5"]]},
                      run={"mode": "direct-gamma"})
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    assert "identically zero" in str(exc.value)


def test_look_ahead_mode_needs_repetitive_maps():
    doc = minimal_doc(gains={"Gamma": [["0.5"]]},
                      run={"mode": "direct-gamma"})
    doc["system"]["D"] = [["0"]]
    doc["uncertainty"] = {"amplitudes": {"B": 0.001}}
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    assert "repetitive" in str(exc.value)


def test_look_ahead_mode_accepts_clean_shape():
    doc = minimal_doc(gains={"Gamma": [["0.5"]]},
                      run={"mode": "direct-gamma"})
    doc["system"]["D"] = [["0"]]
    doc["uncertainty"] = {"amplitudes": {"A": 0.001, "w": 0.001}}
    cfg = config_from_dict(doc)
    assert cfg.mode == "direct-gamma"
    assert cfg.uncertainty.amp_B == 0.0


def test_current_error_mode_rejects_look_ahead_gain():
    doc = minimal_doc(gains={"Xi": [["0.5"]], "Gamma": [["0.1"]]})
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    assert "Gamma" in str(exc.value)


def test_repetitive_mode_requires_zero_amplitudes():
    doc = minimal_doc(gains={"Gamma": [["0.5"]]},
                      run={"mode": "repetitive"},
                      uncertainty={"amplitudes": 0.001})
    doc["system"]["D"] = [["0"]]
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    assert "amplitudes" in str(exc.value)


def test_structured_feedthrough_uncertainty_parsed():
    doc = minimal_doc()
    doc["uncertainty"]["structured_D"] = {"E": [["0.1", "0.2"]],
                                          "F": [["1"], ["0.5*cos(k)"]]}
    cfg = config_from_dict(doc)
    sd = cfg.uncertainty.structured_D
    assert sd.E.cols == 2
    assert sd.E.at(0)[0, 1] == 0.2
    assert sd.F.at(0)[1, 0] == 0.5


def test_structured_feedthrough_shape_mismatch():
    doc = minimal_doc()
    doc["uncertainty"]["structured_D"] = {"E": [["0.1", "0.2"]],
                                          "F": [["1"]]}
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    assert "/uncertainty/structured_D/F" in str(exc.value)


def test_structured_feedthrough_failures_name_each_grid():
    doc = minimal_doc()
    doc["uncertainty"]["structured_D"] = {"E": [["1/(k-1)", "0.2"]],
                                          "F": [["1"], ["exp(exp(exp(k)))"]]}
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    message = str(exc.value)
    assert exc.value.path == "/uncertainty/structured_D/E/0/0"
    # F's failure is reported although E failed too.
    assert ("/uncertainty/structured_D/F/1/0: k=2: exp evaluation failed: "
            "math range error") in message
    assert "/uncertainty/structured_D/0/0" not in message


def test_each_problem_path_printed_once():
    doc = minimal_doc()
    doc["system"]["A"] = [["1/(k-1)"]]
    doc["uncertainty"]["seed"] = -1
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    assert exc.value.path == "/system/A/0/0"
    assert str(exc.value) == ("/system/A/0/0: k=1: division by zero (1.0 / 0); "
                              "/uncertainty/seed: expected an integer in [0, 2**64), got -1")


def test_u0_grid_accepted():
    doc = minimal_doc()
    doc["run"]["u0"] = [["0.5*k"]]
    cfg = config_from_dict(doc)
    assert [u[0, 0] for u in cfg.u0] == [0.0, 0.5, 1.0]


def test_defaults_without_optional_sections():
    doc = {"system": minimal_doc()["system"]}
    cfg = config_from_dict(doc)
    assert cfg.uncertainty == UncertaintySpec(seed=0)
    assert cfg.mode == "direct-xi"
    assert cfg.iterations == 300
    assert np.all(cfg.xi.at(0) == 0.0)


def _set_amplitudes(doc, value):
    doc["uncertainty"]["amplitudes"] = value


def _set_amplitude_of_w(doc, value):
    doc["uncertainty"]["amplitudes"] = {"A": 0.001, "w": value}


def _set_x0(doc, value):
    doc["system"]["x0"] = [value]


def _set_cell_of_A(doc, value):
    doc["system"]["A"] = [[value]]


def _set_cell_of_xi(doc, value):
    doc["gains"]["Xi"] = [[value]]


@pytest.mark.parametrize("field, path", [(_set_amplitudes, "/uncertainty/amplitudes"),
                                         (_set_amplitude_of_w, "/uncertainty/amplitudes/w"),
                                         (_set_x0, "/system/x0"),
                                         (_set_cell_of_A, "/system/A/0/0"),
                                         (_set_cell_of_xi, "/gains/Xi/0/0")],
                         ids=["amplitudes", "amplitude-w", "x0", "system-grid", "gains-grid"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 10 ** 400],
                         ids=["nan", "inf", "int-overflow"])
def test_non_finite_number_rejected_at_its_path(field, path, value):
    doc = minimal_doc()
    field(doc, value)
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    assert exc.value.path == path
    assert "finite" in str(exc.value)
    assert len(str(exc.value)) < 200  # 10**400 is not echoed in full


def test_json_non_finite_tokens_rejected_at_their_paths():
    # json.load reads NaN, Infinity and an overflowing literal as floats.
    doc = json.loads(json.dumps(minimal_doc())
                     .replace('"amplitudes": 0.001', '"amplitudes": {"r": NaN, "v": 1e309}')
                     .replace('"x0": [0.0]', '"x0": [-Infinity]'))
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    assert exc.value.path == "/system/x0"
    assert "/uncertainty/amplitudes/r" in str(exc.value)
    assert "/uncertainty/amplitudes/v" in str(exc.value)


def test_json_non_finite_grid_cells_rejected_at_their_paths():
    # A grid cell read as NaN or an infinity is a non-finite number, not
    # the expression text "nan" or "inf".
    doc = json.loads(json.dumps(minimal_doc())
                     .replace('"A": [["0.5"]]', '"A": [[NaN]]')
                     .replace('"w": ["0"]', '"w": [1e309]')
                     .replace('"Xi": [["0.5"]]', '"Xi": [[-Infinity]]'))
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    assert exc.value.path == "/system/A/0/0"
    message = str(exc.value)
    assert "/system/w/0/0: cell must be a string or a finite number, got inf" in message
    assert "/gains/Xi/0/0: cell must be a string or a finite number, got -inf" in message
    assert "identifier" not in message


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_uncertainty_spec_rejects_non_finite_amplitudes(value):
    with pytest.raises(DimensionMismatchError):
        UncertaintySpec(amp_D=value)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70, 10 ** 400],
                         ids=["-1", "2**64", "2**70", "10**400"])
def test_seed_outside_the_philox_key_rejected(seed):
    doc = minimal_doc()
    doc["uncertainty"]["seed"] = seed
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    assert exc.value.path == "/uncertainty/seed"
    assert "[0, 2**64)" in str(exc.value) and len(str(exc.value)) < 200


def test_largest_seed_accepted():
    doc = minimal_doc()
    doc["uncertainty"]["seed"] = 2 ** 64 - 1
    assert config_from_dict(doc).uncertainty.seed == 2 ** 64 - 1


@pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["-1", "2**64"])
def test_uncertainty_spec_rejects_seed_outside_the_key(seed):
    with pytest.raises(DimensionMismatchError):
        UncertaintySpec(seed=seed)


@pytest.mark.parametrize("section, key", [("system", "n"), ("system", "N"),
                                          ("run", "iterations"), ("run", "record_every")])
@pytest.mark.parametrize("value", [np.iinfo(np.intp).max, 2 ** 63, 10 ** 400],
                         ids=["intp-max", "2**63", "10**400"])
def test_count_numpy_cannot_index_rejected_at_its_path(section, key, value):
    # N + 1 steps must be a numpy array dimension too, so the largest
    # intp is one more than any count may be.
    doc = minimal_doc()
    doc[section][key] = int(value)
    with pytest.raises(SchemaError) as exc:
        config_from_dict(doc)
    assert exc.value.path == f"/{section}/{key}"
    assert len(str(exc.value)) < 200


def test_largest_count_accepted():
    doc = minimal_doc()
    doc["run"]["iterations"] = int(np.iinfo(np.intp).max) - 1
    assert config_from_dict(doc).iterations == np.iinfo(np.intp).max - 1
