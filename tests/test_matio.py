"""JSON matrix/params serialization roundtrips and error mapping."""

import json

import numpy as np
import pytest

from aradius import BoundParams, check_scalar_lemma, replay
from aradius.matio import (
    MatrixFormatError,
    complex_from_pairs,
    complex_to_pairs,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    params_from_obj,
    params_to_obj,
    report_to_obj,
    save_matrix,
)

from conftest import cgauss


def test_complex_pairs_roundtrip(rng):
    m = cgauss(rng, 3, 2)
    m[0, 0] = complex(-0.0, -0.0)  # signed zeros are written as such
    data = complex_to_pairs(m)
    assert json.dumps(data) == json.dumps([[[z.real, z.imag] for z in row] for row in m.tolist()])
    assert '[-0.0, -0.0]' in json.dumps(data)
    back = complex_from_pairs(data)
    assert np.array_equal(back, m)
    assert np.signbit(back[0, 0].real) and np.signbit(back[0, 0].imag)
    assert back.flags.c_contiguous


def test_pairs_promote_vectors_to_columns(rng):
    v = cgauss(rng, 4)
    data = complex_to_pairs(v)
    back = complex_from_pairs(data)
    assert back.shape == (4, 1)
    assert np.array_equal(back[:, 0], v)


def test_complex_from_pairs_rejects_garbage():
    with pytest.raises(MatrixFormatError):
        complex_from_pairs([[[1.0, 2.0], [3.0]], [[1.0, 1.0]]])  # ragged
    with pytest.raises(MatrixFormatError):
        complex_from_pairs([[1.0, 2.0], [3.0, 4.0]])  # not (r, c, 2)
    with pytest.raises(MatrixFormatError):
        complex_from_pairs([[[np.nan, 0.0]]])


def test_matrix_obj_roundtrip(rng):
    m = cgauss(rng, 2, 3)
    obj = matrix_to_obj("W", m)
    assert obj["rows"] == 2 and obj["cols"] == 3 and obj["name"] == "W"
    name, back = matrix_from_obj(obj)
    assert name == "W"
    assert np.array_equal(back, m)


def test_matrix_from_obj_validates_shape(rng):
    obj = matrix_to_obj("W", cgauss(rng, 2, 2))
    obj["rows"] = 3
    with pytest.raises(MatrixFormatError):
        matrix_from_obj(obj)


@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("value", ["x", None, 2.5, float("nan"), True])
def test_matrix_from_obj_names_a_size_that_is_no_integer(rng, field, value):
    obj = matrix_to_obj("W", cgauss(rng, 2, 2))
    assert matrix_from_obj({**obj, field: 2.0})[1].shape == (2, 2)
    with pytest.raises(MatrixFormatError, match=f"'{field}'"):
        matrix_from_obj({**obj, field: value})


def test_file_roundtrip(tmp_path, rng):
    m = cgauss(rng, 3, 3)
    path = tmp_path / "w.json"
    save_matrix(path, "A", m)
    name, back = load_matrix(path)
    assert name == "A"
    assert np.array_equal(back, m)


def test_load_matrix_maps_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(MatrixFormatError):
        load_matrix(bad)
    with pytest.raises(MatrixFormatError):
        load_matrix(tmp_path / "missing.json")


def test_params_roundtrip():
    p = BoundParams(alpha=1.5 - 0.25j, beta=2.0, r=1.5, mu=0.3, lam=0.7, p=3.0)
    obj = params_to_obj(p)
    assert obj["alpha"] == [1.5, -0.25]
    back = params_from_obj(json.loads(json.dumps(obj)))
    assert back == p


def _case():
    return {
        "inequality_id": "jensen",
        "weight": matrix_to_obj("A", np.eye(2)),
        "operands": {"values": [1.0, 4.0]},
        "params": params_to_obj(BoundParams()),
    }


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def _with_params(**fields):
    return lambda case: {**case, "params": {**case["params"], **fields}}


def _with_weight(**fields):
    return lambda case: {**case, "weight": {**case["weight"], **fields}}


MALFORMED = {
    "no id": ("inequality_id", lambda c: _without(c, "inequality_id")),
    "no weight": ("weight", lambda c: _without(c, "weight")),
    "no operands": ("operands", lambda c: _without(c, "operands")),
    "no params": ("params", lambda c: _without(c, "params")),
    "alpha only": ("beta", lambda c: {**c, "params": {"alpha": [2.0, 0.0]}}),
    "no lam": ("lam", lambda c: {**c, "params": _without(c["params"], "lam")}),
    "scalar alpha": ("alpha", _with_params(alpha=2.0)),
    "short alpha": ("alpha", _with_params(alpha=[2.0])),
    "text in alpha": ("alpha", _with_params(alpha=["2", 0.0])),
    "text beta": ("beta", _with_params(beta="1.0")),
    "null r": ("r", _with_params(r=None)),
    "bool p": ("p", _with_params(p=True)),
    "text rows": ("rows", _with_weight(rows="x")),
    "null rows": ("rows", _with_weight(rows=None)),
}


@pytest.mark.parametrize("field, corrupt", MALFORMED.values(), ids=MALFORMED.keys())
def test_replay_names_the_malformed_field(field, corrupt):
    assert replay(_case()).inequality_id == "jensen"
    with pytest.raises(MatrixFormatError, match=f"'{field}'"):
        replay(corrupt(_case()))


def test_report_obj_fields():
    rep = check_scalar_lemma("jensen", [1.0, 4.0])
    obj = report_to_obj(rep)
    assert obj["inequality_id"] == "jensen"
    assert set(obj) == {
        "inequality_id",
        "lhs",
        "rhs",
        "slack",
        "rel_slack",
        "intermediates",
        "hypotheses_ok",
        "params",
    }
    json.dumps(obj)  # fully serializable
