"""JSON codecs for matrices, bound parameters, and reports.

The matrix schema is ``{"name": str, "rows": int, "cols": int,
"data": [[[re, im], ...], ...]}`` — one ``[re, im]`` pair per entry.
Floats are emitted with Python's shortest-repr decimal encoding, which
round-trips every IEEE double exactly, so write-then-read is bitwise
faithful.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from numbers import Real

import numpy as np

from .inequalities import BoundParams, BoundReport


class MatrixFormatError(ValueError):
    """Matrix JSON (or file containing it) is malformed."""


def complex_to_pairs(m) -> list:
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise MatrixFormatError("matrix data must be two-dimensional")
    return np.stack((arr.real, arr.imag), axis=-1).tolist()


def complex_from_pairs(data) -> np.ndarray:
    try:
        arr = np.array(data, dtype=float, order="C")
    except (TypeError, ValueError) as exc:
        raise MatrixFormatError(f"ragged or non-numeric matrix data: {exc}") from None
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise MatrixFormatError(
            "matrix data must be a non-empty nested array of [re, im] pairs"
        )
    if not np.all(np.isfinite(arr)):
        raise MatrixFormatError("matrix entries must be finite")
    # a view keeps each part's sign; re + 1j * im turns -0.0 into 0.0
    return arr.view(np.complex128)[..., 0]


def matrix_to_obj(name: str, m) -> dict:
    data = complex_to_pairs(m)
    return {"name": str(name), "rows": len(data), "cols": len(data[0]), "data": data}


def _size(obj, field: str) -> int:
    value = obj[field]
    if type(value) is int or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise MatrixFormatError(f"matrix field {field!r} must be an integer, got {value!r}")


def matrix_from_obj(obj) -> tuple[str, np.ndarray]:
    if not isinstance(obj, Mapping):
        raise MatrixFormatError("matrix object must be a JSON mapping")
    for key in ("name", "rows", "cols", "data"):
        if key not in obj:
            raise MatrixFormatError(f"matrix object is missing {key!r}")
    mat = complex_from_pairs(obj["data"])
    if mat.shape != (_size(obj, "rows"), _size(obj, "cols")):
        raise MatrixFormatError(
            f"declared shape {obj['rows']}x{obj['cols']} does not match data "
            f"shape {mat.shape[0]}x{mat.shape[1]}"
        )
    return str(obj["name"]), mat


def load_matrix(path) -> tuple[str, np.ndarray]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(f"invalid JSON in {path}: {exc}") from None
    return matrix_from_obj(obj)


def save_matrix(path, name: str, m) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_obj(name, m), fh, indent=2)
        fh.write("\n")


def params_to_obj(p: BoundParams) -> dict:
    return {
        "alpha": [float(p.alpha.real), float(p.alpha.imag)],
        "beta": float(p.beta),
        "r": float(p.r),
        "mu": float(p.mu),
        "lam": float(p.lam),
        "p": float(p.p),
        "q": float(p.q),
    }


def _number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise MatrixFormatError(f"{field} must be a number, got {value!r}")
    return float(value)


def params_from_obj(obj) -> BoundParams:
    """The parameters of ``obj``; a stored ``q`` is ignored, as ``p`` gives it."""
    if not isinstance(obj, Mapping):
        raise MatrixFormatError("params must be a JSON mapping")
    reals = ("beta", "r", "mu", "lam", "p")
    for key in ("alpha",) + reals:
        if key not in obj:
            raise MatrixFormatError(f"params is missing {key!r}")
    alpha = obj["alpha"]
    if not (isinstance(alpha, (list, tuple)) and len(alpha) == 2):
        raise MatrixFormatError(f"params field 'alpha' must be [re, im], got {alpha!r}")
    re_part, im_part = (_number(v, "params field 'alpha'") for v in alpha)
    return BoundParams(
        alpha=complex(re_part, im_part),
        **{key: _number(obj[key], f"params field {key!r}") for key in reals},
    )


def report_to_obj(rep: BoundReport) -> dict:
    return {
        "inequality_id": rep.inequality_id,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "slack": rep.slack,
        "rel_slack": rep.rel_slack,
        "intermediates": dict(rep.intermediates),
        "hypotheses_ok": rep.hypotheses_ok,
        "params": params_to_obj(rep.params),
    }
