"""Recomputation audit for the bundled worked-example catalog.

Three small worked examples ship with externally reported values (a
diagonal pair demonstrating sharpness of the refined norm bound, a
rank-one-weight pair exercising the fourth-power anti-diagonal bound,
and an upper/lower-triangular pair used in the application write-up).
The audit recomputes every quantity from first principles with this
toolkit and tabulates reported against computed values.  Block radii are
taken of the assembled block, independently of the checkers' route.

Agreement is informational: several reported rows are arithmetically
inconsistent with their own definitions (wrong adjoints propagate into
wrong norms and radii), so disagreement is an expected outcome, never an
error.  The one thing the audit does certify is that each inequality
itself holds on the recomputed quantities.
"""

from __future__ import annotations

import numpy as np

from .blockops import BlockSpec, assemble, dsum_context
from .inequalities import (
    BoundParams,
    check_matrix_bound,
    optimize_refined_alpha_bound,
)
from .semihilbert import (
    a_adjoint,
    a_numerical_radius,
    make_context,
    op_seminorm,
    preserves_kernel,
)

#: Loose comparison width for reported values quoted to ~3 significant digits.
REPORTED_RTOL = 5e-3


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        rows = []
        for row in np.asarray(value):
            cells = []
            for z in row:
                z = complex(z)
                if abs(z.imag) < 1e-12:
                    cells.append(f"{z.real:.6g}")
                else:
                    cells.append(f"{z.real:.6g}{z.imag:+.6g}j")
            rows.append("[" + ", ".join(cells) + "]")
        return "[" + ", ".join(rows) + "]"
    return f"{float(value):.6g}"


def _agrees(claimed, computed) -> bool:
    if isinstance(claimed, bool) or isinstance(computed, bool):
        return bool(claimed) == bool(computed)
    if isinstance(claimed, np.ndarray) or isinstance(computed, np.ndarray):
        ca = np.asarray(claimed, dtype=np.complex128)
        cb = np.asarray(computed, dtype=np.complex128)
        if ca.shape != cb.shape:
            return False
        scale = max(1.0, float(np.max(np.abs(ca))))
        return float(np.max(np.abs(ca - cb))) <= 1e-9 * scale
    return abs(float(claimed) - float(computed)) <= REPORTED_RTOL * max(
        1.0, abs(float(claimed))
    )


def _row(example, quantity, claimed, computed) -> dict:
    return {
        "example": example,
        "quantity": quantity,
        "claimed": _fmt(claimed),
        "computed": _fmt(computed),
        "agrees": _agrees(claimed, computed),
    }


def _diagonal_rows() -> list[dict]:
    name = "diagonal"
    a = np.diag([1.0, 2.0]).astype(complex)
    x = np.diag([1.0, 2.0]).astype(complex)
    y = np.diag([2.0, 1.0]).astype(complex)
    ctx = make_context(a)
    ctx2 = dsum_context(ctx)
    rows = [
        _row(name, "Y adjoint", y, a_adjoint(ctx, y)),
        _row(name, "seminorm of X", 2.0, op_seminorm(ctx, x)),
        _row(name, "seminorm of Y", 2.0, op_seminorm(ctx, y)),
    ]
    lam_star, bound = optimize_refined_alpha_bound(ctx, x, y)
    rows.append(_row(name, "optimizer lam_star", 0.5, lam_star))
    rows.append(_row(name, "optimized bound", 2.0, bound))
    w_block = a_numerical_radius(ctx2, assemble(BlockSpec.antidiag(x, y)))
    rows.append(_row(name, "block radius", 2.0, w_block))
    rows.append(_row(name, "radius within bound", True, w_block <= bound + 1e-8))
    return rows


def _rank_one_rows() -> list[dict]:
    name = "rank_one_weight"
    j = np.ones((2, 2), dtype=complex)
    x = np.array([[2.0, 1.0], [-1.0, 2.0]], dtype=complex)
    y = np.array([[2.0, 3.0], [1.0, -1.0]], dtype=complex)
    ctx = make_context(j)
    adj_x = a_adjoint(ctx, x)
    adj_y = a_adjoint(ctx, y)
    prod_1 = adj_x @ x + y @ adj_y
    prod_2 = x @ adj_x + adj_y @ y
    rows = [
        _row(name, "weight pseudoinverse", 0.25 * j, ctx.a_pinv),
        _row(name, "X adjoint", 0.75 * j, adj_x),
        _row(name, "Y adjoint", 1.25 * j, adj_y),
        _row(
            name,
            "X#X + YY#",
            0.25 * np.array([[28.0, 34.0], [3.0, 9.0]]),
            prod_1,
        ),
        _row(
            name,
            "XX# + Y#Y",
            0.25 * np.array([[24.0, 19.0], [18.0, 13.0]]),
            prod_2,
        ),
        _row(name, "XY", np.array([[5.0, 5.0], [0.0, -5.0]]), x @ y),
        _row(name, "YX", np.array([[1.0, 8.0], [3.0, -1.0]]), y @ x),
        _row(name, "seminorm of X#X + YY#", 18.741, op_seminorm(ctx, prod_1)),
        _row(name, "seminorm of XX# + Y#Y", 18.668, op_seminorm(ctx, prod_2)),
        _row(name, "radius of XY", 6.03, a_numerical_radius(ctx, x @ y)),
        _row(name, "radius of YX", 11.2, a_numerical_radius(ctx, y @ x)),
        _row(name, "X preserves ker(weight)", True, preserves_kernel(ctx, x)),
        _row(name, "Y preserves ker(weight)", True, preserves_kernel(ctx, y)),
    ]
    rep = check_matrix_bound(
        ctx, "moby_a1", {"X": x, "Y": y}, BoundParams(alpha=2.0, beta=1.0)
    )
    rows.append(_row(name, "delta_1", 0.75, rep.intermediates["delta_1"]))
    rows.append(_row(name, "delta_2", 0.25, rep.intermediates["delta_2"]))
    rows.append(_row(name, "fourth-power bound rhs", 97.214, rep.rhs))
    rows.append(_row(name, "block radius", 2.958, rep.lhs ** 0.25))
    rows.append(_row(name, "slack nonnegative", True, rep.slack >= 0.0))
    return rows


def _triangular_rows() -> list[dict]:
    name = "triangular"
    a = np.diag([2.0, 1.0]).astype(complex)
    x = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    y = np.array([[1.0, 0.0], [0.5, 1.0]], dtype=complex)
    ctx = make_context(a)
    ctx2 = dsum_context(ctx)
    adj_x = a_adjoint(ctx, x)
    adj_y = a_adjoint(ctx, y)
    rows = [
        _row(
            name,
            "Y adjoint",
            np.array([[1.0, 0.5], [0.0, 1.0]]),
            adj_y,
        ),
        _row(name, "seminorm of X", 2.29, op_seminorm(ctx, x)),
    ]
    lam_star, bound = optimize_refined_alpha_bound(ctx, x, y)
    rows.append(_row(name, "optimizer lam_star", 0.5, lam_star))
    rows.append(_row(name, "optimized bound", 2.29, bound))
    w_block = a_numerical_radius(ctx2, assemble(BlockSpec.antidiag(x, y)))
    rows.append(_row(name, "radius within bound", True, w_block <= bound + 1e-8))
    lam_1 = op_seminorm(ctx, adj_y @ y + x @ adj_x)
    w_xy = a_numerical_radius(ctx, x @ y)
    rhs = 3.0 / 16.0 * lam_1**2 + 0.25 * w_xy**2
    rows.append(_row(name, "power sum norm", 46.2128, lam_1))
    rows.append(_row(name, "radius of XY squared", 4.515, w_xy**2))
    rows.append(_row(name, "composite bound rhs", 9.79365, rhs))
    rows.append(
        _row(
            name,
            "fourth power within composite bound",
            True,
            w_block**4 <= rhs + 1e-8,
        )
    )
    return rows


def audit_rows() -> list[dict]:
    """All audit rows: ``example``, ``quantity``, ``claimed``, ``computed``, ``agrees``."""
    return _diagonal_rows() + _rank_one_rows() + _triangular_rows()


def format_audit_table(rows=None) -> str:
    rows = audit_rows() if rows is None else rows
    headers = ("example", "quantity", "claimed", "computed", "agrees")
    table = [
        (
            r["example"],
            r["quantity"],
            r["claimed"],
            r["computed"],
            "yes" if r["agrees"] else "DISAGREES",
        )
        for r in rows
    ]
    widths = [
        max(len(h), *(len(t[i]) for t in table)) for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for t in table:
        lines.append("  ".join(t[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)
