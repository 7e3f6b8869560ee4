"""Discretization, stability, and preconditioner tests.

The constant-coefficient operator has a closed eigensystem, so the
assembly oracle is exact: ``h^2 T_h`` must be the (-1, 2, -1) stencil
with eigenvalues ``2 - 2 cos(k pi / (N+1))``, and ``sin(pi x)`` is an
eigenvector whose consistency defect is computable in closed form.
"""

import csv
import math

import numpy as np
import pytest

from aradius import (
    DomainError,
    EllipticSpec,
    InvalidSpec,
    SingularPreconditioner,
    assemble_fd,
    consistency_order,
    convergence_rows,
    make_context,
    preconditioner_report,
    richardson_contraction,
    stability_report,
    truncation_error,
    write_convergence_csv,
)

CONST = EllipticSpec(n_points=9, coeff_a=(1.0,), coeff_c=0.0)


# --------------------------------------------------------------------------
# spec validation and geometry


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_points": 0},
        {"coeff_a": ()},
        {"coeff_c": -1.0},
        {"coeff_c": float("nan")},
        {"domain": (1.0, 1.0)},
        {"domain": (2.0, 1.0)},
        {"domain": (0.0, float("inf"))},
    ],
)
def test_spec_rejects_bad_fields(kwargs):
    with pytest.raises(InvalidSpec):
        EllipticSpec(**kwargs)


def test_spec_grid_geometry():
    spec = EllipticSpec(n_points=4, domain=(1.0, 2.0))
    assert spec.h == pytest.approx(0.2)
    x = spec.grid()
    assert x.shape == (4,)
    assert np.allclose(x, [1.2, 1.4, 1.6, 1.8])


def test_spec_coefficient_polynomial():
    spec = EllipticSpec()  # default diffusion 1 + x^2
    assert spec.a_of(0.0) == pytest.approx(1.0)
    assert spec.a_of(0.5) == pytest.approx(1.25)
    assert np.allclose(spec.a_of([0.0, 1.0]), [1.0, 2.0])


# --------------------------------------------------------------------------
# assembly


def test_assemble_requires_two_interior_points():
    with pytest.raises(InvalidSpec):
        assemble_fd(EllipticSpec(n_points=1))


def test_assemble_rejects_nonelliptic_coefficient():
    with pytest.raises(InvalidSpec):
        assemble_fd(EllipticSpec(n_points=8, coeff_a=(1.0, -4.0)))


def test_assemble_constant_coefficient_stencil():
    t_h, a_h = assemble_fd(CONST)
    scaled = t_h * CONST.h**2
    n = CONST.n_points
    expect = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    assert np.allclose(scaled, expect, atol=1e-12)
    assert np.allclose(a_h, np.eye(n), atol=1e-15)


def test_assemble_constant_coefficient_eigenvalues():
    t_h, _ = assemble_fd(CONST)
    n = CONST.n_points
    got = np.linalg.eigvalsh(t_h * CONST.h**2)
    expect = np.sort(2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.max(np.abs(got - expect)) < 1e-10


def test_assemble_variable_coefficient_structure():
    spec = EllipticSpec(n_points=6)
    t_h, a_h = assemble_fd(spec)
    assert np.allclose(t_h, t_h.T, atol=1e-12)
    band = np.triu(np.abs(t_h), k=2)
    assert np.max(band) == 0.0  # tridiagonal
    x = spec.grid()
    assert np.allclose(np.diag(a_h), spec.a_of(x))
    # off-diagonal entries carry the midpoint coefficient samples
    mids = spec.a_of(x[:-1] + 0.5 * spec.h)
    assert np.allclose(np.diag(t_h, k=1), -mids / spec.h**2)
    # reaction term adds c to every diagonal entry
    t_c, _ = assemble_fd(
        EllipticSpec(n_points=6, coeff_a=spec.coeff_a, coeff_c=3.0)
    )
    assert np.allclose(np.diag(t_c) - np.diag(t_h), 3.0 - spec.coeff_c)


# --------------------------------------------------------------------------
# consistency


def test_truncation_error_constant_coefficient_closed_form():
    # sin(pi x) is an eigenvector of the (-1,2,-1) stencil, so the defect
    # is |(2 - 2cos(pi h))/h^2 - pi^2| times the largest grid sample
    spec = CONST
    h = spec.h
    lam = (2.0 - 2.0 * np.cos(np.pi * h)) / h**2
    expect = abs(lam - np.pi**2) * np.max(np.sin(np.pi * spec.grid()))
    assert truncation_error(spec) == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize(
    "spec",
    [
        CONST,
        EllipticSpec(n_points=8),
        EllipticSpec(n_points=8, coeff_a=(1.0, 1.0), coeff_c=2.0),
        EllipticSpec(n_points=8, coeff_a=(1.0,), coeff_c=0.0, domain=(0.0, 2.0)),
    ],
)
def test_consistency_order_is_second(spec):
    assert 1.7 <= consistency_order(spec) <= 2.3


def test_refined_specs_halve_h():
    from aradius.pde import refined_specs

    specs = refined_specs(EllipticSpec(n_points=8), levels=3)
    assert [s.n_points for s in specs] == [8, 17, 35]
    hs = [s.h for s in specs]
    assert hs[0] == pytest.approx(2 * hs[1], rel=1e-15)
    assert hs[1] == pytest.approx(2 * hs[2], rel=1e-15)


# --------------------------------------------------------------------------
# stability in the coefficient seminorm


def test_stability_report_certifies_solve_bound():
    rep = stability_report(EllipticSpec(n_points=8), samples=50, seed=1)
    assert rep.inequality_id == "pde_stability"
    assert rep.hypotheses_ok
    assert rep.lhs <= rep.rhs + 1e-10
    assert rep.slack >= -1e-10
    inter = rep.intermediates
    assert set(inter) >= {
        "radius_inverse",
        "radius_inverse_sampled",
        "half_sum_bound",
        "seminorm_inverse",
        "sampled_amplification",
        "h",
    }
    assert inter["radius_inverse_sampled"] <= inter["radius_inverse"] + 1e-9
    assert inter["radius_inverse"] <= inter["seminorm_inverse"] + 1e-9
    assert inter["half_sum_bound"] >= inter["radius_inverse"] - 1e-9
    assert rep.rhs == pytest.approx(inter["seminorm_inverse"])


def test_stability_report_zero_samples():
    rep = stability_report(EllipticSpec(n_points=4), samples=0)
    assert rep.lhs == 0.0
    assert rep.rhs > 0.0


def test_stability_report_zero_samples_skips_sampled_radius():
    spec = EllipticSpec(n_points=8)
    bare = stability_report(spec, samples=0).intermediates
    full = stability_report(spec, samples=50).intermediates
    assert "radius_inverse_sampled" not in bare
    assert "radius_inverse_sampled" in full
    for key in ("radius_inverse", "seminorm_inverse", "half_sum_bound"):
        assert bare[key] == full[key]


# --------------------------------------------------------------------------
# preconditioners


def test_jacobi_richardson_contracts_and_decays_monotonically():
    for spec in (EllipticSpec(n_points=8), EllipticSpec(n_points=8, coeff_a=(1.0,), coeff_c=0.0)):
        rep = preconditioner_report(spec, p_kind="jacobi", iterations=25, seed=3)
        assert rep.p_kind == "jacobi"
        assert rep.contractive  # rho < 1
        assert rep.monotone
        assert rep.within_power_bound
        assert len(rep.error_ratios) == 25
        assert rep.error_ratios[-1] < rep.error_ratios[0]


def test_identity_richardson_diverges_on_stiff_operator():
    rep = preconditioner_report(
        EllipticSpec(n_points=8), p_kind="identity", iterations=5, seed=0
    )
    assert rep.rho > 1.0
    assert not rep.contractive
    assert rep.error_ratios[-1] > 1.0


def test_unknown_preconditioner_kind():
    with pytest.raises(InvalidSpec):
        preconditioner_report(EllipticSpec(n_points=4), p_kind="ssor")


def test_singular_preconditioner_detected():
    ctx = make_context(np.eye(3))
    t = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(SingularPreconditioner):
        richardson_contraction(ctx, t, np.zeros((3, 3)))


def test_richardson_rejects_zero_iterations():
    ctx = make_context(np.eye(3))
    t = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        richardson_contraction(ctx, t, t, iterations=0)


def test_perfect_preconditioner_kills_error_immediately():
    ctx = make_context(np.eye(3))
    t = np.diag([1.0, 2.0, 3.0])
    rep = richardson_contraction(ctx, t, t, iterations=4, seed=0)
    assert rep.rho == pytest.approx(0.0, abs=1e-12)
    assert all(r == pytest.approx(0.0, abs=1e-14) for r in rep.error_ratios)
    assert rep.monotone and rep.within_power_bound and rep.contractive


# --------------------------------------------------------------------------
# convergence tables


def test_convergence_rows_shape_and_orders():
    rows = convergence_rows(EllipticSpec(n_points=8), levels=3)
    assert len(rows) == 3
    assert set(rows[0]) == {"N", "h", "norm", "radius", "bound", "observed_order"}
    assert rows[0]["observed_order"] == ""
    for row in rows[1:]:
        assert 1.5 <= row["observed_order"] <= 2.5
    assert [row["N"] for row in rows] == [8, 17, 35]


def test_write_convergence_csv_roundtrip(tmp_path):
    path = tmp_path / "conv.csv"
    spec = EllipticSpec(n_points=4, coeff_a=(1.0,), coeff_c=0.0)
    write_convergence_csv(path, spec, levels=2)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["N"] == "4" and rows[1]["N"] == "9"
    direct = convergence_rows(spec, levels=2)
    assert float(rows[1]["norm"]) == pytest.approx(direct[1]["norm"], rel=1e-12)
    assert float(rows[1]["observed_order"]) == pytest.approx(
        direct[1]["observed_order"], rel=1e-12
    )
    assert math.isclose(float(rows[0]["h"]), spec.h, rel_tol=1e-12)
