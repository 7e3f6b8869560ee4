"""Discretization, stability, and preconditioner tests.

The constant-coefficient operator has a closed eigensystem, so the
assembly oracle is exact: ``h^2 T_h`` must be the (-1, 2, -1) stencil
with eigenvalues ``2 - 2 cos(k pi / (N+1))``, and ``sin(pi x)`` is an
eigenvector whose consistency defect is computable in closed form.
"""

import csv
import math
import threading
import tracemalloc

import numpy as np
import pytest

import aradius.pde as pde_mod
import aradius.semihilbert as semihilbert_mod
from aradius import (
    DIM_CAP,
    ConvergenceFailure,
    DegenerateContext,
    DomainError,
    EllipticSpec,
    InvalidSpec,
    SingularOperator,
    SingularPreconditioner,
    a_adjoint,
    assemble_fd,
    consistency_order,
    convergence_rows,
    a_numerical_radius_lower,
    make_context,
    op_seminorm,
    preconditioner_report,
    preserves_kernel,
    richardson_contraction,
    stability_report,
    truncation_error,
    vec_seminorm,
    write_convergence_csv,
)
from aradius.pde import refined_specs

from conftest import cgauss, radius_lower_reference, random_context, shrink_stream, within

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
        {"n_points": 2.5},
        {"n_points": 8.0},
        {"n_points": "8"},
        {"n_points": True},
        {"coeff_a": (1.0, 0.0, float("inf"))},
        {"coeff_a": (float("-inf"),)},
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


@pytest.mark.parametrize("coeff_a", [(float("nan"),), (1.0, float("nan")), (1.0, -2.0, float("nan"))])
def test_assemble_rejects_a_nan_coefficient(coeff_a):
    # NaN compares false with zero both ways, so it is not positive either
    with pytest.raises(InvalidSpec):
        assemble_fd(EllipticSpec(n_points=8, coeff_a=coeff_a))


@pytest.mark.parametrize(
    "spec",
    [
        EllipticSpec(n_points=400, coeff_a=(1e305,)),
        EllipticSpec(n_points=8, coeff_a=(1e308, 1e308)),
        EllipticSpec(n_points=8, coeff_a=(1e308, -1e308, 1e308)),
    ],
)
def test_assemble_rejects_an_operator_that_overflows(spec):
    # finite coefficients whose samples or stencil overflow, with no warning
    with pytest.raises(InvalidSpec, match="overflows"):
        assemble_fd(spec)
    with pytest.raises(InvalidSpec, match="overflows"):
        stability_report(spec, samples=0)
    with pytest.raises(InvalidSpec, match="overflows"):
        preconditioner_report(spec, "jacobi")


def test_assemble_rejects_more_points_than_the_dense_cap():
    # T_h is dense, so a grid past DIM_CAP raises before anything is
    # allocated, as every other entry point does past the cap
    with pytest.raises(InvalidSpec, match="cap"):
        assemble_fd(EllipticSpec(n_points=DIM_CAP + 1))
    assert assemble_fd(EllipticSpec(n_points=DIM_CAP))[0].shape == (DIM_CAP, DIM_CAP)


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


def test_consistency_order_applies_the_stencil_in_linear_memory():
    # eight levels reach 1151 points, past DIM_CAP: a dense T_h there
    # would take 10.6 MB
    tracemalloc.start()
    try:
        order = consistency_order(EllipticSpec(n_points=8), levels=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1.7 <= order <= 2.3
    assert peak < 2**20


def test_refined_specs_halve_h():
    specs = refined_specs(EllipticSpec(n_points=8), levels=3)
    assert [s.n_points for s in specs] == [8, 17, 35]
    hs = [s.h for s in specs]
    assert hs[0] == pytest.approx(2 * hs[1], rel=1e-15)
    assert hs[1] == pytest.approx(2 * hs[2], rel=1e-15)


@pytest.mark.parametrize("fn", [refined_specs, consistency_order, convergence_rows])
@pytest.mark.parametrize("levels", [0, -2, 2.5, 3.0, "3", True, None])
def test_refinements_take_a_positive_integer_count_of_levels(fn, levels):
    with pytest.raises(InvalidSpec, match="levels"):
        fn(EllipticSpec(n_points=4), levels=levels)


def test_consistency_order_needs_two_levels():
    # one level has no slope; a fit through one point is meaningless
    assert len(refined_specs(EllipticSpec(n_points=4), levels=1)) == 1
    assert len(convergence_rows(EllipticSpec(n_points=4), levels=1)) == 1
    with pytest.raises(InvalidSpec, match="levels"):
        consistency_order(EllipticSpec(n_points=4), levels=1)


# --------------------------------------------------------------------------
# stability in the coefficient seminorm


def test_stability_report_certifies_solve_bound():
    rep = stability_report(EllipticSpec(n_points=8), samples=50, seed=1)
    assert rep.inequality_id == "pde_stability"
    assert rep.hypotheses_ok
    assert rep.lhs <= rep.rhs + 1e-10
    assert rep.slack >= -1e-10
    inter = rep.intermediates
    assert set(inter) == {
        "radius_inverse",
        "radius_inverse_sampled",
        "seminorm_inverse",
        "sampled_amplification",
        "h",
    }
    assert inter["radius_inverse_sampled"] <= inter["radius_inverse"] + 1e-9
    assert inter["radius_inverse"] <= inter["seminorm_inverse"] + 1e-9
    assert rep.rhs == pytest.approx(inter["seminorm_inverse"])


@pytest.mark.parametrize("n", [8, 31])
def test_half_sum_bound_is_the_inverse_seminorm(n):
    # the A-adjoint preserves the seminorm, so the half-sum bound
    # (||T_h^{-1}||_A + ||(T_h^#)^{-1}||_A) / 2 that the anti-diagonal
    # embedding of the inverse satisfies, taken here the long way, is the
    # reported inverse seminorm
    spec = EllipticSpec(n_points=n)
    inter = stability_report(spec, samples=0).intermediates
    t_h, a_h = assemble_fd(spec)
    ctx = make_context(a_h)
    norm_adj_inv = op_seminorm(ctx, np.linalg.inv(a_adjoint(ctx, t_h)))
    half_sum = 0.5 * (op_seminorm(ctx, np.linalg.inv(t_h)) + norm_adj_inv)
    assert inter["seminorm_inverse"] == pytest.approx(half_sum, rel=1e-12)


def test_stability_report_rejects_a_weight_that_vanishes_at_a_node():
    # a(x) = (x - 1/2)^2 is positive at every midpoint but zero at the node
    # x_5 = 1/2, so A_h is singular
    spec = EllipticSpec(n_points=9, coeff_a=(0.25, -1.0, 1.0), coeff_c=0.0)
    assert assemble_fd(spec)[1][4, 4] == 0.0
    with pytest.raises(SingularOperator):
        stability_report(spec)


def test_a_weight_that_vanishes_at_a_node_leaves_the_solve_unbounded():
    # why stability_report rejects such a weight: T_h^{-1} does not map
    # ker(A_h) into itself, so the seminorm of its reduction is exceeded by
    # a right-hand side close to the kernel
    spec = EllipticSpec(n_points=7, coeff_a=(0.25, -1.0, 1.0), coeff_c=1.0)
    t_h, a_h = assemble_fd(spec)
    assert a_h[3, 3] == 0.0
    ctx = make_context(a_h)
    t_inv = np.linalg.inv(t_h)
    assert ctx.rank == 6 and not preserves_kernel(ctx, t_inv)
    reduced = op_seminorm(ctx, t_inv)
    assert reduced == pytest.approx(0.4668, abs=1e-4)
    f = np.eye(7)[3] + 1e-3 * np.eye(7)[0]
    ratio = vec_seminorm(ctx, t_inv @ f) / vec_seminorm(ctx, f)
    assert ratio == pytest.approx(34.47, abs=1e-2)
    assert ratio > 70 * reduced
    with pytest.raises(SingularOperator, match="ker"):
        stability_report(spec)


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
    for key in ("radius_inverse", "seminorm_inverse"):
        assert bare[key] == full[key]


#: diffusion and reaction coefficients of the stacked-sample comparisons
_COEFFS = [((1.0,), 0.0), ((1.0, 0.0, 1.0), 1.0), ((2.0, -1.0, 0.5, 0.3), 3.0)]


def _amplification_reference(spec, samples, seed):
    """Largest ``||T_h^{-1} f||_A / ||f||_A``, one right-hand side at a time; skipped count."""
    t_h, a_h = assemble_fd(spec)
    ctx = make_context(a_h)
    t_inv = np.linalg.inv(t_h)
    rng = np.random.default_rng(seed)
    worst, skipped = 0.0, 0
    for _ in range(samples):
        f = rng.standard_normal(spec.n_points) + 1j * rng.standard_normal(spec.n_points)
        nf = vec_seminorm(ctx, f)
        if nf < 1e-12 * np.sqrt(ctx.lam.max()):
            skipped += 1
            continue
        worst = max(worst, vec_seminorm(ctx, t_inv @ f) / nf)
    return worst, skipped


@pytest.mark.per_family
@pytest.mark.parametrize("n", [8, 9, 31, 64, 127])
def test_stability_report_is_bitwise_the_per_sample_loop(n):
    # the diagonal weight A_h takes the sampled radius's column selection
    for k, (coeff_a, coeff_c) in enumerate(_COEFFS):
        spec = EllipticSpec(n_points=n, coeff_a=coeff_a, coeff_c=coeff_c)
        t_h, a_h = assemble_fd(spec)
        ctx, t_inv = make_context(a_h), np.linalg.inv(t_h)
        for seed, samples in ((0, 100), (9000, (1, 50, 100)[k])):
            rep = stability_report(spec, samples=samples, seed=seed)
            worst = _amplification_reference(spec, samples, seed)[0]
            assert rep.lhs == rep.intermediates["sampled_amplification"] == worst
            sampled = radius_lower_reference(ctx, t_inv, 10000, seed)[0]
            assert rep.intermediates["radius_inverse_sampled"] == sampled


def test_stability_report_reduces_the_inverse_once(monkeypatch):
    # the seminorm, the radius and the sampled radius share one reduction
    reduced = []
    real = semihilbert_mod.reduce

    def counting(ctx, t):
        reduced.append(t)
        return real(ctx, t)

    for mod in (pde_mod, semihilbert_mod):
        monkeypatch.setattr(mod, "reduce", counting)
    for samples in (0, 20):
        reduced.clear()
        stability_report(EllipticSpec(n_points=8), samples=samples)
        assert len(reduced) == 1


def test_stability_report_joins_its_drawing_thread_when_the_radius_fails(monkeypatch):
    # the sampled radius's draws start before the kernel radius, which
    # fails here; the call raises and leaves no thread behind
    def failing(m):
        raise ConvergenceFailure("radius eigensolve failed")

    monkeypatch.setattr(pde_mod, "classical_numerical_radius", failing)
    threads = threading.active_count()
    with pytest.raises(ConvergenceFailure):
        within(30.0, stability_report, EllipticSpec(n_points=127), 100, 1)
    assert threading.active_count() == threads


def test_stability_report_starts_a_thread_only_for_the_sampled_radius(monkeypatch):
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    spec = EllipticSpec(n_points=8)
    stability_report(spec, samples=0)
    convergence_rows(spec, levels=2)
    assert started == []
    stability_report(spec, samples=5)
    assert len(started) == 1
    assert not started[0].is_alive()


def test_stability_report_is_invariant_under_weight_scaling(monkeypatch):
    # the right-hand-side floor and the sampled radius's floor scale with
    # the weight A_h, so c A_h gives the ratio and the radius of A_h
    spec = EllipticSpec(n_points=8)
    base = stability_report(spec, samples=100, seed=2)
    real = assemble_fd
    for c in (1e-26, 1e26):
        monkeypatch.setattr(pde_mod, "assemble_fd", lambda s, c=c: (real(s)[0], c * real(s)[1]))
        rep = stability_report(spec, samples=100, seed=2)
        for key in ("sampled_amplification", "radius_inverse_sampled"):
            assert rep.intermediates[key] == pytest.approx(base.intermediates[key], rel=1e-12)
    monkeypatch.undo()
    # a tiny diffusion coefficient skips no right-hand side
    for seed in (0, 2):
        tiny = EllipticSpec(n_points=8, coeff_a=(2e-26,))
        worst, skipped = _amplification_reference(tiny, 100, seed)
        assert skipped == 0
        assert stability_report(tiny, samples=100, seed=seed).lhs == worst > 0.0


def test_stability_report_skips_right_hand_sides_of_tiny_seminorm(monkeypatch):
    # right-hand sides shrunk 1e15-fold fall below 1e-12 sqrt(max eig A_h)
    # and are skipped, at a tiny diffusion coefficient as at any
    spec = EllipticSpec(n_points=8, coeff_a=(5e-26,), coeff_c=0.0)
    every = stability_report(spec, samples=100, seed=2).lhs
    n, kept = spec.n_points, (0, 17, 99)
    shrunk = np.setdiff1d(np.arange(100), kept)
    # sample s draws its real, then its imaginary part: stream values 2ns to 2n(s + 1)
    shrink_stream(monkeypatch, np.add.outer(2 * n * shrunk, np.arange(2 * n)).ravel(), 1e-15)
    worst, skipped = _amplification_reference(spec, 100, 2)
    assert skipped == len(shrunk)
    assert stability_report(spec, samples=100, seed=2).lhs == worst < every


@pytest.mark.parametrize("samples", [-3, True, np.bool_(False), 2.5, "5", None])
def test_stability_report_rejects_bad_sample_counts(samples):
    with pytest.raises(InvalidSpec, match="samples"):
        stability_report(EllipticSpec(n_points=4), samples=samples)


def test_stability_report_takes_numpy_sample_counts():
    spec = EllipticSpec(n_points=6)
    assert stability_report(spec, samples=np.int64(20)) == stability_report(spec, samples=20)


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


def test_preconditioner_singularity_floor_is_relative():
    # scaling T and P together by a power of two leaves I - P^{-1} T bitwise
    # as it is, so the floor on P's singular values must be relative
    t_h, a_h = assemble_fd(EllipticSpec(n_points=8))
    ctx, jacobi = make_context(a_h), np.diag(np.diag(t_h))
    ref = richardson_contraction(ctx, t_h, jacobi, 10, seed=2)
    for c in (2.0**-70, 2.0**70):
        assert richardson_contraction(ctx, c * t_h, c * jacobi, 10, seed=2) == ref
    with pytest.raises(SingularPreconditioner):
        richardson_contraction(ctx, t_h, 0.0 * jacobi)


def _ratios_reference(ctx, t, p, iterations, seed):
    """Richardson error ratios with one seminorm per step, as a plain loop."""
    m = np.eye(ctx.dim) - np.linalg.solve(
        np.asarray(p, dtype=np.complex128), np.asarray(t, dtype=np.complex128)
    )
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    n0 = vec_seminorm(ctx, e)
    ratios = []
    for _ in range(iterations):
        e = m @ e
        ratios.append(vec_seminorm(ctx, e) / n0)
    return tuple(ratios)


@pytest.mark.per_family
@pytest.mark.parametrize("n", [8, 9, 31, 64, 127])
def test_preconditioner_report_is_bitwise_the_per_step_loop(n):
    for coeff_a, coeff_c in _COEFFS:
        spec = EllipticSpec(n_points=n, coeff_a=coeff_a, coeff_c=coeff_c)
        t_h, a_h = assemble_fd(spec)
        ctx = make_context(a_h)
        for kind, p, iterations in (("jacobi", np.diag(np.diag(t_h)), 25), ("identity", np.eye(n), 5)):
            for seed in (0, 9000):
                rep = preconditioner_report(spec, kind, iterations, seed)
                assert rep.error_ratios == _ratios_reference(ctx, t_h, p, iterations, seed)
                assert type(rep.error_ratios[0]) is float


@pytest.mark.per_family
def test_richardson_on_complex_weights_is_bitwise_the_per_step_loop(rng):
    for dim, rank in ((1, None), (3, 1), (6, None), (20, 9)):
        ctx = random_context(rng, dim, rank)
        t = cgauss(rng, dim, dim) + 3 * dim * np.eye(dim)
        p = np.diag(np.diag(t)) + 0.1 * cgauss(rng, dim, dim)
        rep = richardson_contraction(ctx, t, p, iterations=40, seed=3)
        assert rep.error_ratios == _ratios_reference(ctx, t, p, 40, 3)


def test_richardson_rejects_errors_that_overflow():
    # identity Richardson on a stiff 127-point operator overflows in 100 steps
    with pytest.raises(DomainError, match="non-finite"):
        preconditioner_report(EllipticSpec(n_points=127), "identity", iterations=100)


@pytest.mark.parametrize("iterations", [0, True, np.bool_(True), 2.5, "5", None])
def test_richardson_rejects_bad_iteration_counts(iterations):
    ctx = make_context(np.eye(3))
    t = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(InvalidSpec, match="iterations"):
        richardson_contraction(ctx, t, t, iterations=iterations)
    with pytest.raises(InvalidSpec, match="iterations"):
        preconditioner_report(EllipticSpec(n_points=4), iterations=iterations)


def test_preconditioner_report_stores_numpy_iteration_counts_as_ints():
    rep = preconditioner_report(EllipticSpec(n_points=4), iterations=np.int32(3))
    assert rep.iterations == 3 and type(rep.iterations) is int
    assert rep == preconditioner_report(EllipticSpec(n_points=4), iterations=3)


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


def test_richardson_ratios_do_not_depend_on_the_weight_scale():
    # the starting error's seminorm floor scales with the weight: an
    # absolute 1e-12 once replaced the error of c A_h by all ones at c = 1e-30
    spec = EllipticSpec(n_points=8)
    t_h, a_h = assemble_fd(spec)
    jacobi = np.diag(np.diag(t_h))
    ref = richardson_contraction(make_context(a_h), t_h, jacobi, 5).error_ratios
    for c in (1e-30, 1e30):
        rep = richardson_contraction(make_context(c * a_h), t_h, jacobi, 5)
        assert rep.error_ratios == pytest.approx(ref, rel=1e-12)


def test_richardson_rejects_a_rank_zero_weight():
    t = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateContext, match="rank zero"):
        richardson_contraction(make_context(np.zeros((3, 3))), t, np.eye(3))


# --------------------------------------------------------------------------
# convergence tables


def test_convergence_rows_shape_and_orders():
    rows = convergence_rows(EllipticSpec(n_points=8), levels=3)
    assert len(rows) == 3
    assert set(rows[0]) == {"N", "h", "norm", "radius", "observed_order"}
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
