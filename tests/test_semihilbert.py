"""Weighted geometry: contexts, adjoints, reductions, radii."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aradius import (
    NotPositive,
    a_abs_power,
    a_adjoint,
    a_numerical_radius,
    a_numerical_radius_lower,
    classical_numerical_radius,
    is_a_positive,
    is_a_selfadjoint,
    make_context,
    op_seminorm,
    preserves_kernel,
    psd_power,
    reduce,
    semi_inner,
    vec_seminorm,
)

from conftest import a_unit_vector, cgauss, random_context, random_psd


# --------------------------------------------------------------------------
# context construction


def test_identity_context_factors(identity_ctx):
    ctx = identity_ctx
    for factor in (ctx.a, ctx.a_pinv, ctx.a_half, ctx.a_half_pinv, ctx.range_proj):
        assert np.allclose(factor, np.eye(3), atol=1e-13)
    assert ctx.rank == 3
    assert ctx.dim == 3


def test_context_rejects_negative_weight():
    with pytest.raises(NotPositive):
        make_context(np.diag([1.0, -0.5]))


def test_context_rejects_bad_rank_tol():
    with pytest.raises(ValueError):
        make_context(np.eye(2), rank_tol=0.0)


def test_context_factor_identities(rng):
    for rank in (1, 2, 4):
        ctx = random_context(rng, 4, rank)
        assert ctx.rank == rank
        p = ctx.a @ ctx.a_pinv
        assert np.allclose(p, ctx.range_proj, atol=1e-9)
        assert np.allclose(ctx.a_pinv @ ctx.a, ctx.range_proj, atol=1e-9)
        assert np.allclose(ctx.a_half @ ctx.a_half, ctx.a, atol=1e-9)
        assert np.allclose(
            ctx.a_half @ ctx.a_half_pinv, ctx.range_proj, atol=1e-9
        )


def test_context_roundtrips_through_its_weight(rng):
    ctx = random_context(rng, 3)
    ctx2 = make_context(ctx.a)
    assert np.array_equal(ctx.a, ctx2.a)
    assert np.array_equal(ctx.a_half, ctx2.a_half)
    assert np.array_equal(ctx.a_half_pinv, ctx2.a_half_pinv)


def test_zero_weight_context():
    ctx = make_context(np.zeros((3, 3)))
    assert ctx.rank == 0
    assert vec_seminorm(ctx, [1.0, 2.0, 3.0]) == 0.0
    assert op_seminorm(ctx, np.ones((3, 3))) == 0.0
    assert a_numerical_radius(ctx, np.ones((3, 3))) == 0.0
    assert np.array_equal(a_abs_power(ctx, np.ones((3, 3)), 1.5), np.zeros((3, 3)))


def test_context_factors_read_only(identity_ctx):
    with pytest.raises((ValueError, RuntimeError)):
        identity_ctx.a[0, 0] = 5.0


# --------------------------------------------------------------------------
# semi-inner product and seminorms


def test_semi_inner_matches_quadratic_form(rng):
    ctx = random_context(rng, 3)
    x, y = cgauss(rng, 3), cgauss(rng, 3)
    expected = complex(np.vdot(y, ctx.a @ x))
    assert semi_inner(ctx, x, y) == pytest.approx(expected, abs=1e-12)


def test_kernel_vector_has_zero_seminorm(rng):
    ctx = random_context(rng, 3, rank=2)
    k = (np.eye(3) - ctx.range_proj) @ cgauss(rng, 3)
    assert vec_seminorm(ctx, k) < 1e-7


def test_seminorm_scaling(rng):
    ctx = random_context(rng, 4)
    x = cgauss(rng, 4)
    assert vec_seminorm(ctx, 3.0 * x) == pytest.approx(
        3.0 * vec_seminorm(ctx, x), rel=1e-12
    )


# --------------------------------------------------------------------------
# adjoint and reduction


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_adjoint_moves_across_inner_product(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    ctx = random_context(rng, n, rank=int(rng.integers(1, n + 1)))
    # the adjoint moves across the form only when T keeps ker(A) invariant
    t = cgauss(rng, n, n) @ ctx.range_proj
    ts = a_adjoint(ctx, t)
    x, y = cgauss(rng, n), cgauss(rng, n)
    lhs = semi_inner(ctx, t @ x, y)
    rhs = semi_inner(ctx, x, ts @ y)
    assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(lhs)))


def test_double_adjoint_is_range_compression(rng):
    ctx = random_context(rng, 3, rank=2)
    t = cgauss(rng, 3, 3)
    tss = a_adjoint(ctx, a_adjoint(ctx, t))
    p = ctx.range_proj
    assert np.allclose(tss, p @ t @ p, atol=1e-8)


def test_reduce_of_adjoint_is_conjugate_transpose(rng):
    ctx = random_context(rng, 3, rank=2)
    t = cgauss(rng, 3, 3)
    left = reduce(ctx, a_adjoint(ctx, t))
    right = reduce(ctx, t).conj().T
    assert np.allclose(left, right, atol=1e-9)


def test_reduce_multiplicative_on_gram_products(rng):
    ctx = random_context(rng, 4, rank=3)
    y = cgauss(rng, 4, 4)
    ys = a_adjoint(ctx, y)
    yt = reduce(ctx, y)
    assert np.allclose(
        reduce(ctx, ys @ y), yt.conj().T @ yt, atol=1e-8
    )
    assert np.allclose(
        reduce(ctx, y @ ys), yt @ yt.conj().T, atol=1e-8
    )


def test_reduce_is_rank_by_rank(rng):
    for rank in (1, 2, 4):
        ctx = random_context(rng, 4, rank)
        assert reduce(ctx, cgauss(rng, 4, 4)).shape == (rank, rank)


def test_reduction_identities_on_rank_deficient_weights(rng):
    for n, rank in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3)):
        ctx = random_context(rng, n, rank)
        # adjoint identities need no hypothesis: X and Y move ker(A)
        x, y = cgauss(rng, n, n), cgauss(rng, n, n)
        xs = a_adjoint(ctx, x)
        xt, yt = reduce(ctx, x), reduce(ctx, y)
        assert np.allclose(reduce(ctx, xs), xt.conj().T, atol=1e-9)
        assert np.allclose(reduce(ctx, xs @ x), xt.conj().T @ xt, atol=1e-8)
        assert np.allclose(reduce(ctx, x @ xs), xt @ xt.conj().T, atol=1e-8)
        # products reduce multiplicatively once the left factor keeps ker(A)
        xk = x - ctx.range_proj @ x @ (np.eye(n) - ctx.range_proj)
        assert preserves_kernel(ctx, xk)
        assert np.allclose(reduce(ctx, xk @ y), reduce(ctx, xk) @ yt, atol=1e-8)
        # ... and not in general
        assert not np.allclose(reduce(ctx, x @ y), xt @ yt, atol=1e-6)


def test_op_seminorm_is_sup_over_vectors(rng):
    ctx = random_context(rng, 3)
    t = cgauss(rng, 3, 3)
    bound = op_seminorm(ctx, t)
    best = 0.0
    for _ in range(300):
        x = a_unit_vector(ctx, rng)
        best = max(best, vec_seminorm(ctx, t @ x))
    assert best <= bound + 1e-9
    assert best >= 0.9 * bound  # the sup is nearly attained by sampling


def test_identity_weight_reduces_to_classics(rng):
    ctx = make_context(np.eye(4))
    t = cgauss(rng, 4, 4)
    assert np.allclose(reduce(ctx, t), t, atol=1e-12)
    assert np.allclose(a_adjoint(ctx, t), t.conj().T, atol=1e-12)
    assert op_seminorm(ctx, t) == pytest.approx(np.linalg.norm(t, 2), abs=1e-10)
    assert a_numerical_radius(ctx, t) == pytest.approx(
        classical_numerical_radius(t), abs=1e-10
    )


# --------------------------------------------------------------------------
# weighted numerical radius


def test_radius_dominates_quadratic_samples(rng):
    ctx = random_context(rng, 3, rank=2)
    t = cgauss(rng, 3, 3)
    w = a_numerical_radius(ctx, t)
    for _ in range(200):
        x = a_unit_vector(ctx, rng)
        assert abs(semi_inner(ctx, t @ x, x)) <= w + 1e-7


def test_radius_lower_is_a_lower_bound(rng):
    for _ in range(10):
        ctx = random_context(rng, 3)
        t = cgauss(rng, 3, 3)
        w = a_numerical_radius(ctx, t)
        lo = a_numerical_radius_lower(ctx, t, samples=2000, seed=5)
        assert lo <= w + 1e-9


def test_radius_seminorm_sandwich(rng):
    for _ in range(25):
        ctx = random_context(rng, 4, rank=int(rng.integers(1, 5)))
        t = cgauss(rng, 4, 4)
        w = a_numerical_radius(ctx, t)
        s = op_seminorm(ctx, t)
        tol = 1e-8 * max(1.0, s)
        assert 0.5 * s - tol <= w <= s + tol


def test_radius_phase_invariance(rng):
    ctx = random_context(rng, 3)
    t = cgauss(rng, 3, 3)
    w = a_numerical_radius(ctx, t)
    assert a_numerical_radius(ctx, np.exp(1j * 0.7) * t) == pytest.approx(
        w, abs=1e-9
    )


# --------------------------------------------------------------------------
# operator classes and powers


def test_a_abs_power_squares_to_gram(rng):
    ctx = random_context(rng, 3, rank=2)
    t = cgauss(rng, 3, 3)
    tt = reduce(ctx, t)
    # the pullback reduces back to the Gram of the reduction
    left = reduce(ctx, a_abs_power(ctx, t, 2.0))
    assert np.allclose(left, tt.conj().T @ tt, atol=1e-8)
    # power 1 squares to power 2 in the pulled-back picture
    one = a_abs_power(ctx, t, 1.0)
    assert np.allclose(one @ one, a_abs_power(ctx, t, 2.0), atol=1e-7)


def test_is_a_selfadjoint_and_positive(rng):
    ctx = random_context(rng, 3, rank=2)
    proj = ctx.a_half_pinv @ ctx.a_half
    t = cgauss(rng, 3, 3) @ proj  # keeps ker(A) inside itself
    gram = a_adjoint(ctx, t) @ t
    assert is_a_positive(ctx, gram)
    assert is_a_selfadjoint(ctx, gram)
    # a generic complex operator is neither
    raw = cgauss(rng, 3, 3)
    assert not is_a_selfadjoint(ctx, raw)
    assert not is_a_positive(ctx, raw)


def test_preserves_kernel_detects_leak():
    a = np.diag([1.0, 1.0, 0.0])
    ctx = make_context(a)
    leak = np.zeros((3, 3))
    leak[0, 2] = 1.0  # maps ker(A) into ran(A)
    assert not preserves_kernel(ctx, leak)
    keep = np.diag([1.0, 2.0, 3.0])
    assert preserves_kernel(ctx, keep)


def test_full_rank_everything_preserves_kernel(rng):
    ctx = random_context(rng, 3)
    assert preserves_kernel(ctx, cgauss(rng, 3, 3))


def test_a_positive_powers_match_reduced_spectral_calculus(rng):
    ctx = random_context(rng, 3, rank=2)
    t = cgauss(rng, 3, 3)
    gram = a_adjoint(ctx, t) @ t  # A-positive by construction
    red = reduce(ctx, gram)
    sym = 0.5 * (red + red.conj().T)
    assert np.allclose(
        psd_power(sym, 0.5) @ psd_power(sym, 0.5), sym, atol=1e-8
    )
