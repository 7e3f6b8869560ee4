"""Weighted geometry: contexts, adjoints, reductions, radii."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aradius import (
    DegenerateContext,
    DimensionMismatch,
    NotHermitian,
    NotPositive,
    a_abs_power,
    a_adjoint,
    a_numerical_radius,
    a_numerical_radius_lower,
    check_mixed_schwarz,
    check_vector_lemma,
    classical_numerical_radius,
    is_a_positive,
    is_a_selfadjoint,
    make_context,
    op_seminorm,
    preserves_kernel,
    psd_power,
    rank_contexts,
    reduce,
    semi_inner,
    stack_contexts,
    vec_seminorm,
)

import aradius.semihilbert as semihilbert_mod
from aradius.semihilbert import _SAMPLE_BLOCK, RANK_TOL, SemiInnerContext

from conftest import (
    a_unit_vector,
    cgauss,
    half_factors,
    radius_lower_reference,
    random_context,
    random_psd,
    shrink_stream,
    within,
)


# --------------------------------------------------------------------------
# context construction


def test_identity_context_factors(identity_ctx):
    ctx = identity_ctx
    for factor in (ctx.a, ctx.a_pinv, *half_factors(ctx), ctx.range_proj):
        assert np.allclose(factor, np.eye(3), atol=1e-13)
    assert ctx.rank == 3
    assert ctx.dim == 3


def test_context_rejects_negative_weight():
    with pytest.raises(NotPositive):
        make_context(np.diag([1.0, -0.5]))


def test_context_factor_identities(rng):
    for rank in (1, 2, 4):
        ctx = random_context(rng, 4, rank)
        assert ctx.rank == rank
        p = ctx.a @ ctx.a_pinv
        assert np.allclose(p, ctx.range_proj, atol=1e-9)
        assert np.allclose(ctx.a_pinv @ ctx.a, ctx.range_proj, atol=1e-9)
        half, half_pinv = half_factors(ctx)
        assert np.allclose(half @ half, ctx.a, atol=1e-9)
        assert np.allclose(half @ half_pinv, ctx.range_proj, atol=1e-9)


def test_context_roundtrips_through_its_weight(rng):
    ctx = random_context(rng, 3)
    ctx2 = make_context(ctx.a)
    assert np.array_equal(ctx.a, ctx2.a)
    assert np.array_equal(ctx.v_r, ctx2.v_r)
    assert np.array_equal(ctx.sqrt_lam, ctx2.sqrt_lam)


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


def _weight_with_spectrum(rng, vals):
    q, _ = np.linalg.qr(cgauss(rng, len(vals), len(vals)))
    return (q * np.asarray(vals, dtype=float)) @ q.conj().T


def _mixed_rank_weights(rng):
    """Full rank, rank-deficient, eigenvalues just above and below the cutoff, zero."""
    return np.array(
        [
            random_psd(rng, 4),
            random_psd(rng, 4, rank=2),
            _weight_with_spectrum(rng, [1.0, 0.5, 0.25, 3.0 * RANK_TOL]),
            _weight_with_spectrum(rng, [1.0, 0.5, 0.25, 0.3 * RANK_TOL]),
            np.zeros((4, 4), dtype=complex),
            np.eye(4, dtype=complex),
        ]
    )


def _factors_one_by_one(a):
    """The factorization of one weight, computed on its own with plain numpy."""
    sym = 0.5 * (a + a.conj().T)
    vals, vecs = np.linalg.eigh(sym)
    clamped = np.clip(vals, 0.0, None)
    keep = clamped > RANK_TOL * np.max(np.abs(vals))
    return {"a": sym, "v_r": vecs[:, keep], "lam": clamped[keep]}


def _per_weight(groups):
    """Each weight's context, in stack order, from :func:`rank_contexts` groups."""
    rows = {i: ctx.trial(j) for idx, ctx in groups for j, i in enumerate(idx)}
    return [rows[i] for i in range(len(rows))]


def test_stacked_contexts_are_bitwise_each_weight_alone(rng):
    weights = _mixed_rank_weights(rng)
    stacked = _per_weight(rank_contexts(weights))
    assert [ctx.rank for ctx in stacked] == [4, 2, 4, 3, 0, 4]
    for a, ctx in zip(weights, stacked):
        alone = make_context(a)
        reference = _factors_one_by_one(a)
        for field in ("a", "v_r", "lam"):
            got = getattr(ctx, field)
            for want in (getattr(alone, field), reference[field]):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), field
            assert not got.flags.writeable
    # any sub-stack, in any order, gives each weight the same factors
    for ctx, again in zip(stacked[::-1], _per_weight(rank_contexts(weights[::-1]))):
        assert ctx.v_r.tobytes() == again.v_r.tobytes()


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.diag([1.0, 0.5, -0.25, 0.0]).astype(complex), NotPositive),
        (np.triu(np.ones((4, 4), dtype=complex)), NotHermitian),
    ],
)
def test_a_stack_with_a_bad_weight_raises_what_it_raises_alone(rng, bad, error):
    with pytest.raises(error) as alone:
        make_context(bad)
    weights = _mixed_rank_weights(rng)
    weights[3] = bad
    with pytest.raises(error) as stacked:
        rank_contexts(weights)
    assert str(stacked.value) == str(alone.value)


def test_rank_contexts_stack_each_rank_in_one_context(rng):
    # one stacked context per rank, in order of first weight; row j of a
    # group is bitwise the context of weight idx[j] alone
    weights = _mixed_rank_weights(rng)
    groups = rank_contexts(weights)
    assert [(idx, ctx.rank) for idx, ctx in groups] == [
        ([0, 2, 5], 4), ([1], 2), ([3], 3), ([4], 0)
    ]
    for idx, ctx in groups:
        assert ctx.a.shape == (len(idx), 4, 4) and ctx.lam.shape == (len(idx), ctx.rank)
        assert not any(f.flags.writeable for f in (ctx.a, ctx.v_r, ctx.lam))
        for j, i in enumerate(idx):
            alone = make_context(weights[i])
            for field in ("a", "v_r", "lam"):
                got, want = getattr(ctx.trial(j), field), getattr(alone, field)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), field


def test_rank_contexts_takes_a_stack_only(rng):
    with pytest.raises(DimensionMismatch):
        rank_contexts(random_psd(rng, 3))
    assert len(rank_contexts(random_psd(rng, 3)[None])) == 1


def test_semi_inner_matches_quadratic_form(rng):
    ctx = random_context(rng, 3)
    x, y = cgauss(rng, 3), cgauss(rng, 3)
    expected = complex(np.vdot(y, ctx.a @ x))
    assert semi_inner(ctx, x, y) == pytest.approx(expected, abs=1e-12)


@pytest.mark.per_family
@pytest.mark.parametrize("n", [1, 2, 127])
def test_reduced_rows_are_bitwise_one_vector_at_a_time(n):
    # one weight for all rows, or one per row (a stacked context), against a
    # matrix-vector product per vector; then the public forms built on them
    rng = np.random.default_rng(n)
    ctxs = [random_context(rng, n, rank=max(1, n - 1)) for _ in range(5)]
    x, y = cgauss(rng, 5, n), cgauss(rng, 5, n)
    for ctx, each in ((ctxs[0], ctxs[:1] * 5), (stack_contexts(ctxs), ctxs)):
        want = np.array([c.sqrt_lam * (c.v_r.conj().T @ row) for c, row in zip(each, x)])
        assert semihilbert_mod._reduced_rows(ctx, x).tobytes() == want.tobytes()
    ctx = ctxs[0]
    for i in range(5):
        xr, yr = (ctx.sqrt_lam * (ctx.v_r.conj().T @ v[i]) for v in (x, y))
        assert vec_seminorm(ctx, x[i]) == np.linalg.norm(xr[None], axis=1)[0]
        assert semi_inner(ctx, x[i], y[i]) == complex(np.vdot(yr, xr))


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_reduced_forms_are_the_ambient_forms_of_full_rank_weights(n):
    rng = np.random.default_rng(n)
    ctx = random_context(rng, n)
    assert ctx.rank == n
    x, y = cgauss(rng, 8, n), cgauss(rng, 8, n)
    norms = np.linalg.norm(semihilbert_mod._reduced_rows(ctx, x), axis=1)
    for i in range(8):
        nx = np.sqrt(np.vdot(x[i], ctx.a @ x[i]).real)
        ny = np.sqrt(np.vdot(y[i], ctx.a @ y[i]).real)
        assert norms[i] == pytest.approx(nx, rel=1e-12)
        assert vec_seminorm(ctx, x[i]) == pytest.approx(nx, rel=1e-12)
        assert abs(semi_inner(ctx, x[i], y[i]) - np.vdot(y[i], ctx.a @ x[i])) <= 1e-12 * nx * ny


def test_vec_seminorm_and_the_checkers_agree_on_unit_vectors():
    # the rank decision drops the eigenvalue 9e-11, so [0, 1] spans the
    # kernel and a vector of unit seminorm passes the checkers' unit test
    ctx = make_context(np.diag([1.0, 9e-11]))
    assert ctx.rank == 1
    assert vec_seminorm(ctx, [0.0, 1.0]) == 0.0
    e = np.array([1e-3, 1.0]) / vec_seminorm(ctx, [1e-3, 1.0])
    assert vec_seminorm(ctx, e) == 1.0
    rep = check_vector_lemma(ctx, "buz_half", [1.0, 0.5], [0.25, 1.0], e)
    assert rep.lhs <= rep.rhs


@pytest.mark.per_family
def test_seminorms_of_vectors_near_the_kernel_scale_at_extreme_scales():
    # a rank-2 weight on C^4 in a random basis, and vectors that are a kernel
    # part plus 1e-9 times a range part: the ambient form x* A x is then
    # dominated by rounding, and its imaginary part by nothing real
    rng = np.random.default_rng(27)
    q = np.linalg.qr(cgauss(rng, 4, 4))[0]
    a = (q[:, :2] * [1.0, 2.0]) @ q[:, :2].conj().T
    x = cgauss(rng, 200, 2) @ q[:, 2:].T + 1e-9 * cgauss(rng, 200, 2) @ q[:, :2].T
    ctx = make_context(a)
    base = [vec_seminorm(ctx, v) for v in x]
    for j in (-35, 0, 35):
        scaled = make_context(4.0**j * a)
        for v, norm in zip(x, base):
            assert vec_seminorm(scaled, v) == pytest.approx(2.0**j * norm, rel=1e-15)
            assert vec_seminorm(ctx, 2.0**j * v) == pytest.approx(2.0**j * norm, rel=1e-15)


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


@pytest.mark.per_family
def test_radius_lower_is_a_lower_bound(rng):
    for _ in range(10):
        ctx = random_context(rng, 3)
        t = cgauss(rng, 3, 3)
        w = a_numerical_radius(ctx, t)
        lo = a_numerical_radius_lower(ctx, t, samples=2000, seed=5)
        assert lo <= w + 1e-9


@pytest.mark.per_family
@pytest.mark.parametrize(
    "samples", [1, 2, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 2 * _SAMPLE_BLOCK + 2, 10000]
)
@pytest.mark.parametrize("dim,rank", [(3, 3), (3, 1), (40, 40), (40, 17)])
def test_radius_lower_streams_bitwise_the_whole_array_bound(samples, dim, rank):
    rng = np.random.default_rng(100 * dim + rank)
    ctx = random_context(rng, dim, rank if rank < dim else None)
    t = cgauss(rng, dim, dim)
    seed = int(rng.integers(2**32))
    assert a_numerical_radius_lower(ctx, t, samples, seed) == (
        radius_lower_reference(ctx, t, samples, seed)[0]
    )


#: diagonal weights: full rank, with zero entries, rank one, and n = 1
_DIAGONAL_WEIGHTS = {
    "full": np.linspace(0.5, 2.0, 6),
    "zeros": np.array([1.5, 0.0, 0.25, 0.0, 3.0, 1.0]),
    "rank1": np.array([0.0, 0.0, 2.0, 0.0]),
    "n1": np.array([0.7]),
}


def _count_takes(monkeypatch) -> list:
    """Record each ``np.take`` call, the sampled radius's column selection."""
    calls, take = [], np.take
    monkeypatch.setattr(np, "take", lambda *args, **kw: calls.append(args) or take(*args, **kw))
    return calls


@pytest.mark.per_family
@pytest.mark.parametrize(
    "samples", [1, 2, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 2 * _SAMPLE_BLOCK + 2, 10000]
)
@pytest.mark.parametrize("kind", sorted(_DIAGONAL_WEIGHTS))
def test_radius_lower_selects_columns_of_diagonal_weights_bitwise(kind, samples, monkeypatch):
    diag = _DIAGONAL_WEIGHTS[kind]
    dim = len(diag)
    ctx = make_context(np.diag(diag))
    rng = np.random.default_rng(dim + samples)
    ops = (cgauss(rng, dim, dim), rng.standard_normal((dim, dim)))
    expected = [radius_lower_reference(ctx, t, samples, 11)[0] for t in ops]
    threads = threading.active_count()
    taken = _count_takes(monkeypatch)
    assert [a_numerical_radius_lower(ctx, t, samples, 11) for t in ops] == expected
    assert len(taken) == 2 * len(range(0, max(samples - 1, 1), _SAMPLE_BLOCK))
    assert threading.active_count() == threads


@pytest.mark.per_family
@pytest.mark.parametrize("entries,blocks_taken", [((-1.0, 1.0, -1.0, -1.0), 3), ((1j, 1.0, -1.0, 1.0), 0)])
def test_radius_lower_selects_signed_permuted_columns_bitwise(entries, blocks_taken, monkeypatch):
    # eigenvectors +-e_k in a shuffled order: the selection takes each
    # column's row and sign; a unit entry that is not +-1 (i e_3) takes
    # the product instead
    lam = np.array([0.5, 2.0, 1.25, 3.0])
    v_r = np.zeros((5, 4), complex)
    v_r[[3, 0, 4, 1], np.arange(4)] = entries
    ctx = SemiInnerContext(a=(v_r * lam) @ v_r.conj().T, v_r=v_r, lam=lam)
    t = cgauss(np.random.default_rng(8), 5, 5)
    samples = 2 * _SAMPLE_BLOCK + 2
    expected = radius_lower_reference(ctx, t, samples, 5)[0]
    taken = _count_takes(monkeypatch)
    assert a_numerical_radius_lower(ctx, t, samples, 5) == expected
    assert len(taken) == blocks_taken


@pytest.mark.per_family
def test_radius_lower_multiplies_real_dense_weights_bitwise(monkeypatch):
    rng = np.random.default_rng(23)
    g = rng.standard_normal((5, 5))
    ctx = make_context(g @ g.T + 0.1 * np.eye(5))
    t = rng.standard_normal((5, 5))
    samples = 2 * _SAMPLE_BLOCK + 2
    expected = radius_lower_reference(ctx, t, samples, 3)[0]
    taken = _count_takes(monkeypatch)
    assert a_numerical_radius_lower(ctx, t, samples, 3) == expected
    assert taken == []


class _StreamBroke(Exception):
    pass


_DEFAULT_RNG = np.random.default_rng


class _BreakingStream:
    """numpy's normal stream of ``seed`` that raises on its ``after``-th draw (from zero)."""

    def __init__(self, seed, after: int):
        self._rng = _DEFAULT_RNG(seed)
        self._left = after

    def standard_normal(self, size):
        if self._left == 0:
            raise _StreamBroke("stream broke")
        self._left -= 1
        return self._rng.standard_normal(size)


@pytest.mark.per_family
@pytest.mark.parametrize("after", range(5))
def test_radius_lower_reraises_a_stream_that_breaks_partway(after, monkeypatch):
    # 4 * BLOCK + 10 samples are five blocks, one draw each
    ctx = make_context(np.diag([1.0, 2.0, 3.0]))
    threads = threading.active_count()
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _BreakingStream(seed, after))
    with pytest.raises(_StreamBroke, match="stream broke"):
        within(30.0, a_numerical_radius_lower, ctx, np.eye(3), 4 * _SAMPLE_BLOCK + 10, 1)
    assert threading.active_count() == threads


@pytest.mark.per_family
def test_radius_lower_stops_its_drawing_thread_when_the_caller_raises(monkeypatch):
    # the caller fails on its second block while the drawing thread waits
    # to pass on more of the 10000 samples
    ctx = make_context(np.diag([1.0, 2.0, 3.0]))
    project = semihilbert_mod._projection(ctx)
    calls = []

    def failing(g):
        calls.append(1)
        if len(calls) == 2:
            raise _StreamBroke("caller broke")
        return project(g)

    monkeypatch.setattr(semihilbert_mod, "_projection", lambda ctx: failing)
    threads = threading.active_count()
    with pytest.raises(_StreamBroke, match="caller broke"):
        within(30.0, a_numerical_radius_lower, ctx, np.eye(3), 10000, 1)
    assert threading.active_count() == threads


class _CountingStream:
    """numpy's normal stream of ``seed`` that counts its draws."""

    def __init__(self, seed):
        self._rng = _DEFAULT_RNG(seed)
        self.draws = 0

    def standard_normal(self, size):
        self.draws += 1
        return self._rng.standard_normal(size)


@pytest.mark.per_family
def test_radius_lower_draws_at_most_two_blocks_ahead(monkeypatch):
    # the memory bound: when block i is projected, blocks i + 1 and i + 2
    # at most have been drawn besides its own.  The first projection waits,
    # so the drawing thread runs as far ahead as it is allowed to
    ctx = make_context(np.diag([1.0, 2.0, 3.0]))
    blocks = 8
    samples = blocks * _SAMPLE_BLOCK
    expected = radius_lower_reference(ctx, np.eye(3), samples, 1)[0]
    stream = _CountingStream(1)
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: stream)
    project = semihilbert_mod._projection(ctx)
    drawn = []

    def counting(g):
        if not drawn:
            time.sleep(0.1)
        drawn.append(stream.draws)
        return project(g)

    monkeypatch.setattr(semihilbert_mod, "_projection", lambda ctx: counting)
    assert within(30.0, a_numerical_radius_lower, ctx, np.eye(3), samples, 1) == expected
    assert len(drawn) == blocks
    assert all(count <= i + 3 for i, count in enumerate(drawn)), drawn


@pytest.mark.per_family
def test_radius_lower_holds_its_bits_under_frequent_thread_switches(rng):
    # a short switch interval interleaves the drawing thread and the
    # caller at many more points; every call keeps the reference's bits
    ctx = random_context(rng, 4, 3)
    t = cgauss(rng, 4, 4)
    samples = 3 * _SAMPLE_BLOCK + 1
    expected = [radius_lower_reference(ctx, t, samples, seed)[0] for seed in range(6)]
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [a_numerical_radius_lower(ctx, t, samples, seed) for seed in range(6)]
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert threading.active_count() == threads


@pytest.mark.per_family
def test_radius_lower_joins_a_lone_last_row_to_its_block():
    # the reference's best sample is the last of BLOCK + 1, whose projection
    # alone rounds differently from the block's under each recorded OpenBLAS
    # kernel family
    rng = np.random.default_rng(16)
    ctx = random_context(rng, 16, 8)
    t = cgauss(rng, 16, 16)
    samples, seed = _SAMPLE_BLOCK + 1, 7474
    parts = np.random.default_rng(seed).standard_normal((samples, 2, 16))
    g = parts[:, 0] + 1j * parts[:, 1]
    y = (g @ ctx.v_r.conj()) * ctx.sqrt_lam
    quot = np.abs(np.sum(np.conj(y) * (y @ reduce(ctx, t).T), axis=1)) / np.sum(np.abs(y) ** 2, axis=1)
    assert np.argmax(quot) == samples - 1
    assert a_numerical_radius_lower(ctx, t, samples, seed) == float(quot[-1])


@pytest.mark.per_family
def test_radius_lower_is_invariant_under_weight_scaling(rng):
    # the sample floor scales with the weight: c A keeps every sample and
    # gives the bound of A, at weights far below and above 1
    ctx = random_context(rng, 3, 2)
    t = cgauss(rng, 3, 3)
    samples = 2 * _SAMPLE_BLOCK + 100
    value = a_numerical_radius_lower(ctx, t, samples, seed=4)
    for c in (1e-26, 3e-25, 1e26):
        scaled = make_context(c * ctx.a)
        got = a_numerical_radius_lower(scaled, t, samples, seed=4)
        assert (got, samples) == radius_lower_reference(scaled, t, samples, 4)
        assert got == pytest.approx(value, rel=1e-12)


@pytest.mark.per_family
def test_radius_lower_drops_samples_below_the_global_floor(rng, monkeypatch):
    # samples shrunk 1e13-fold fall below 1e-24 times the largest |y|^2
    # and are dropped, at a weight of 3e-25 as at any scale; of the three
    # kept, the last is the lone last row that joins the block before it
    dim, samples = 3, 2 * _SAMPLE_BLOCK + 100
    ctx = make_context(3e-25 * np.eye(dim))
    t = cgauss(rng, dim, dim)
    every = a_numerical_radius_lower(ctx, t, samples, seed=4)
    kept = (1, _SAMPLE_BLOCK + 1, samples - 1)
    shrunk = np.setdiff1d(np.arange(samples), kept)
    # sample s holds stream positions 2 dim s + [0, 2 dim): its real part,
    # then its imaginary part
    where = np.add.outer(2 * dim * shrunk, np.arange(2 * dim)).ravel()
    shrink_stream(monkeypatch, where, 1e-13)
    value, n_kept = radius_lower_reference(ctx, t, samples, 4)
    assert n_kept == len(kept)
    assert a_numerical_radius_lower(ctx, t, samples, seed=4) == value < every


@pytest.mark.per_family
@pytest.mark.parametrize("weight,match", [(np.zeros((3, 3)), "rank zero")])
def test_radius_lower_raises_on_degenerate_weights(weight, match):
    with pytest.raises(DegenerateContext, match=match):
        a_numerical_radius_lower(make_context(weight), np.eye(3), 2 * _SAMPLE_BLOCK + 100, seed=4)


@pytest.mark.per_family
@pytest.mark.parametrize("samples", [0, -3, True, np.bool_(True), 2.5, "5", None])
def test_radius_lower_rejects_bad_sample_counts(samples):
    ctx = make_context(np.eye(2))
    with pytest.raises(ValueError, match="samples"):
        a_numerical_radius_lower(ctx, np.eye(2), samples)


@pytest.mark.per_family
def test_radius_lower_takes_numpy_sample_counts(rng):
    ctx = random_context(rng, 3)
    t = cgauss(rng, 3, 3)
    assert a_numerical_radius_lower(ctx, t, np.int64(700), 3) == a_numerical_radius_lower(ctx, t, 700, 3)


@pytest.mark.per_family
def test_radius_lower_holds_a_few_blocks_of_samples_at_any_count(rng):
    # the memory is a few blocks of complex samples, whatever their count:
    # one (samples, dim) array of 10000 x 127 float64 would be 10.2 MB
    dim = 127
    ctx = make_context(np.diag(np.linspace(1.0, 2.0, dim)))
    t = cgauss(rng, dim, dim)
    peaks = []
    for samples in (10000, 40000):
        tracemalloc.start()
        try:
            a_numerical_radius_lower(ctx, t, samples, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20, peaks
    assert max(peaks) < 8 * _SAMPLE_BLOCK * dim * 16, peaks


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
    half, half_pinv = half_factors(ctx)
    proj = half_pinv @ half
    t = cgauss(rng, 3, 3) @ proj  # keeps ker(A) inside itself
    gram = a_adjoint(ctx, t) @ t
    assert is_a_positive(ctx, gram)
    assert is_a_selfadjoint(ctx, gram)
    # a generic complex operator is neither
    raw = cgauss(rng, 3, 3)
    assert not is_a_selfadjoint(ctx, raw)
    assert not is_a_positive(ctx, raw)


def test_stacked_contexts_reduce_and_test_kernel_per_trial(rng):
    ctxs = [random_context(rng, 4, rank=2) for _ in range(3)]
    ops = [cgauss(rng, 4, 4) for _ in ctxs]
    # the second operand keeps ker(A) inside itself, the others need not
    ops[1] = ops[1] - ctxs[1].range_proj @ ops[1] @ (np.eye(4) - ctxs[1].range_proj)
    stacked = stack_contexts(ctxs)
    assert stacked.dim == 4 and stacked.rank == 2
    red = reduce(stacked, np.stack(ops))
    assert red.shape == (3, 2, 2)
    for c, t, r in zip(ctxs, ops, red):
        assert np.allclose(r, reduce(c, t), rtol=1e-14, atol=0.0)
    kept = preserves_kernel(stacked, np.stack(ops))
    assert kept.tolist() == [preserves_kernel(c, t) for c, t in zip(ctxs, ops)]
    assert kept.tolist() == [False, True, False]
    kept_ops = [t - c.range_proj @ t @ (np.eye(4) - c.range_proj) for c, t in zip(ctxs, ops)]
    grams = np.stack([a_adjoint(c, t) @ t for c, t in zip(ctxs, kept_ops)])
    grams[2] = -grams[2]
    assert is_a_selfadjoint(stacked, grams).tolist() == [True, True, True]
    assert is_a_positive(stacked, grams).tolist() == [True, True, False]
    assert is_a_positive(stacked, np.stack(ops)).tolist() == [
        is_a_positive(c, t) for c, t in zip(ctxs, ops)
    ]
    with pytest.raises(DimensionMismatch):
        stack_contexts([ctxs[0], random_context(rng, 4, rank=3)])


@pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
def test_stacked_context_derives_each_trials_factors_bitwise(rng, rank):
    # the derived factors of a stack are those each trial derives alone
    if rank:
        ctxs = [random_context(rng, 4, rank=rank) for _ in range(3)]
    else:
        ctxs = [make_context(np.zeros((4, 4))) for _ in range(3)]
    stacked = stack_contexts(ctxs)
    assert stacked.rank == rank
    for name in ("a_pinv", "range_proj", "sqrt_lam"):
        derived = getattr(stacked, name)
        for i, c in enumerate(ctxs):
            assert np.array_equal(derived[i], getattr(c, name)), (name, i)


def test_preserves_kernel_detects_leak():
    a = np.diag([1.0, 1.0, 0.0])
    ctx = make_context(a)
    leak = np.zeros((3, 3))
    leak[0, 2] = 1.0  # maps ker(A) into ran(A)
    assert not preserves_kernel(ctx, leak)
    keep = np.diag([1.0, 2.0, 3.0])
    assert preserves_kernel(ctx, keep)
    assert preserves_kernel(ctx, np.stack([leak, keep])).tolist() == [False, True]


@pytest.mark.per_family
@pytest.mark.parametrize(
    "scale",
    [1.0, 1e-6, 1e-9, 1e-12, 1e160, 1e-160, 1e200, 1e-200, 2.0**600, 2.0**-600]
    + [2.0**1022, 5e307],
)
def test_structural_verdicts_do_not_depend_on_scale(scale):
    # every verdict is the one at scale 1: the tolerances are relative.  At
    # the last two scales A T + (A T)* and A T - (A T)* would overflow
    ctx = make_context(np.diag([1.0, 0.0]))
    leak = scale * np.array([[0.0, 1.0], [0.0, 0.0]])  # maps ker(A) onto ran(A)
    assert not preserves_kernel(ctx, leak)
    assert not is_a_selfadjoint(ctx, leak)
    assert not is_a_positive(ctx, leak)
    negative = scale * np.diag([-1.0, 3.0])  # A-selfadjoint, not A-positive
    assert is_a_selfadjoint(ctx, negative)
    assert not is_a_positive(ctx, negative)
    keep = scale * np.diag([2.0, 3.0])
    assert preserves_kernel(ctx, keep)
    assert is_a_selfadjoint(ctx, keep)
    assert is_a_positive(ctx, keep)
    zero = np.zeros((2, 2))
    assert preserves_kernel(ctx, zero) and is_a_positive(ctx, zero)
    with pytest.raises(NotHermitian):
        make_context(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert make_context(scale * np.diag([1.0, 3.0])).rank == 2
    skew = scale * np.array([[0.0, 2.0], [-2.0, 0.0]])  # [[0, 1e308], [-1e308, 0]] at 5e307
    assert not is_a_selfadjoint(make_context(np.eye(2)), skew)
    large = make_context(np.diag([scale, 1.0]))  # A T itself overflows from 1e160 on
    assert is_a_selfadjoint(large, keep) and is_a_positive(large, keep)


@pytest.mark.parametrize(
    "layout", [np.asfortranarray, lambda a: a.real.astype(np.int64)], ids=["fortran", "integer"]
)
def test_structural_verdicts_of_hand_built_weights(layout):
    # a hand-built context may hold a Fortran-ordered or an integer weight;
    # its verdicts are make_context's, with no warning
    weight = np.array([[2, 1, 0], [1, 1, 0], [0, 0, 0]])
    ctx = make_context(weight)
    built = SemiInnerContext(a=layout(ctx.a), v_r=ctx.v_r, lam=ctx.lam)
    x, y = np.array([1.0, 2.0, 0.5]), np.array([0.0, 1.0, 1.0j])
    operators = [
        weight @ weight + 2 * weight,  # commutes with A, A-positive
        np.diag([1.0, -2.0, 1.0]),  # neither
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),  # maps ker(A) onto ran(A)
    ]
    for t in operators:
        assert is_a_positive(built, t) == is_a_positive(ctx, t)
        assert is_a_selfadjoint(built, t) == is_a_selfadjoint(ctx, t)
        ours, theirs = check_mixed_schwarz(built, t, x, y), check_mixed_schwarz(ctx, t, x, y)
        assert ours.hypotheses_ok == theirs.hypotheses_ok
    assert [is_a_positive(ctx, t) for t in operators] == [True, False, False]
    assert [check_mixed_schwarz(ctx, t, x, y).hypotheses_ok for t in operators] == [True, False, False]


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
