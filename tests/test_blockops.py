"""Two-by-two block assembly and the direct-sum weight."""

import numpy as np
import pytest

from aradius import (
    BlockSpec,
    DimensionMismatch,
    a_numerical_radius,
    assemble,
    classical_numerical_radius,
    dsum_context,
    make_context,
    op_seminorm,
    reduce,
)

from conftest import cgauss, random_context


def test_assemble_antidiag_layout(rng):
    x, y = cgauss(rng, 2, 2), cgauss(rng, 2, 2)
    m = assemble(BlockSpec.antidiag(x, y))
    assert m.shape == (4, 4)
    assert np.allclose(m[:2, 2:], x)
    assert np.allclose(m[2:, :2], y)
    assert np.allclose(m[:2, :2], 0.0)
    assert np.allclose(m[2:, 2:], 0.0)


def test_assemble_diag_and_symmetric(rng):
    x, y = cgauss(rng, 2, 2), cgauss(rng, 2, 2)
    d = assemble(BlockSpec.diag(x, y))
    assert np.allclose(d[:2, :2], x) and np.allclose(d[2:, 2:], y)
    s = assemble(BlockSpec.symmetric(x, y))
    assert np.allclose(s[:2, 2:], y) and np.allclose(s[2:, :2], y)


def test_assemble_full(rng):
    f, x, y, k = (cgauss(rng, 2, 2) for _ in range(4))
    m = assemble(BlockSpec.full(f, x, y, k))
    assert np.allclose(m[:2, :2], f)
    assert np.allclose(m[:2, 2:], x)
    assert np.allclose(m[2:, :2], y)
    assert np.allclose(m[2:, 2:], k)


def test_assemble_rejects_mismatched_blocks(rng):
    with pytest.raises(DimensionMismatch):
        assemble(BlockSpec.antidiag(cgauss(rng, 2, 2), cgauss(rng, 3, 3)))


def test_dsum_context_is_kron(rng):
    ctx = random_context(rng, 3, rank=2)
    ctx2 = dsum_context(ctx, 2)
    assert ctx2.dim == 6
    assert ctx2.rank == 2 * ctx.rank
    assert np.allclose(ctx2.a, np.kron(np.eye(2), ctx.a), atol=1e-13)
    direct = make_context(np.kron(np.eye(2), ctx.a))
    for name in ("a_pinv", "a_half", "a_half_pinv", "range_proj"):
        assert np.allclose(
            getattr(ctx2, name), getattr(direct, name), atol=1e-9
        ), name


# --------------------------------------------------------------------------
# structural identities of the double-size quantities


def test_block_seminorm_is_max_of_parts(rng):
    ctx = random_context(rng, 3, rank=2)
    ctx2 = dsum_context(ctx, 2)
    x, y = cgauss(rng, 3, 3), cgauss(rng, 3, 3)
    expected = max(op_seminorm(ctx, x), op_seminorm(ctx, y))
    for spec in (BlockSpec.diag(x, y), BlockSpec.antidiag(x, y)):
        assert op_seminorm(ctx2, assemble(spec)) == pytest.approx(
            expected, abs=1e-9 * (1 + expected)
        )


def test_block_radius_diag_is_max(rng):
    ctx = random_context(rng, 2)
    ctx2 = dsum_context(ctx, 2)
    x, y = cgauss(rng, 2, 2), cgauss(rng, 2, 2)
    expected = max(a_numerical_radius(ctx, x), a_numerical_radius(ctx, y))
    got = a_numerical_radius(ctx2, assemble(BlockSpec.diag(x, y)))
    assert got == pytest.approx(expected, abs=1e-7 * (1 + expected))


def test_block_radius_antidiag_swap_invariance(rng):
    ctx = random_context(rng, 2, rank=1)
    ctx2 = dsum_context(ctx, 2)
    x, y = cgauss(rng, 2, 2), cgauss(rng, 2, 2)
    w_xy = a_numerical_radius(ctx2, assemble(BlockSpec.antidiag(x, y)))
    w_yx = a_numerical_radius(ctx2, assemble(BlockSpec.antidiag(y, x)))
    assert w_xy == pytest.approx(w_yx, abs=1e-7 * (1 + w_xy))


def test_block_radius_antidiag_phase_invariance(rng):
    ctx = random_context(rng, 2)
    ctx2 = dsum_context(ctx, 2)
    x, y = cgauss(rng, 2, 2), cgauss(rng, 2, 2)
    w = a_numerical_radius(ctx2, assemble(BlockSpec.antidiag(x, y)))
    w_rot = a_numerical_radius(
        ctx2, assemble(BlockSpec.antidiag(x, np.exp(1j * 1.1) * y))
    )
    assert w == pytest.approx(w_rot, abs=1e-7 * (1 + w))


def test_block_radius_symmetric_splits(rng):
    ctx = random_context(rng, 2)
    ctx2 = dsum_context(ctx, 2)
    x, y = cgauss(rng, 2, 2), cgauss(rng, 2, 2)
    expected = max(
        a_numerical_radius(ctx, x + y), a_numerical_radius(ctx, x - y)
    )
    got = a_numerical_radius(ctx2, assemble(BlockSpec.symmetric(x, y)))
    assert got == pytest.approx(expected, abs=1e-7 * (1 + expected))


# --------------------------------------------------------------------------
# reduced coordinates: a block over diag(A, A) reduces blockwise


@pytest.mark.parametrize("kind", ["antidiag", "full"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_of_reduced_blocks_matches_doubled_context(rng, kind, n):
    for rank in range(1, n + 1):
        ctx = random_context(rng, n, rank)
        # kernel-preserving blocks, as every block checker hypothesizes
        f, x, y, k = (cgauss(rng, n, n) @ ctx.range_proj for _ in range(4))
        spec = BlockSpec.antidiag(x, y) if kind == "antidiag" else BlockSpec.full(f, x, y, k)
        red = {name: reduce(ctx, m) for name, m in spec.blocks.items()}
        if kind == "antidiag":
            zero = np.zeros((rank, rank))
            block = np.block([[zero, red["X"]], [red["Y"], zero]])
        else:
            block = np.block([[red["F"], red["X"]], [red["Y"], red["K"]]])
        expected = a_numerical_radius(dsum_context(ctx, 2), assemble(spec))
        got = classical_numerical_radius(block)
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-12), rank


def test_antidiag_radius_two_sided_norm_formula(rng):
    # w([[0, X], [Y, 0]]) = max_t ||e^{it} X + e^{-it} Y*|| / 2 (Hirzallah,
    # Kittaneh and Shebrawi); the norm is Lipschitz in t with constant
    # ||X|| + ||Y||, so a grid of spacing d misses the maximum by at most
    # (||X|| + ||Y||) d / 2.
    grid = 2**16
    d = 2.0 * np.pi / grid
    phase = np.exp(1j * d * np.arange(grid))[:, None, None]
    for n, rank in ((2, 1), (3, 2), (3, 3), (4, 2)):
        ctx = random_context(rng, n, rank)
        x, y = (cgauss(rng, n, n) @ ctx.range_proj for _ in range(2))
        w = a_numerical_radius(dsum_context(ctx, 2), assemble(BlockSpec.antidiag(x, y)))
        xt, yt = reduce(ctx, x), reduce(ctx, y)
        stack = phase * xt + np.conj(phase) * yt.conj().T
        grid_max = float(np.max(np.linalg.svd(stack, compute_uv=False)[:, 0]))
        slack = (op_seminorm(ctx, x) + op_seminorm(ctx, y)) * d / 2.0
        assert grid_max <= 2.0 * w * (1.0 + 1e-12)
        assert 2.0 * w <= grid_max + slack
