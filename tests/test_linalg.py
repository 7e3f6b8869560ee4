"""Dense kernel: validation, factorizations, spectral quantities."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aradius import (
    DIM_CAP,
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    EllipticSpec,
    NonSquare,
    NotHermitian,
    NotPSD,
    a_numerical_radius,
    antidiagonal_radius,
    as_matrix,
    as_stack,
    as_vector,
    assemble_fd,
    classical_numerical_radius,
    hermitian_eig,
    make_context,
    psd_power,
    reduce,
    spectral_norm,
)

from aradius.linalg import _GRID, _GRID_BYTES, _refined_radius, as_vectors

from conftest import (
    cgauss,
    oracle_radius,
    oracle_radius_grid,
    oracle_spectral_norm,
)


# --------------------------------------------------------------------------
# coercion and validation


def test_as_matrix_accepts_lists_and_casts():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.flags["C_CONTIGUOUS"]


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        as_matrix([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(NonSquare):
        as_matrix(np.zeros((2, 3)), square=True)
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros((DIM_CAP + 1, DIM_CAP + 1)))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(DomainError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])


def test_as_stack_keeps_ndim_and_rejects_bad_shapes():
    assert as_stack(np.eye(2)).shape == (2, 2)
    assert as_stack(np.zeros((3, 2, 2))).shape == (3, 2, 2)
    with pytest.raises(DimensionMismatch):
        as_stack(np.zeros((1, 2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        as_stack(np.zeros((0, 2, 2)))
    with pytest.raises(NonSquare):
        as_stack(np.zeros((3, 2, 3)), square=True)
    with pytest.raises(DomainError):
        as_stack(np.stack([np.eye(2), np.full((2, 2), np.nan)]))


def test_as_vector_shape_and_dim():
    v = as_vector([1.0, 2.0, 3.0])
    assert v.shape == (3,)
    with pytest.raises(DimensionMismatch):
        as_vector([1.0, 2.0], dim=3)


def test_as_vectors_stacks_what_as_vector_accepts(rng):
    xs = [cgauss(rng, 3), cgauss(rng, 3, 1), cgauss(rng, 1, 3), [1.0, 2.0, 3.0]]
    stack = as_vectors(xs, dim=3)
    assert stack.dtype == np.complex128 and stack.shape == (4, 3)
    for row, x in zip(stack, xs):
        assert row.tobytes() == as_vector(x, dim=3).tobytes()


@pytest.mark.parametrize(
    "bad, error",
    [
        ([1.0, 2.0], DimensionMismatch),
        (np.ones((3, 3)), DimensionMismatch),
        ([1.0, np.nan, 0.0], DomainError),
        ([1.0, np.inf, 0.0], DomainError),
    ],
)
def test_as_vectors_raises_what_as_vector_raises(rng, bad, error):
    with pytest.raises(error) as alone:
        as_vector(bad, dim=3)
    with pytest.raises(error) as stacked:
        as_vectors([cgauss(rng, 3), bad, cgauss(rng, 3)], dim=3)
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)


@pytest.mark.per_family
def test_hermitian_eig_of_a_stack_is_bitwise_each_matrix_alone(rng):
    mats = np.array([(g + g.conj().T) for g in cgauss(rng, 5, 4, 4)])
    spec = hermitian_eig(mats)
    for i, m in enumerate(mats):
        alone = hermitian_eig(m)
        assert spec.eigenvalues[i].tobytes() == alone.eigenvalues.tobytes()
        assert spec.eigenvectors[i].tobytes() == alone.eigenvectors.tobytes()
    mats[2] = np.triu(mats[2])
    with pytest.raises(NotHermitian):
        hermitian_eig(mats)


# --------------------------------------------------------------------------
# eigendecomposition


def test_hermitian_eig_reconstructs(rng):
    g = cgauss(rng, 4, 4)
    h = 0.5 * (g + g.conj().T)
    spec = hermitian_eig(h)
    rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.allclose(rebuilt, h, atol=1e-12)
    assert np.all(np.diff(spec.eigenvalues) >= 0.0)


def test_hermitian_eig_rejects_asymmetric(rng):
    g = cgauss(rng, 3, 3)
    g[0, 1] += 10.0
    with pytest.raises(NotHermitian):
        hermitian_eig(g)


@pytest.mark.per_family
@pytest.mark.parametrize(
    "scale", [1e160, 1e-160, 1e200, 1e-200, 2.0**600, 2.0**-600, 2.0**1022]
)
def test_hermitian_eig_tolerance_holds_at_extreme_scales(scale):
    # the squared Frobenius norms would overflow or underflow unscaled, and
    # at 2**1022 so would the sum M + M*
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotHermitian):
        hermitian_eig(scale * jordan)
    with pytest.raises(NotHermitian):
        hermitian_eig(scale * np.stack([np.eye(2), jordan]))
    spec = hermitian_eig(scale * np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(spec.eigenvalues / scale, [1.0, 3.0], rtol=1e-14)


# --------------------------------------------------------------------------
# matrix functions


def test_psd_power_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_power(np.diag([1.0, -1.0]), 0.5)


@pytest.mark.parametrize("m", [np.stack([np.eye(3)] * 2), np.eye(3)[None], np.eye(3)[0]])
def test_psd_power_takes_one_matrix(m):
    with pytest.raises(DimensionMismatch):
        psd_power(m, 0.5)


def test_psd_power_special_exponents(rng):
    g = cgauss(rng, 3, 2)
    m = g @ g.conj().T  # rank 2, PSD
    assert np.allclose(psd_power(m, 1.0), m, atol=1e-12)
    # exponent zero gives the range projection (0**0 == 0 convention)
    p0 = psd_power(m, 0.0)
    assert np.allclose(p0 @ p0, p0, atol=1e-10)
    assert abs(np.trace(p0).real - 2.0) < 1e-8
    assert np.allclose(psd_power(np.zeros((3, 3)), 0.0), 0.0)


@given(
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.1, max_value=2.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_psd_power_composes(p1, p2, seed):
    rng = np.random.default_rng(seed)
    g = cgauss(rng, 3, 3)
    m = g @ g.conj().T
    lhs = psd_power(m, p1) @ psd_power(m, p2)
    rhs = psd_power(m, p1 + p2)
    assert np.allclose(lhs, rhs, atol=1e-8 * (1 + np.linalg.norm(rhs)))


# --------------------------------------------------------------------------
# spectral norm and numerical radius


def test_spectral_norm_matches_power_iteration(rng):
    for n in (2, 3, 5):
        m = cgauss(rng, n, n)
        assert spectral_norm(m) == pytest.approx(
            oracle_spectral_norm(m), rel=1e-9, abs=1e-9
        )


def test_radius_hermitian_is_spectral_radius(rng):
    g = cgauss(rng, 4, 4)
    h = 0.5 * (g + g.conj().T)
    expected = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    assert classical_numerical_radius(h) == pytest.approx(expected, abs=1e-10)


def test_radius_normal_is_spectral_radius(rng):
    d = np.diag(cgauss(rng, 4))
    u, _ = np.linalg.qr(cgauss(rng, 4, 4))
    m = u @ d @ u.conj().T
    expected = float(np.max(np.abs(np.diag(d))))
    assert classical_numerical_radius(m) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("scale", [1e-6, 0.37, 1.0, 3.1, 1e6])
def test_radius_at_ordinary_scales_is_the_unscaled_solve(rng, scale):
    # each matrix is divided by a power of two before it is classed and
    # solved; at ordinary scales that moves no bit of any class's radius
    for n in range(2, 9):
        g = scale * cgauss(rng, 5, n, n)
        herm = 0.5 * (g + g.conj().transpose(0, 2, 1))
        u = np.linalg.qr(cgauss(rng, 5, n, n))[0]
        normal = u @ (scale * cgauss(rng, 5, n)[:, :, None] * u.conj().transpose(0, 2, 1))
        assert classical_numerical_radius(g).tolist() == (
            _refined_radius(None, 0.5 * g, spectral_norm(g)).tolist()
        )
        assert classical_numerical_radius(herm).tolist() == (
            np.abs(np.linalg.eigvalsh(herm)).max(axis=1).tolist()
        )
        assert classical_numerical_radius(normal).tolist() == (
            np.abs(np.linalg.eigvals(normal)).max(axis=1).tolist()
        )


@pytest.mark.parametrize("scale", [1e160, 1e-200, 2.0**-600, 2.0**600])
def test_general_radius_scales_with_its_input(rng, scale):
    # entries above about 1.3e154 once overflowed the Frobenius norms, so a
    # general matrix was classed as Hermitian; a power-of-two scale moves
    # the radius exactly
    mats = cgauss(rng, 8, 3, 3)
    unit = classical_numerical_radius(mats)
    got = classical_numerical_radius(scale * mats)
    assert np.allclose(got, scale * unit, rtol=1e-13, atol=0.0)
    if np.log2(scale).is_integer():
        assert got.tolist() == (scale * unit).tolist()


def test_radius_nilpotent_shift():
    m = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert classical_numerical_radius(m) == pytest.approx(1.0, abs=1e-10)


def test_radius_agrees_with_alternating_ascent(rng):
    for n in (2, 3, 4):
        m = cgauss(rng, n, n)
        w = classical_numerical_radius(m)
        w_oracle = oracle_radius(m)
        assert w == pytest.approx(w_oracle, abs=1e-7 * max(1.0, w_oracle))


def test_radius_norm_sandwich(rng):
    for _ in range(20):
        m = cgauss(rng, 3, 3)
        w = classical_numerical_radius(m)
        s = spectral_norm(m)
        assert 0.5 * s - 1e-8 <= w <= s + 1e-8


def test_radius_zero_matrix():
    assert classical_numerical_radius(np.zeros((3, 3))) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-7, 1e-6, 1.0, 1e6])
def test_radius_jordan_block_closed_form(n, scale):
    # W(J_n) is the disk of radius cos(pi/(n+1)), so lambda(theta) is flat:
    # lambda' and lambda'' vanish and the refinement runs on bisection.
    # J_n is real, so it solves half the grid and starts from every angle
    # of [0, pi].
    # Tiny scales check that the normal short-circuit is scale-invariant:
    # J_n is far from normal at every scale.
    m = scale * np.eye(n, k=1)
    expected = scale * np.cos(np.pi / (n + 1))
    assert classical_numerical_radius(m) == pytest.approx(expected, rel=1e-12)
    ctx = make_context(np.eye(n))
    assert a_numerical_radius(ctx, m) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_radius_near_hermitian_above_threshold(rng, n):
    g = cgauss(rng, n, n)
    h = 0.5 * (g + g.conj().T)
    e = cgauss(rng, n, n)
    s = 0.5 * (e + e.conj().T)
    eps = 10.0 * 1e-12 * (1.0 + np.linalg.norm(h)) / np.linalg.norm(2.0 * s)
    m = h + 1j * eps * s
    # the Hermitian short-circuit must not apply
    assert np.linalg.norm(m - m.conj().T) > 1e-12 * (1.0 + np.linalg.norm(m))
    w = classical_numerical_radius(m)
    # W(m) lies within eps * ||s|| of the real segment W(h)
    expected = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    assert abs(w - expected) <= eps * np.linalg.norm(s, 2) + 1e-14 * expected
    assert w == pytest.approx(oracle_radius(m), rel=1e-12)


def _normality_defect(x) -> float:
    """Commutator norm in units of the kernel's normal short-circuit threshold."""
    xh = x.conj().T
    return np.linalg.norm(x @ xh - xh @ x) / (1e-12 * (1.0 + np.linalg.norm(x) ** 2))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_radius_near_normal_above_threshold(rng, n):
    u, _ = np.linalg.qr(cgauss(rng, n, n))
    d = cgauss(rng, n)
    normal = (u * d) @ u.conj().T
    e = cgauss(rng, n, n)
    eps = 1e-12 * 10.0 / _normality_defect(normal + 1e-12 * e)
    m = normal + eps * e
    # the normal short-circuit must not apply
    assert _normality_defect(m) > 1.0
    w = classical_numerical_radius(m)
    # |w(N + E) - w(N)| <= w(E) <= ||E||_2
    expected = float(np.max(np.abs(d)))
    assert abs(w - expected) <= eps * np.linalg.norm(e, 2) + 1e-14 * expected
    assert w == pytest.approx(oracle_radius(m), rel=1e-12)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_radius_refinement_matches_oracles(rng, scale):
    for n in range(2, 9):
        m = scale * cgauss(rng, n, n)
        w = classical_numerical_radius(m)
        assert w == pytest.approx(oracle_radius(m), rel=1e-12)
        # the flat grid samples lambda(theta) <= w and misses by O(h^2)
        grid = oracle_radius_grid(m)
        assert grid <= w * (1.0 + 1e-14)
        assert w - grid <= 1e-7 * w


def _antidiag(x, y):
    """``[[0, X], [Y, 0]]`` of each pair of a stack, or of one pair."""
    zero = np.zeros_like(x)
    return np.block([[zero, x], [y, zero]])


@pytest.mark.per_family
def test_radius_stack_is_bitwise_per_matrix(rng):
    # zero, Hermitian, normal, Jordan, anti-diagonal block (at full size)
    # and random matrices at three scales: every short-circuit and the
    # refinement run in one stacked call
    for n in range(1, 9):
        g = cgauss(rng, n, n)
        u, _ = np.linalg.qr(cgauss(rng, n, n))
        mats = [
            np.zeros((n, n)),
            0.5 * (g + g.conj().T),
            (u * cgauss(rng, n)) @ u.conj().T,
            3.0 * np.eye(n, k=1),
        ] + [s * cgauss(rng, n, n) for s in (1e-6, 1.0, 1e6) for _ in range(2)]
        mats.append(rng.standard_normal((n, n)))  # a real family solves half the grid
        if n % 2 == 0:
            mats.append(_antidiag(*cgauss(rng, 2, n // 2, n // 2)))
            mats.append(_antidiag(*rng.standard_normal((2, n // 2, n // 2))))
        stacked = classical_numerical_radius(np.stack(mats))
        assert stacked.shape == (len(mats),)
        for m, w in zip(mats, stacked):
            alone = classical_numerical_radius(m)
            assert isinstance(alone, float)
            assert w == alone
            assert w == pytest.approx(oracle_radius(m), rel=1e-12, abs=1e-300)
        norms = spectral_norm(np.stack(mats))
        assert [spectral_norm(m) for m in mats] == norms.tolist()


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.per_family
def test_radius_grid_is_solved_in_slices_within_its_byte_budget(rng):
    # 24 matrices of 64 x 64 would build 100 MiB of Hermitian parts at
    # once; solved in slices within the budget the call stays under 48 MiB
    # (the Newton rounds on every matrix's candidates are not sliced), and
    # each radius is bitwise the one its matrix gets alone
    mats = cgauss(rng, 24, 64, 64)
    assert _GRID_BYTES // (16 * 64 * 64) < _GRID // 2  # one matrix's angles split
    stacked, peak = _traced_peak(classical_numerical_radius, mats)
    assert peak < 48 * 2**20
    assert stacked.tolist() == [classical_numerical_radius(m) for m in mats]


@pytest.mark.per_family
def test_radius_of_a_large_real_matrix_is_solved_in_angle_slices_bitwise(rng):
    # the reduced inverse of the 127-point stability problem is real and
    # non-normal; its 17 Hermitian parts of [0, pi] (4 MiB) are solved a
    # few angles at a time, so the call stays under 5 MiB, and its radius
    # is the same alone and in a stack, whose neighbours are sliced alike
    t_h, a_h = assemble_fd(EllipticSpec(n_points=127))
    ctx = make_context(a_h)
    tilde = reduce(ctx, np.linalg.inv(t_h))
    assert not tilde.imag.any()
    assert _GRID_BYTES // (16 * 127 * 127) < _GRID // 4 + 1
    alone, peak = _traced_peak(classical_numerical_radius, tilde)
    assert peak <= 5 * 2**20
    stack = np.stack([cgauss(rng, 127, 127), tilde, rng.standard_normal((127, 127)), tilde.T])
    assert classical_numerical_radius(stack).tolist() == [
        classical_numerical_radius(m) for m in stack
    ]
    assert classical_numerical_radius(stack)[1] == alone
    assert alone == pytest.approx(oracle_radius(tilde), rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8, 32])
def test_antidiagonal_radius_matches_the_general_path(rng, m):
    # [[0, X], [Y, 0]] is solved at size m from its blocks; the general
    # path solves the assembled block at size 2m.  At m = 32 the stack
    # fills more than one grid slice of either path.
    k = 6 if m < 32 else _GRID_BYTES // (_GRID // 2 * 16 * m * m) + 2
    x, y = cgauss(rng, 2, k, m, m)
    got, general = antidiagonal_radius(x, y), classical_numerical_radius(_antidiag(x, y))
    assert np.allclose(got, general, rtol=1e-13, atol=0.0)


@pytest.mark.per_family
def test_antidiagonal_radius_of_a_pair_stack_is_bitwise_per_pair(rng):
    # complex pairs at three scales, a real pair, a Hermitian block and
    # zero blocks in one stacked call, each against the assembled block
    for m in range(1, 7):
        x, y = cgauss(rng, 2, m, m)
        zero = np.zeros((m, m))
        pairs = [(x, y), (x, x.conj().T), (x, zero), (zero, y), (zero, zero)]
        pairs += [tuple(rng.standard_normal((2, m, m)))]
        pairs += [tuple(s * cgauss(rng, 2, m, m)) for s in (1e-6, 1.0, 1e6)]
        xs, ys = (np.stack(blocks) for blocks in zip(*pairs))
        stacked = antidiagonal_radius(xs, ys)
        assert stacked.shape == (len(pairs),)
        for (a, b), w in zip(pairs, stacked):
            assert w == antidiagonal_radius(a, b)
            assert w == pytest.approx(oracle_radius(_antidiag(a, b)), rel=1e-12, abs=1e-300)


def test_antidiagonal_radius_takes_one_pair_or_equal_stacks(rng):
    x, y = cgauss(rng, 2, 3, 3)
    assert isinstance(antidiagonal_radius(x, y), float)
    for other in (cgauss(rng, 2, 2), y[None], cgauss(rng, 2, 3, 3)):
        with pytest.raises(DimensionMismatch):
            antidiagonal_radius(x, other)
    with pytest.raises(NonSquare):
        antidiagonal_radius(x[:, :2], y[:, :2])
    for bad in (np.nan, np.inf):
        broken = y.copy()
        broken[1, 2] = bad
        with pytest.raises(DomainError):
            antidiagonal_radius(x, broken)
        with pytest.raises(DomainError):
            antidiagonal_radius(broken, x)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_antidiagonal_radius_closed_forms(rng, m):
    x, y = cgauss(rng, 2, m, m)
    zero = np.zeros((m, m))
    norm = spectral_norm(x)
    # [[0, X], [X*, 0]] is Hermitian with eigenvalues +-s_j(X)
    assert antidiagonal_radius(x, x.conj().T) == pytest.approx(norm, rel=1e-13)
    # [[0, X], [X, 0]] is unitarily similar to diag(X, -X)
    w_x = classical_numerical_radius(x)
    assert antidiagonal_radius(x, x) == pytest.approx(w_x, rel=1e-13)
    # a nilpotent block: W is the disk of radius ||X|| / 2
    assert antidiagonal_radius(x, zero) == pytest.approx(norm / 2, rel=1e-13)
    assert antidiagonal_radius(zero, y) == pytest.approx(spectral_norm(y) / 2, rel=1e-13)
    assert antidiagonal_radius(zero, zero) == 0.0


def test_antidiagonal_radius_is_invariant_under_swap_and_rotation(rng):
    for m in range(1, 9):
        x, y = cgauss(rng, 2, m, m)
        w = antidiagonal_radius(x, y)
        assert antidiagonal_radius(y, x) == pytest.approx(w, rel=1e-13)
        for t in (0.3, 1.1, 2.9):
            assert antidiagonal_radius(x, np.exp(1j * t) * y) == pytest.approx(w, rel=1e-13)


@pytest.mark.parametrize("scale", [1e-200, 1e200, 2.0**-600, 2.0**600])
def test_antidiagonal_radius_scales_with_its_input(rng, scale):
    # squares of 1e-200 underflow and squares of 1e200 overflow; both
    # blocks are divided by one power of two first, the larger block's, so
    # a power-of-two scale moves the radius exactly, also where one block
    # is zero
    x, y = cgauss(rng, 2, 8, 3, 3)
    x[0], y[1] = 0.0, 0.0
    unit = antidiagonal_radius(x, y)
    got = antidiagonal_radius(scale * x, scale * y)
    assert np.allclose(got, scale * unit, rtol=1e-13, atol=0.0)
    if np.log2(scale).is_integer():
        assert got.tolist() == (scale * unit).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 16, 31, 63])
def test_real_radius_matches_the_rotated_complex_path(rng, n):
    # W(M) of a real M is symmetric about the real axis, so its family is
    # solved on [0, pi] only; e^{i pi/7} M has the same radius and takes
    # the complex path, which solves the whole circle
    # (and so does a pair of blocks of size n, against the rotated pair)
    k = 6 if n <= 8 else 2
    rot = np.exp(1j * np.pi / 7)
    real = rng.standard_normal((k, n, n))
    got = classical_numerical_radius(real)
    assert np.allclose(got, classical_numerical_radius(rot * real), rtol=1e-13, atol=0.0)
    x, y = rng.standard_normal((2, k, n, n))
    got = antidiagonal_radius(x, y)
    assert np.allclose(got, antidiagonal_radius(rot * x, rot * y), rtol=1e-13, atol=0.0)


def test_real_families_solve_17_of_32_grid_angles(rng, monkeypatch):
    # a real general matrix solves angles 0 to pi / 2 (each Hermitian part
    # also gives lambda at the angle plus pi), a pair of real blocks angles
    # 0 to pi of its circle; complex matrices and pairs solve 32 angles
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        solved.append(int(np.prod(a.shape[:-2])))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    general, blocks = rng.standard_normal((5, 6, 6)), rng.standard_normal((2, 3, 3, 3))
    mixed = np.concatenate([general, cgauss(rng, 4, 6, 6)])
    for radius, operands, grids in [
        (classical_numerical_radius, [general], 17 * 5),
        (antidiagonal_radius, blocks, 17 * 3),
        (antidiagonal_radius, cgauss(rng, 2, 3, 3, 3), 32 * 3),
        (classical_numerical_radius, [cgauss(rng, 4, 6, 6)], 32 * 4),
        (classical_numerical_radius, [mixed], 17 * 5 + 32 * 4),
    ]:
        solved.clear()
        radius(*operands)
        assert sum(solved) == grids


def test_real_radius_off_the_real_axis():
    # W([[1, -2], [1, 1]]) is the ellipse about 1 with semi-axes 1/2 and
    # 3/2 (foci at the eigenvalues 1 +- i sqrt(2)); |z| peaks at z = 9/8 +-
    # 3 sqrt(15) i / 8, where |z|^2 = 27/8, between two grid angles
    m = np.array([[1.0, -2.0], [1.0, 1.0]])
    assert classical_numerical_radius(m) == pytest.approx(math.sqrt(27 / 8), rel=1e-14)
    # here lambda(theta) has a local minimum at 0 between maxima at +-0.044,
    # inside one grid cell; lambda'(0) is exactly zero, so a search
    # bracketed about 0 stays at 0, 3.9e-7 below the radius (and so does an
    # alternating ascent alone; oracle_radius's golden-section search does not)
    m = np.array([[0.12652561, 1.19049467], [-0.37533842, 0.90986133]])
    w = classical_numerical_radius(m)
    assert w == pytest.approx(classical_numerical_radius(np.exp(1j * np.pi / 7) * m), rel=1e-13)
    assert w >= oracle_radius_grid(m)
    assert w == pytest.approx(oracle_radius(m), rel=1e-12)
