"""Operator calculus on a semi-Hilbertian space.

A positive-semidefinite weight ``A`` induces the semi-inner product
``<x, y>_A = <A x, y>`` (conjugate-linear in the second slot), the
seminorm ``||x||_A``, and for operators the distinguished adjoint
``T^# = pinv(A) T* A``, the operator seminorm, and the A-numerical
radius.

Every weighted quantity is evaluated through one similarity reduction.
With ``A = V_r Lambda V_r*`` restricted to its ``r`` kept eigenpairs,
``T~ = Lambda^{1/2} V_r* T V_r Lambda^{-1/2}`` is the ``r x r`` matrix of
``A^{1/2} T pinv(A^{1/2})`` on ``ran(A)``.  The weighted seminorm and
radius of ``T`` are the classical spectral norm and numerical radius of
``T~``.  The reduction of ``T^#`` is ``T~*``, and those of ``T^# T`` and
``T T^#`` are ``T~* T~`` and ``T~ T~*``, with no hypothesis.  When the
left factor maps ``ker(A)`` into itself, the reduction of ``S T`` is
``S~ T~``; and a block matrix over ``diag(A, A)`` reduces to the block
matrix of the reduced blocks.  So downstream checkers work on ``r x r``
matrices only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DIM_CAP,
    DimensionMismatch,
    DomainError,
    as_matrix,
    as_vector,
    classical_numerical_radius,
    hermitian_eig,
    psd_power,
    spectral_norm,
)


class NotPositive(DomainError):
    """Weight matrix has a genuinely negative eigenvalue."""


class DegenerateContext(DomainError):
    """The weight has rank zero, so no A-unit vectors exist."""


@dataclass(frozen=True)
class SemiInnerContext:
    """Precomputed factors of one weight matrix.

    Fields
    ------
    a : the weight, exactly symmetrized (bitwise idempotent, so a
        context round-trips through its own ``a``)
    a_pinv : Moore-Penrose pseudoinverse of ``a``
    a_half : PSD square root of ``a``
    a_half_pinv : pseudoinverse of ``a_half``
    range_proj : orthogonal projection onto ``ran(a)``
    rank : numerical rank used for all truncations
    rank_tol : relative eigenvalue cutoff that produced ``rank``
    v_r : ``n x rank`` orthonormal eigenvectors of the kept eigenvalues
    sqrt_lam : square roots of the kept eigenvalues, matching ``v_r``
    """

    a: np.ndarray
    a_pinv: np.ndarray
    a_half: np.ndarray
    a_half_pinv: np.ndarray
    range_proj: np.ndarray
    rank: int
    rank_tol: float
    v_r: np.ndarray
    sqrt_lam: np.ndarray

    @property
    def dim(self) -> int:
        return self.a.shape[0]


def _frozen(m: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(m)
    out.setflags(write=False)
    return out


def make_context(a, rank_tol: float = 1e-10, max_dim: int = DIM_CAP) -> SemiInnerContext:
    """Validate a weight matrix and precompute its factors.

    The input must be square, Hermitian within tolerance, and PSD up to
    an eigenvalue undershoot of ``1e-9`` times the spectral radius.  All
    factors are built from a single eigendecomposition and one rank
    decision (eigenvalues above ``rank_tol`` times the largest), so the
    identities ``P = A pinv(A) = pinv(A) A`` and
    ``a_half_pinv = pinv(a_half)`` hold to rounding.
    """
    if rank_tol <= 0.0:
        raise ValueError("rank_tol must be positive")
    mat = as_matrix(a, square=True, max_dim=max_dim)
    spec = hermitian_eig(mat)
    vals = spec.eigenvalues
    top = float(np.max(np.abs(vals)))
    if float(vals[0]) < -1e-9 * top:
        raise NotPositive(f"weight has negative eigenvalue {vals[0]:.3e}")
    clamped = np.clip(vals, 0.0, None)
    mask = clamped > rank_tol * top
    rank = int(np.count_nonzero(mask))
    vecs = spec.eigenvectors
    vr = vecs[:, mask]
    lam = clamped[mask]

    # The stored weight is the exact symmetrization of the input, not the
    # eigen-reconstruction: symmetrizing is bitwise idempotent, so feeding
    # ``ctx.a`` back through ``make_context`` reproduces every factor
    # bit for bit (persisted cases replay exactly).
    a_sym = 0.5 * (mat + mat.conj().T)
    a_half = (vecs * np.sqrt(clamped)) @ vecs.conj().T
    if rank:
        a_pinv = (vr / lam) @ vr.conj().T
        a_half_pinv = (vr / np.sqrt(lam)) @ vr.conj().T
        proj = vr @ vr.conj().T
    else:
        n = mat.shape[0]
        a_pinv = np.zeros((n, n), dtype=np.complex128)
        a_half_pinv = a_pinv.copy()
        proj = a_pinv.copy()
    return SemiInnerContext(
        a=_frozen(a_sym),
        a_pinv=_frozen(a_pinv),
        a_half=_frozen(a_half),
        a_half_pinv=_frozen(a_half_pinv),
        range_proj=_frozen(proj),
        rank=rank,
        rank_tol=rank_tol,
        v_r=_frozen(vr),
        sqrt_lam=_frozen(np.sqrt(lam)),
    )


def semi_inner(ctx: SemiInnerContext, x, y) -> complex:
    """Semi-inner product ``<x, y>_A = <A x, y>``, conjugate-linear in ``y``."""
    xv = as_vector(x, dim=ctx.dim)
    yv = as_vector(y, dim=ctx.dim)
    return complex(np.vdot(yv, ctx.a @ xv))


def vec_seminorm(ctx: SemiInnerContext, x) -> float:
    """Seminorm ``||x||_A``; the quadratic form must be real to rounding."""
    q = semi_inner(ctx, x, x)
    if abs(q.imag) > 1e-10 * max(1.0, abs(q)):
        raise ValueError("quadratic form unexpectedly non-real")
    return float(np.sqrt(max(q.real, 0.0)))


def a_adjoint(ctx: SemiInnerContext, t) -> np.ndarray:
    """Distinguished A-adjoint ``pinv(A) T* A``."""
    mat = as_matrix(t, square=True)
    _check_dim(ctx, mat)
    return ctx.a_pinv @ mat.conj().T @ ctx.a


def reduce(ctx: SemiInnerContext, t) -> np.ndarray:
    """The ``rank x rank`` reduction ``Lambda^{1/2} V_r* T V_r Lambda^{-1/2}``."""
    mat = as_matrix(t, square=True)
    _check_dim(ctx, mat)
    lam_half = ctx.sqrt_lam
    return lam_half[:, None] * (ctx.v_r.conj().T @ mat @ ctx.v_r) / lam_half


def op_seminorm(ctx: SemiInnerContext, t) -> float:
    """Operator seminorm: the supremum of ``||Tx||_A / ||x||_A`` over ``ran(A)``."""
    tilde = reduce(ctx, t)
    return spectral_norm(tilde) if ctx.rank else 0.0


def a_numerical_radius(ctx: SemiInnerContext, t, tol: float = 1e-8) -> float:
    """A-numerical radius: the classical radius of the reduction.

    ``tol`` must be positive and changes no result.
    """
    tilde = reduce(ctx, t)
    return classical_numerical_radius(tilde, tol=tol) if ctx.rank else 0.0


def a_numerical_radius_lower(
    ctx: SemiInnerContext, t, samples: int = 10000, seed: int = 0
) -> float:
    """Sampled lower bound for the A-numerical radius.

    Draws ``samples`` complex Gaussian vectors ``g``, maps each to
    ``y = Lambda^{1/2} V_r* g`` (so ``|y| = ||g||_A``) and maximizes
    ``|y* T~ y| / |y|^2``, which is ``|<Tx, x>_A| / ||x||_A^2`` for ``x`` the
    projection of ``g`` onto ``ran(A)``.  Deterministic for a fixed seed.
    """
    if ctx.rank == 0:
        raise DegenerateContext("weight has rank zero")
    if samples < 1:
        raise ValueError("samples must be positive")
    tilde = reduce(ctx, t)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, ctx.dim)) + 1j * rng.standard_normal(
        (samples, ctx.dim)
    )
    y = (g @ ctx.v_r.conj()) * ctx.sqrt_lam
    norms_sq = np.sum(np.abs(y) ** 2, axis=1)
    keep = norms_sq > 1e-24 * max(1.0, float(norms_sq.max(initial=0.0)))
    if not np.any(keep):
        raise DegenerateContext("no sample survived seminorm normalization")
    y = y[keep]
    quad = np.abs(np.sum(np.conj(y) * (y @ tilde.T), axis=1)) / norms_sq[keep]
    return float(np.max(quad))


def a_abs_power(ctx: SemiInnerContext, t, p: float) -> np.ndarray:
    """Power ``|T|_A ** p`` of the A-absolute value, pulled back from the reduction.

    ``|T|_A`` is the PSD square root of ``T^# T`` evaluated on ``ran(A)``;
    powers use the spectral calculus with the zero-eigenvalue convention
    of :func:`aradius.linalg.psd_power`.  For ``p == 2`` and invertible
    ``A`` this reproduces ``T^# T`` exactly.
    """
    if p < 0.0:
        raise ValueError("power must be nonnegative")
    tilde = reduce(ctx, t)
    if not ctx.rank:
        return np.zeros((ctx.dim, ctx.dim), dtype=np.complex128)
    powered = psd_power(tilde.conj().T @ tilde, 0.5 * p)
    lam_half = ctx.sqrt_lam
    return (ctx.v_r / lam_half) @ powered @ (lam_half[:, None] * ctx.v_r.conj().T)


def is_a_selfadjoint(ctx: SemiInnerContext, t, tol: float = 1e-8) -> bool:
    """True when ``A T`` is Hermitian within relative tolerance."""
    mat = as_matrix(t, square=True)
    _check_dim(ctx, mat)
    at = ctx.a @ mat
    defect = float(np.linalg.norm(at - at.conj().T))
    return defect <= tol * (1.0 + float(np.linalg.norm(at)))


def is_a_positive(ctx: SemiInnerContext, t, tol: float = 1e-8) -> bool:
    """True when ``A T`` is Hermitian PSD within relative tolerance."""
    mat = as_matrix(t, square=True)
    _check_dim(ctx, mat)
    at = ctx.a @ mat
    if not is_a_selfadjoint(ctx, t, tol=tol):
        return False
    vals = np.linalg.eigvalsh(0.5 * (at + at.conj().T))
    top = float(np.max(np.abs(vals))) if vals.size else 0.0
    return float(vals[0]) >= -tol * (1.0 + top)


def preserves_kernel(ctx: SemiInnerContext, t, tol: float = 1e-8) -> bool:
    """True when ``T`` maps ``ker(A)`` into itself within tolerance.

    This is exactly the compatibility condition under which the adjoint
    identity ``<Tx, y>_A = <x, T^# y>_A`` holds on all of the space and
    the reduction is multiplicative; every operator inequality in
    :mod:`aradius.inequalities` hypothesizes it.  Always true for
    invertible weights.
    """
    mat = as_matrix(t, square=True)
    _check_dim(ctx, mat)
    if ctx.rank == ctx.dim:
        return True
    p = ctx.range_proj
    leak = p @ mat @ (np.eye(ctx.dim) - p)
    return spectral_norm(leak) <= tol * (1.0 + spectral_norm(mat))


def _check_dim(ctx: SemiInnerContext, mat: np.ndarray) -> None:
    if mat.shape[0] != ctx.dim:
        raise DimensionMismatch(
            f"operator is {mat.shape[0]}x{mat.shape[1]}, weight is {ctx.dim}x{ctx.dim}"
        )
