"""Operator calculus on a semi-Hilbertian space.

A positive-semidefinite weight ``A`` induces the semi-inner product
``<x, y>_A = <A x, y>`` (conjugate-linear in the second slot), the
seminorm ``||x||_A``, and for operators the distinguished adjoint
``T^# = pinv(A) T* A``, the operator seminorm, and the A-numerical
radius.

Every weighted quantity is evaluated through one similarity reduction.
With ``A = V_r Lambda V_r*`` restricted to its ``r`` kept eigenpairs,
``T~ = Lambda^{1/2} V_r* T V_r Lambda^{-1/2}`` is the ``r x r`` matrix of
``A^{1/2} T pinv(A^{1/2})`` on ``ran(A)``, and ``x~ = Lambda^{1/2} V_r* x``
holds the coordinates of ``A^{1/2} x``: ``<x, y>_A = y~* x~``, ``||x||_A =
|x~|``, and the kernel of the rank decision has seminorm zero.  The
weighted seminorm and radius of ``T`` are the classical spectral norm and
numerical radius of ``T~``.  The reduction of ``T^#`` is ``T~*``, and
those of ``T^# T`` and ``T T^#`` are ``T~* T~`` and ``T~ T~*``, with no
hypothesis.  When the left factor maps ``ker(A)`` into itself, the
reduction of ``S T`` is ``S~ T~``; and a block matrix over ``diag(A, A)``
reduces to the block matrix of the reduced blocks.  So downstream
checkers work on ``r x r`` matrices and length-``r`` vectors only.

Trial axis: :func:`rank_contexts` factors a stack of weights in one
eigensolve, one context per rank whose arrays carry a leading trial axis
(:meth:`SemiInnerContext.trial` gives a weight its row); :func:`stack_contexts`
joins contexts of one rank into one; :func:`reduce`, :func:`preserves_kernel`,
:func:`is_a_selfadjoint` and :func:`is_a_positive` accept such a context,
or a stack ``(k, n, n)`` of operators, or both; they return one result
per trial.  The other functions take one weight and one operator.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    PSD_CLAMP_RTOL,
    DimensionMismatch,
    DomainError,
    _hermitian_eig,
    _hermitian_part,
    _unit,
    as_integer,
    as_matrix,
    as_stack,
    as_vector,
    classical_numerical_radius,
    psd_power,
    spectral_norm,
)


class NotPositive(DomainError):
    """Weight matrix has a genuinely negative eigenvalue."""


class DegenerateContext(DomainError):
    """The weight has rank zero, so no A-unit vectors exist."""


#: Relative eigenvalue cutoff of the rank decision: an eigenvalue is kept
#: when it exceeds ``RANK_TOL`` times the largest modulus.
RANK_TOL = 1e-10

#: Relative tolerance of the structural tests :func:`preserves_kernel`,
#: :func:`is_a_selfadjoint` and :func:`is_a_positive`.
STRUCTURE_RTOL = 1e-8

#: Samples that :func:`a_numerical_radius_lower` draws in one task of its
#: worker thread and then projects and reduces at once (the last block may
#: hold one more).
_SAMPLE_BLOCK = 512


@dataclass(frozen=True)
class SemiInnerContext:
    """The factorization of one weight matrix.

    Fields
    ------
    a : the weight, exactly symmetrized (bitwise idempotent, so a
        context round-trips through its own ``a``)
    v_r : ``n x rank`` orthonormal eigenvectors of the kept eigenvalues
    lam : the kept eigenvalues, clamped at zero, matching ``v_r``

    Derived on each access: ``rank`` (the length of ``lam``),
    ``sqrt_lam``, the pseudoinverse ``a_pinv = V_r diag(lam)^-1 V_r*`` and
    the projection ``range_proj = V_r V_r*`` onto ``ran(a)``.  A context
    made by :func:`stack_contexts` or :func:`rank_contexts` holds the same
    fields with a leading trial axis, which its derived values carry.
    """

    a: np.ndarray
    v_r: np.ndarray
    lam: np.ndarray

    def trial(self, j) -> "SemiInnerContext":
        """Trial ``j`` (an index or a slice) of a stacked context."""
        return SemiInnerContext(a=self.a[j], v_r=self.v_r[j], lam=self.lam[j])

    @property
    def dim(self) -> int:
        return self.a.shape[-1]

    @property
    def rank(self) -> int:
        return self.lam.shape[-1]

    @property
    def sqrt_lam(self) -> np.ndarray:
        return np.sqrt(self.lam)

    @property
    def a_pinv(self) -> np.ndarray:
        return (self.v_r / self.lam[..., None, :]) @ self.v_r.conj().swapaxes(-1, -2)

    @property
    def range_proj(self) -> np.ndarray:
        return self.v_r @ self.v_r.conj().swapaxes(-1, -2)


def _frozen(m: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(m)
    out.setflags(write=False)
    return out


def make_context(a) -> SemiInnerContext:
    """Validate a weight matrix and factor it.

    The input must be square, Hermitian within tolerance, and PSD up to
    an eigenvalue undershoot of :data:`~aradius.linalg.PSD_CLAMP_RTOL`
    times the spectral radius.  The factors come from a single
    eigendecomposition and one rank decision (eigenvalues above
    :data:`RANK_TOL` times the largest), so the identities ``P = A pinv(A)
    = pinv(A) A = V_r V_r*`` and ``A = V_r diag(lam) V_r*`` hold to
    rounding.  A rank-zero weight keeps an ``n x 0`` factor, whose
    pseudoinverse and projection are zero.  This is :func:`rank_contexts`
    on a stack of one.
    """
    return _factor(as_matrix(a, square=True)[None])[0][1].trial(0)


def rank_contexts(a) -> list[tuple[list[int], SemiInnerContext]]:
    """Validate a stack ``(k, n, n)`` of weights and factor it, in one eigensolve.

    One stacked context per rank, ``(idx, ctx)`` in order of first weight:
    row ``j`` of ``ctx`` is weight ``idx[j]``'s, bitwise its :func:`make_context`.
    A non-Hermitian or non-PSD weight raises what the first such raises alone.
    """
    mats = as_stack(a, square=True)
    if mats.ndim != 3:
        raise DimensionMismatch("expected a stack (k, n, n) of weights")
    return _factor(mats)


def _factor(mats: np.ndarray) -> list[tuple[list[int], SemiInnerContext]]:
    # The stored weight is the Hermitian part solved, not the reconstruction:
    # taking it is bitwise idempotent, so ``ctx.a`` fed back to make_context
    # gives every factor bit for bit (persisted cases replay exactly).
    sym, vals, vecs = _hermitian_eig(mats)
    top = np.abs(vals).max(axis=-1)
    negative = vals[:, 0] < -PSD_CLAMP_RTOL * top
    if negative.any():
        first = vals[np.argmax(negative), 0]
        raise NotPositive(f"weight has negative eigenvalue {first:.3e}")
    clamped = np.maximum(vals, 0.0)
    # eigenvalues ascend, so each weight keeps its last ``rank`` eigenpairs
    ranks = (clamped > RANK_TOL * top[:, None]).sum(axis=-1)
    n = mats.shape[-1]
    by_rank: dict[int, list[int]] = {}
    for i, rank in enumerate(ranks.tolist()):
        by_rank.setdefault(rank, []).append(i)
    groups = []
    for rank, idx in by_rank.items():
        # a stack of one rank, the usual case, is sliced rather than indexed
        rows = slice(None) if len(by_rank) == 1 else idx
        factors = sym[rows], vecs[rows, :, n - rank :], clamped[rows, n - rank :]
        groups.append((idx, SemiInnerContext(*map(_frozen, factors))))
    return groups


def stack_contexts(ctxs: Sequence[SemiInnerContext]) -> SemiInnerContext:
    """Join contexts of one dimension and rank along a leading trial axis."""
    if not ctxs:
        raise DimensionMismatch("no contexts to stack")
    first = ctxs[0]
    if any(c.dim != first.dim or c.rank != first.rank for c in ctxs):
        raise DimensionMismatch("stacked contexts must share dimension and rank")
    return SemiInnerContext(
        a=_frozen(np.array([c.a for c in ctxs])),
        v_r=_frozen(np.array([c.v_r for c in ctxs])),
        lam=_frozen(np.array([c.lam for c in ctxs])),
    )


def _reduced_rows(ctx: SemiInnerContext, x: np.ndarray) -> np.ndarray:
    """``x~ = Lambda^{1/2} V_r* x`` of each finite row of ``x``, bitwise what the row gives alone.

    Under a context stacked ``k`` deep, the last two axes of ``x`` are
    ``(k, n)`` and row ``i`` takes weight ``i``.
    """
    if not np.all(np.isfinite(x)):
        raise DomainError("vector contains non-finite entries")
    return ctx.sqrt_lam * (ctx.v_r.conj().swapaxes(-1, -2) @ x[..., None])[..., 0]


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``<x, y>_A = y~* x~`` of each pair of rows of reduced vectors."""
    return (y.conj()[:, None, :] @ x[:, :, None])[:, 0, 0]


def semi_inner(ctx: SemiInnerContext, x, y) -> complex:
    """Semi-inner product ``<x, y>_A = <A x, y>``, conjugate-linear in ``y``."""
    xr, yr = (_reduced_rows(ctx, as_vector(v, dim=ctx.dim)[None]) for v in (x, y))
    return complex(_inner(xr, yr)[0])


def vec_seminorm(ctx: SemiInnerContext, x) -> float:
    """Seminorm ``||x||_A``, the Euclidean norm of the reduced vector."""
    return float(np.linalg.norm(_reduced_rows(ctx, as_vector(x, dim=ctx.dim)[None]), axis=1)[0])


def a_adjoint(ctx: SemiInnerContext, t) -> np.ndarray:
    """Distinguished A-adjoint ``pinv(A) T* A``."""
    mat = as_matrix(t, square=True)
    _check_dim(ctx, mat)
    return ctx.a_pinv @ mat.conj().T @ ctx.a


def reduce(ctx: SemiInnerContext, t) -> np.ndarray:
    """The ``rank x rank`` reduction ``Lambda^{1/2} V_r* T V_r Lambda^{-1/2}``.

    With a stacked context or a stack of operators, the result is the
    stack of reductions, one per trial.
    """
    mat = as_stack(t, square=True)
    _check_dim(ctx, mat)
    lam_half = ctx.sqrt_lam
    vr = ctx.v_r
    core = vr.conj().swapaxes(-1, -2) @ mat @ vr
    return lam_half[..., :, None] * core / lam_half[..., None, :]


def op_seminorm(ctx: SemiInnerContext, t) -> float:
    """Operator seminorm: the supremum of ``||Tx||_A / ||x||_A`` over ``ran(A)``."""
    tilde = reduce(ctx, t)
    return spectral_norm(tilde) if ctx.rank else 0.0


def a_numerical_radius(ctx: SemiInnerContext, t) -> float:
    """A-numerical radius: the classical radius of the reduction."""
    tilde = reduce(ctx, t)
    return classical_numerical_radius(tilde) if ctx.rank else 0.0


def a_numerical_radius_lower(
    ctx: SemiInnerContext, t, samples: int = 10000, seed: int = 0
) -> float:
    """Sampled lower bound for the A-numerical radius.

    Draws ``samples`` complex Gaussian vectors ``g``, maps each to
    ``y = Lambda^{1/2} V_r* g`` (so ``|y| = ||g||_A``) and maximizes
    ``|y* T~ y| / |y|^2``, which is ``|<Tx, x>_A| / ||x||_A^2`` for ``x`` the
    projection of ``g`` onto ``ran(A)``.  Deterministic for a fixed seed.

    The stream holds each sample's real part, then its imaginary part.
    The one worker of a thread pool, started before ``T`` is reduced and
    joined within the call, draws it in blocks of :data:`_SAMPLE_BLOCK`
    samples (the last may hold one more; a normal stream gives the same
    values drawn whole or in pieces), at most two blocks ahead of the one
    being used.  The calling thread projects and reduces each block as it
    arrives, so its arithmetic on one block overlaps the drawing of the
    next.  It does all of the arithmetic and re-raises what a draw raises;
    no thread outlives the call.  The memory is a few blocks for any
    ``samples``: no ``(samples, dim)`` array is ever made.

    When every column of ``V_r`` holds one nonzero entry and that entry is
    exactly ``+-1`` (a diagonal weight), ``g V_r*`` is taken by column
    selection, which equals the product bit for bit: its other terms are
    exact zeros.  A sample whose ``|y|^2`` is at most ``1e-24`` times the
    largest over all samples, or the weight's largest eigenvalue if that
    is larger, is dropped.  So the floor scales with the weight, and
    ``c A`` gives the bound of ``A`` for any ``c > 0``.
    """
    if ctx.rank == 0:
        raise DegenerateContext("weight has rank zero")
    samples = as_integer("samples", samples, ValueError)
    if samples < 1:
        raise ValueError("samples must be positive")
    with _sampled_radius(ctx, samples, seed) as radius:
        return radius(reduce(ctx, t))


@contextmanager
def _sampled_radius(ctx: SemiInnerContext, samples: int, seed):
    """Draw the samples of :func:`a_numerical_radius_lower` on a one-worker executor.

    Yields ``radius(tilde)``, the bound of the operator whose reduction is
    ``tilde``, to be called at most once.  The worker draws the blocks in
    the order submitted: the first two on entry, so work done before that
    call overlaps them, and block ``i + 2`` when the caller takes block
    ``i``.  So at most two blocks are drawn ahead of the one in use.  On
    exit the draws not yet started are cancelled and the worker is joined.
    """
    # imported here: every other caller of the package would pay its
    # import time and memory
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(seed)
    # a lone last row joins the block before it: numpy multiplies a
    # single row by a matrix-vector product, which rounds differently
    blocks = [
        slice(lo, lo + _SAMPLE_BLOCK if lo + _SAMPLE_BLOCK < samples - 1 else samples)
        for lo in range(0, max(samples - 1, 1), _SAMPLE_BLOCK)
    ]

    def draw(block: slice) -> np.ndarray:
        # each sample's real part, then its imaginary part
        return rng.standard_normal((block.stop - block.start, 2, ctx.dim))

    def complex_samples(parts: np.ndarray) -> np.ndarray:
        # formed on the calling thread: the worker then holds one array per
        # block, so the peak memory does not depend on thread timing
        return parts[:, 0] + 1j * parts[:, 1]

    def radius(tilde: np.ndarray) -> float:
        project = _projection(ctx)
        numer = np.empty(samples)
        norms_sq = np.empty(samples)
        for i, block in enumerate(blocks):
            if i + 2 < len(blocks):
                ahead.append(pool.submit(draw, blocks[i + 2]))
            # no name holds the drawn block or the complex samples, so each
            # is freed as soon as it has been used
            norms_sq[block], numer[block] = _quotients(
                project(complex_samples(ahead.pop(0).result())), tilde
            )
        keep = norms_sq > 1e-24 * max(float(ctx.lam.max()), float(norms_sq.max()))
        if not np.any(keep):
            raise DegenerateContext("no sample survived seminorm normalization")
        return float(np.max(numer[keep] / norms_sq[keep]))

    pool = ThreadPoolExecutor(max_workers=1)
    try:
        ahead = [pool.submit(draw, block) for block in blocks[:2]]
        yield radius
    finally:
        pool.shutdown(cancel_futures=True)


def _quotients(y: np.ndarray, tilde: np.ndarray):
    """``|y|^2`` and ``|y* T~ y|`` of each row of ``y``, which is conjugated in place.

    Conjugating is exact, so in place it only saves an array.  The complex
    product is not taken in place: numpy can round a product written over
    its own input differently (seen on one-element arrays).
    """
    norms_sq = np.sum(np.abs(y) ** 2, axis=1)
    ty = y @ tilde.T
    return norms_sq, np.abs(np.sum(np.conj(y, out=y) * ty, axis=1))


def _projection(ctx: SemiInnerContext):
    """``g -> (g @ conj(V_r)) * sqrt_lam`` on a block of samples ``g``.

    A ``V_r`` whose every column holds one nonzero entry, exactly ``+-1``,
    selects and signs columns of ``g`` instead: every other term of the
    product is an exact zero, so the two agree bit for bit under any BLAS
    kernel.  ``np.take`` keeps the result C-ordered, as the product's is;
    the later product with ``T~`` rounds differently on other layouts.
    """
    nonzero = ctx.v_r != 0
    rows = np.argmax(nonzero, axis=0)
    entries = ctx.v_r[rows, np.arange(ctx.rank)]
    if (nonzero.sum(axis=0) == 1).all() and np.isin(entries, (-1.0, 1.0)).all():
        coef = entries.real * ctx.sqrt_lam
        return lambda g: np.take(g, rows, axis=1) * coef
    v_conj = ctx.v_r.conj()
    return lambda g: (g @ v_conj) * ctx.sqrt_lam


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


def _a_hermitian(ctx: SemiInnerContext, t):
    """Hermitian part of ``A T`` over a power of two, and whether ``A T`` is Hermitian to ``STRUCTURE_RTOL``.

    The product is taken of ``A`` and ``T`` in :func:`~aradius.linalg._unit`
    form, so it cannot overflow; a power of two changes neither the relative
    Hermitian test nor the sign of an eigenvalue ratio.
    """
    mat = as_stack(t, square=True)
    _check_dim(ctx, mat)
    return _hermitian_part(_unit(ctx.a)[0] @ _unit(mat)[0], STRUCTURE_RTOL)


def is_a_selfadjoint(ctx: SemiInnerContext, t):
    """True when ``A T`` is Hermitian within relative tolerance, per trial for stacks."""
    ok = _a_hermitian(ctx, t)[1]
    return ok if ok.ndim else bool(ok)


def is_a_positive(ctx: SemiInnerContext, t):
    """True when ``A T`` is Hermitian PSD within relative tolerance, per trial for stacks.

    The smallest eigenvalue must be at least ``-STRUCTURE_RTOL`` times the
    largest modulus.  The test holds at any scale, even where ``A T``
    itself would overflow.
    """
    sym, ok = _a_hermitian(ctx, t)
    vals = np.linalg.eigvalsh(sym)
    ok = ok & (vals[..., 0] >= -STRUCTURE_RTOL * np.max(np.abs(vals), axis=-1))
    return ok if ok.ndim else bool(ok)


def preserves_kernel(ctx: SemiInnerContext, t):
    """True when ``T`` maps ``ker(A)`` into itself within tolerance.

    This is exactly the compatibility condition under which the adjoint
    identity ``<Tx, y>_A = <x, T^# y>_A`` holds on all of the space and
    the reduction is multiplicative; every operator inequality in
    :mod:`aradius.inequalities` hypothesizes it.  The leak ``||V_r* T (I -
    P)||`` (``r x n``; it equals ``||P T (I - P)||`` because ``V_r`` has
    orthonormal columns) must be at most ``STRUCTURE_RTOL * ||T||``:
    relative, so any scale qualifies and the zero operator passes.  Always
    true for invertible weights and for the zero weight.  A stacked context
    or operator stack gives a boolean array, one per trial.
    """
    mat = as_stack(t, square=True)
    _check_dim(ctx, mat)
    if ctx.rank in (0, ctx.dim):
        trials = np.broadcast_shapes(mat.shape[:-2], ctx.a.shape[:-2])
        return np.full(trials, True) if trials else True
    vrh = ctx.v_r.conj().swapaxes(-1, -2)
    image = vrh @ mat
    leak = image - (image @ ctx.v_r) @ vrh
    return spectral_norm(leak) <= STRUCTURE_RTOL * spectral_norm(mat)


def _check_dim(ctx: SemiInnerContext, mat: np.ndarray) -> None:
    if mat.shape[-1] != ctx.dim:
        raise DimensionMismatch(
            f"operator is {mat.shape[-2]}x{mat.shape[-1]}, "
            f"weight is {ctx.dim}x{ctx.dim}"
        )
