"""Dense complex linear-algebra kernels.

Everything downstream works on plain numpy complex matrices.  The helpers
here pin down the numerical conventions the weighted operator calculus
relies on: scale-free Hermitian parts and relative tests, eigenvalue
clamping for positive-semidefinite functional calculus, and a
grid-seeded Newton refinement for the classical numerical radius.  The
radius scales each matrix by a power of two so its norms and squares
neither overflow nor underflow and short-circuits Hermitian and normal
matrices to eigenvalues.  :func:`antidiagonal_radius` solves ``[[0, X],
[Y, 0]]`` from its blocks at half size through ``w = max_phi ||X + e^{i
phi} Y*|| / 2`` (Hirzallah, Kittaneh and Shebrawi, 2011).  A real matrix
has a range symmetric about the real axis, so half its grid is solved.

Stacks: :func:`spectral_norm`, :func:`classical_numerical_radius` and
:func:`hermitian_eig` take either one matrix or a stack ``(k, rows,
cols)`` of matrices of one shape (see :func:`as_stack`), and
:func:`antidiagonal_radius` a pair of them.  A stack's results carry a
leading axis of length ``k`` whose entry ``i`` is bitwise what matrix
``i`` alone gives; a 2-D input is a stack of one, and the norm and the
radii then return a float.  Validation and every numpy call run once per
stack, which is what makes batched evaluation cheap at small ``n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

#: Cap on matrix dimension; guards against accidentally huge inputs.
DIM_CAP = 512

#: Relative Frobenius tolerance for "is Hermitian" checks.
HERMITIAN_RTOL = 1e-8

#: Eigenvalues of a nominally PSD matrix may undershoot zero by this
#: relative amount before the input is rejected.
PSD_CLAMP_RTOL = 1e-9

#: Radius kernel: grid size, angle convergence threshold (an angle error e
#: at a maximum costs at most lambda * e**2 / 2) and a cap on rounds; then
#: the grid's spacing, angles and the phases of its solved half, and the
#: phases of the _GRID // 2 angles of the full circle at twice the spacing;
#: then the bytes of Hermitian parts (16 n**2 each) solved at once, cut
#: across angles when one matrix's family is larger.
_GRID = 64
_ANGLE_TOL = 1e-8
_MAX_ROUNDS = 64
_DELTA = 2.0 * math.pi / _GRID
_THETAS = np.arange(_GRID) * _DELTA
_GRID_PHASE = np.exp(1j * _THETAS[: _GRID // 2])[:, None, None]
_CIRCLE_PHASE = np.exp(2j * _THETAS[: _GRID // 2])[:, None, None]
_GRID_BYTES = 2**20


class DomainError(Exception):
    """An input lies outside the operation's domain."""


class NonSquare(DomainError):
    """Operation requires a square matrix."""


class NotHermitian(DomainError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPSD(DomainError):
    """Matrix has an eigenvalue below the PSD clamp threshold."""


class DimensionMismatch(DomainError):
    """Operands have incompatible shapes."""


class ConvergenceFailure(Exception):
    """An iterative kernel failed to converge."""


def _checked(m, ndims: tuple[int, ...], square: bool) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(m, dtype=np.complex128))
    if out.ndim not in ndims:
        want = " or ".join(f"{d}-D" for d in ndims)
        raise DimensionMismatch(f"expected a {want} array, got ndim={out.ndim}")
    rows, cols = out.shape[-2:]
    if out.size == 0:
        raise DimensionMismatch("matrix must be non-empty")
    if max(rows, cols) > DIM_CAP:
        raise DimensionMismatch(f"dimension {max(rows, cols)} exceeds cap {DIM_CAP}")
    if square and rows != cols:
        raise NonSquare(f"expected a square matrix, got {rows}x{cols}")
    if not np.all(np.isfinite(out)):
        raise DomainError("matrix contains non-finite entries")
    return out


def as_matrix(m, *, square: bool = False) -> np.ndarray:
    """Validate and return ``m`` as a C-contiguous complex128 matrix.

    Rejects non-2-D input, non-finite entries, and dimensions beyond
    ``DIM_CAP``.
    """
    return _checked(m, (2,), square)


def as_stack(m, *, square: bool = False) -> np.ndarray:
    """Validate ``m`` as one matrix or a non-empty stack ``(k, rows, cols)``.

    The checks are those of :func:`as_matrix`, applied to every matrix of
    the stack at once; the result keeps the input's dimensionality.
    """
    return _checked(m, (2, 3), square)


def _per_input(values: np.ndarray, arr: np.ndarray):
    """``values`` (one per stacked matrix) as a float when ``arr`` is 2-D."""
    return float(values[0]) if arr.ndim == 2 else values


def as_integer(name: str, value, error: type[Exception] = DomainError) -> int:
    """``value``, a numpy integer too, as an int; a bool or any other type raises ``error`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_vector(x, *, dim: int | None = None) -> np.ndarray:
    """Validate ``x`` as a flat complex vector (accepts n, nx1 and 1xn)."""
    out = np.asarray(x, dtype=np.complex128)
    if out.ndim == 2 and 1 in out.shape:
        out = out.reshape(-1)
    if out.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {np.shape(x)}")
    if dim is not None and out.shape[0] != dim:
        raise DimensionMismatch(f"expected length {dim}, got {out.shape[0]}")
    if not np.all(np.isfinite(out)):
        raise DomainError("vector contains non-finite entries")
    return np.ascontiguousarray(out)


def as_vectors(xs, *, dim: int) -> np.ndarray:
    """Validate each of ``xs`` as :func:`as_vector` does; stack them ``(k, dim)``.

    An entry that is already a flat length-``dim`` vector skips the
    per-entry call, and the finiteness check runs once over the stack, so
    a batch raises the errors its entries raise alone.
    """
    flat = [np.asarray(x, dtype=np.complex128) for x in xs]
    stack = np.array([v if v.shape == (dim,) else as_vector(v, dim=dim) for v in flat])
    if not np.all(np.isfinite(stack)):
        raise DomainError("vector contains non-finite entries")
    return stack


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.  A stack's arrays carry
    its leading axis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _frobenius_sq(mats: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a C-contiguous complex stack."""
    return np.square(mats.view(np.float64)).sum(axis=(-2, -1))


def hermitian_eig(m) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack.

    Each matrix must be Hermitian to relative tolerance, ``||M - M*||_F <=
    HERMITIAN_RTOL * ||M||_F`` as :func:`_hermitian_part` takes it, so any
    finite scale qualifies and the zero matrix passes.  Its Hermitian part
    is solved, so downstream reconstruction identities hold to rounding.  A
    stack ``(k, n, n)`` gives eigenvalues ``(k, n)`` and eigenvectors ``(k,
    n, n)`` in one solve, entry ``i`` bitwise what matrix ``i`` alone gives.
    """
    return Spectrum(*_hermitian_eig(as_stack(m, square=True))[1:])


def _hermitian_eig(mats: np.ndarray):
    """A validated stack's Hermitian part, and the eigenvalues and eigenvectors :func:`hermitian_eig` gives."""
    sym, ok = _hermitian_part(mats, HERMITIAN_RTOL)
    if not ok.all():
        raise NotHermitian("matrix is not Hermitian within tolerance")
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolve failed: {exc}") from exc
    return sym, vals, vecs


def psd_power(m, p: float) -> np.ndarray:
    """Spectral power ``m**p`` of a PSD matrix, ``p`` finite and ``>= 0``.

    Eigenvalues below ``-PSD_CLAMP_RTOL`` times the spectral radius are a
    domain error; small negatives from rounding are clamped.  Zero
    eigenvalues map to zero for every ``p`` including ``p == 0``, so
    ``m**0`` is the orthogonal projection onto the range of ``m``.
    """
    if not 0.0 <= p < np.inf:
        raise ValueError("power must be finite and nonnegative")
    vals, vecs = _hermitian_eig(as_matrix(m, square=True))[1:]
    if float(vals[0]) < -PSD_CLAMP_RTOL * float(np.max(np.abs(vals))):
        raise NotPSD(f"eigenvalue {vals[0]:.3e} below PSD clamp threshold")
    vals = np.clip(vals, 0.0, None)
    powered = np.power(vals, p, out=np.zeros_like(vals), where=vals > 0.0)
    return (vecs * powered) @ vecs.conj().T


def spectral_norm(m):
    """Largest singular value, of one matrix or of each matrix of a stack."""
    arr = as_stack(m)
    return _per_input(np.linalg.svd(arr, compute_uv=False)[..., 0].reshape(-1), arr)


def classical_numerical_radius(m):
    """Numerical radius ``max |x* M x|`` over unit vectors ``x``.

    ``m`` is one square matrix (the result is a float) or a stack
    ``(k, n, n)`` (the result is an array of ``k`` radii, each bitwise what
    its matrix alone gives).  Each matrix is first divided by a power of
    two near its largest entry, so its norms and squares neither overflow
    nor underflow, and its radius is multiplied back.  The zero matrix
    gives 0, and two classes short-circuit to exact eigenvalues: Hermitian
    (:func:`_hermitian_part` at ``rtol = 1e-12``) and normal matrices
    (``||[M, M*]||_F <= 1e-12 ||M||_F^2``), both tested on the divided matrix.

    Every other matrix maximizes ``lambda(theta)``, the top eigenvalue of
    the Hermitian part of ``exp(i*theta) * M``: the family of
    :func:`_refined_radius` with ``P = 0`` and ``Q = M / 2``.  A real
    matrix has a numerical range symmetric about the real axis, so only
    the half circle ``[0, pi]`` of its family is solved.  Each matrix gets
    the largest value evaluated for it: at most its radius up to rounding,
    but no certified bound.  :func:`antidiagonal_radius` solves an
    anti-diagonal block ``[[0, X], [Y, 0]]`` from its blocks at half size.
    """
    arr = as_stack(m, square=True)
    mats = arr.reshape((-1,) + arr.shape[-2:])
    unit, scale = _unit(mats)
    try:
        nrm = np.linalg.svd(unit, compute_uv=False)[:, 0]
        sym, hermitian = _hermitian_part(unit, 1e-12, unit)
        herm, rest = np.flatnonzero((nrm > 0.0) & hermitian), np.flatnonzero(~hermitian)
        out = np.zeros(len(mats))  # radii of unit
        if herm.size:
            out[herm] = np.abs(np.linalg.eigvalsh(sym[herm])).max(axis=1)
        if rest.size:
            m_r = unit[rest]
            is_normal = _commutator(m_r, m_r.conj().transpose(0, 2, 1), 1e-12 * _frobenius_sq(m_r))[1]
            normal, general = rest[is_normal], rest[~is_normal]
            half = 0.5 * unit[general]
            del sym, unit, m_r  # so the grid holds only its input and its slice
            if normal.size:  # eigvals of unit would move last bits; LAPACK scales extremes itself
                out[normal] = np.abs(np.linalg.eigvals(mats[normal])).max(axis=1) / scale[normal]
            if general.size:
                out[general] = _refined_radius(None, half, nrm[general])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"radius eigensolve failed: {exc}") from exc
    return _per_input(scale * out, arr)


def antidiagonal_radius(x, y):
    """Numerical radius of ``[[0, X], [Y, 0]]``, solved at the size of ``X``.

    ``x`` and ``y`` are one pair of square blocks (the result is a float)
    or two stacks ``(k, m, m)`` of pairs, each radius bitwise what its pair
    alone gives.  ``w = max_phi ||X + e^{i phi} Y*|| / 2`` (Hirzallah,
    Kittaneh and Shebrawi, 2011), so ``w^2`` is the maximum of
    :func:`_refined_radius` with ``P = (X*X + YY*) / 4`` and ``Q = X*Y* /
    4``.  Both blocks are divided by the power of two that
    :func:`classical_numerical_radius` takes for the assembled block, whose
    radius this is to rounding.
    """
    arr, other = as_stack(x, square=True), as_stack(y, square=True)
    if arr.shape != other.shape:
        raise DimensionMismatch(f"blocks differ in shape: {arr.shape} and {other.shape}")
    xs, ys, scale = _unit(*(b.reshape((-1,) + b.shape[-2:]) for b in (arr, other)))
    x_adj, y_adj = xs.conj().transpose(0, 2, 1), ys.conj().transpose(0, 2, 1)
    p = 0.25 * (x_adj @ xs + ys @ y_adj)
    q = 0.25 * (x_adj @ y_adj)
    try:
        lip = 2.0 * np.linalg.svd(q, compute_uv=False)[:, 0]
        out = np.sqrt(np.maximum(_refined_radius(p, q, lip), 0.0))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"radius eigensolve failed: {exc}") from exc
    return _per_input(scale * out, arr)


def _unit(*stacks: np.ndarray):
    """Stacks as C-contiguous complex arrays, divided by the power of two per matrix index that puts the largest entry in ``[1, 2)``; that power."""
    stacks = [np.asarray(m, dtype=np.complex128, order="C") for m in stacks]
    top = reduce(np.maximum, (np.abs(m.view(np.float64)).max(axis=(-2, -1)) for m in stacks))
    scale = np.ldexp(1.0, np.frexp(top)[1] - 1)
    return (*(m / scale[..., None, None] for m in stacks), scale)


def _hermitian_part(mats: np.ndarray, rtol: float, unit=None):
    """``0.5 M + 0.5 M*`` of each matrix ``M`` of a stack, and whether ``||M - M*||_F <= rtol ||M||_F``.

    The half sums cannot overflow, and equal ``0.5 (M + M*)`` bit for bit
    unless an entry is below ``2**-1021``.  The test is taken on ``unit``
    (``M`` by :func:`_unit`, or the caller's), so it holds at any scale.
    """
    unit = _unit(mats)[0] if unit is None else unit
    gap = _frobenius_sq(unit - unit.conj().swapaxes(-1, -2))
    return 0.5 * mats + 0.5 * mats.conj().swapaxes(-1, -2), gap <= rtol**2 * _frobenius_sq(unit)


def _commutator(x: np.ndarray, y: np.ndarray, bound):
    """``||X Y - Y X||_F`` of stacks in :func:`_unit` form, and whether it is at most ``bound``."""
    comm = np.linalg.norm(x @ y - y @ x, axis=(-2, -1))
    return comm, comm <= bound


@np.errstate(divide="ignore", invalid="ignore")
def _refined_radius(p, q: np.ndarray, lip: np.ndarray) -> np.ndarray:
    """The largest ``lambda_max`` over ``phi`` of each ``F(phi) = P + e^{i phi} Q + e^{-i phi} Q*``.

    ``p`` is ``None`` for ``P = 0``, where ``F(phi + pi) = -F(phi)``: the
    ``_GRID``-angle circle then needs only its first half solved.  With a
    ``P`` the circle is ``_GRID // 2`` angles, all solved.  A family whose
    ``P`` and ``Q`` have no imaginary part has ``F(-phi) = conj F(phi)``, so
    ``lambda(-phi) = lambda(phi)``: it solves the ``_GRID // 4 + 1`` angles
    of ``[0, pi]`` (with ``P = 0``, of ``[0, pi / 2]``), fills in the rest
    of the circle by that symmetry, and starts Newton only from maxima on
    ``[0, pi]``; one at angle 0, where ``lambda'`` vanishes, is bracketed
    by ``[0, delta]``.  Each stack is split by that per-matrix test.  ``lip`` bounds
    ``|lambda'|`` (``2 ||Q||``).  The grid keeps each matrix's local maxima
    within ``lip * delta`` of its best.  Each starts at the vertex of the
    parabola through its grid neighbours and takes safeguarded Newton steps
    on ``lambda'`` in ``[phi - delta, phi + delta]``, the candidates of all
    matrices in one stacked ``eigh`` per round: with ``K = dF/dphi = i(e^{i
    phi} Q - e^{-i phi} Q*)``, ``lambda' = x* K x`` and ``lambda'' = x* P x
    - lambda + 2 sum_j |v_j* K x|^2 / (lambda - lambda_j)`` over the other
    eigenpairs.  A step becomes bisection when ``lambda'' >= 0`` or it
    leaves the bracket; a candidate stops when its angle has converged to
    ``_ANGLE_TOL``.

    Candidate ``c`` belongs to matrix ``owner[c]``; every per-candidate
    quantity is computed by elementwise or per-matrix numpy calls, so a
    candidate follows the same iterates whatever else is in the stack.
    Flat and converged stretches divide zero by zero; ``nan_to_num``, the
    bracket test and ``isfinite`` absorb the results.
    """

    def family(phase, q, q_adj, p=None):
        f = phase * q
        f += np.conj(phase) * q_adj
        if p is not None:
            f += p
        return f

    def apply(m_own, x):
        return (m_own @ x[:, :, None])[:, :, 0]

    if p is None:
        phases, thetas, delta = _GRID_PHASE, _THETAS, _DELTA
    else:
        phases, thetas, delta = _CIRCLE_PHASE, 2.0 * _THETAS[: _GRID // 2], 2.0 * _DELTA
    parts = [q, q.conj().transpose(0, 2, 1)] + ([] if p is None else [p])
    real = ~q.imag.any(axis=(1, 2))
    if p is not None:
        real &= ~p.imag.any(axis=(1, 2))
    size = max(1, _GRID_BYTES // (16 * q.shape[-1] ** 2))
    vals = np.empty((len(q), len(thetas)))
    for rows, count in ((~real, len(phases)), (real, _GRID // 4 + 1)):
        if not rows.any():
            continue
        sub = parts if rows.all() else [part[rows] for part in parts]
        # slices of whole matrices, or of one matrix's angles when its
        # family alone is more than ``size`` Hermitian parts
        per, span, solved = max(1, size // count), min(size, count), phases[:count]
        ends = np.empty((len(sub[0]), count, q.shape[-1]))
        for lo in range(0, len(ends), per):
            mats = [part[lo : lo + per, None] for part in sub]
            for at in range(0, count, span):
                ends[lo : lo + per, at : at + span] = np.linalg.eigvalsh(
                    family(solved[at : at + span], *mats)
                )
        arc = ends[:, :, -1]
        # lambda(phi + pi) = -lambda_min(phi), and for a real family on [0,
        # pi] also lambda(pi - phi), which fills angles pi / 2 to pi
        if p is None:
            bottom = -ends[:, :, 0]
            arc = np.concatenate([arc, bottom if count == len(phases) else bottom[:, -2::-1]], axis=1)
        if count < len(phases):  # arc is [0, pi], and lambda(-phi) = lambda(phi)
            arc = np.concatenate([arc, arc[:, -2:0:-1]], axis=1)
        vals[rows] = arc
    best = np.max(vals, axis=1)
    ring = np.concatenate([vals[:, -1:], vals, vals[:, :1]], axis=1)
    sel = (
        (vals >= ring[:, :-2])
        & (vals >= ring[:, 2:])
        & (vals + lip[:, None] * delta >= best[:, None])
    )
    sel[real, len(thetas) // 2 + 1 :] = False  # the mirror images of [0, pi]
    owner, idx = np.nonzero(sel)
    prev, mid, nxt, t = ring[:, :-2][sel], vals[sel], ring[:, 2:][sel], thetas[idx]
    lo, hi = t - delta, t + delta
    # lambda'(0) of a real family is exactly zero, so its bracket could not
    # shrink; by symmetry, (0, delta] holds a maximum near angle 0
    lo[real[owner] & (idx == 0)] = 0.0
    shift = np.nan_to_num(0.5 * delta * (prev - nxt) / (prev - 2 * mid + nxt))
    t = t + np.clip(shift, -0.5 * delta, 0.5 * delta)
    own = [part[owner] for part in parts]
    for _ in range(_MAX_ROUNDS):
        phase = np.exp(1j * t)[:, None]
        lams, vecs = np.linalg.eigh(family(phase[:, :, None], *own))
        lam, x = lams[:, -1], vecs[:, :, -1]
        np.maximum.at(best, owner, lam)
        kx = 1j * (phase * apply(own[0], x) - np.conj(phase) * apply(own[1], x))
        coup = apply(vecs.conj().transpose(0, 2, 1), kx)
        d1 = coup[:, -1].real
        gaps = lam[:, None] - lams[:, :-1]
        curv = -lam if p is None else (x.conj() * apply(own[2], x)).sum(axis=1).real - lam
        d2 = curv + 2.0 * np.sum(np.abs(coup[:, :-1]) ** 2 / gaps, axis=1)
        step = t - d1 / d2
        lo = np.where(d1 > 0.0, t, lo)
        hi = np.where(d1 < 0.0, t, hi)
        newton = np.isfinite(step) & (d2 < 0.0) & (step >= lo) & (step <= hi)
        t_new = np.where(newton, step, 0.5 * (lo + hi))
        moving = np.abs(t_new - t) > _ANGLE_TOL
        if not moving.any():
            break
        t, lo, hi = t_new[moving], lo[moving], hi[moving]
        owner, own = owner[moving], [part[moving] for part in own]
    return best
