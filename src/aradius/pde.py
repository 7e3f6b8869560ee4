"""Weighted stability and preconditioner reports for a 1-D elliptic operator.

Discretizes ``-(a(x) u')' + c u`` on an interval with homogeneous
Dirichlet conditions using the conservative second-order stencil

    (T_h u)_j = [-a_{j-1/2} u_{j-1} + (a_{j-1/2} + a_{j+1/2}) u_j
                 - a_{j+1/2} u_{j+1}] / h^2 + c u_j,

with every diagonal entry following the same conservative pattern,
boundary rows included.  The diagonal of coefficient samples
``A_h = diag(a(x_j))`` plays the weight role: stability of the solve and
quality of a preconditioner are measured in the ``A_h``-seminorm and the
``A_h``-numerical radius rather than in the unweighted 2-norm.

The per-step contraction of a Richardson iteration by the radius of
``I - P^{-1} T_h`` is not a theorem (the radius is not submultiplicative
at exponent 1), so the preconditioner report measures observed decay and
flags how it compares with the radius power curve instead of asserting
it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .inequalities import BoundParams, BoundReport, _report
from .linalg import (
    DIM_CAP,
    DomainError,
    as_integer,
    as_matrix,
    classical_numerical_radius,
    spectral_norm,
)
from .semihilbert import (
    DegenerateContext,
    SemiInnerContext,
    _check_dim,
    _reduced_rows,
    _sampled_radius,
    make_context,
    reduce,
    vec_seminorm,
)


class InvalidSpec(DomainError):
    """Discretization request is malformed (grid, sign, or ellipticity)."""


class SingularOperator(DomainError):
    """Assembled operator is numerically singular."""


class SingularPreconditioner(DomainError):
    """Requested preconditioner is numerically singular."""


@dataclass(frozen=True)
class EllipticSpec:
    """Problem description: coefficients, reaction constant, grid size.

    ``coeff_a`` holds ascending polynomial coefficients of the diffusion
    coefficient; the default ``(1, 0, 1)`` is ``1 + x^2``.  Ellipticity
    (``a > 0``) is enforced at the grid midpoints on construction of the
    discrete operator.  ``n_points`` is at most ``2**20``, so a run of
    dyadic refinements stops before its grids outgrow memory.
    """

    n_points: int = 8
    coeff_a: tuple[float, ...] = (1.0, 0.0, 1.0)
    coeff_c: float = 1.0
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if not 1 <= as_integer("n_points", self.n_points, InvalidSpec) <= 2**20:
            raise InvalidSpec(f"n_points must be between 1 and 2**20, got {self.n_points}")
        if not (self.coeff_a and np.all(np.isfinite(self.coeff_a))):
            raise InvalidSpec("coeff_a must have at least one coefficient, all finite")
        if not (np.isfinite(self.coeff_c) and self.coeff_c >= 0.0):
            raise InvalidSpec("coeff_c must be finite and nonnegative")
        lo, hi = self.domain
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise InvalidSpec("domain must be a nondegenerate finite interval")

    @property
    def h(self) -> float:
        lo, hi = self.domain
        return (hi - lo) / (self.n_points + 1)

    def grid(self) -> np.ndarray:
        lo, _ = self.domain
        return lo + self.h * np.arange(1, self.n_points + 1)

    def a_of(self, x) -> np.ndarray:
        return npoly.polyval(np.asarray(x, dtype=float), list(self.coeff_a))


def assemble_fd(spec: EllipticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the stiffness matrix and the diagonal coefficient weight.

    Returns ``(T_h, A_h)``: the real symmetric tridiagonal operator and
    ``A_h = diag(a(x_j))``.  Raises :class:`InvalidSpec` when fewer than
    two or more than ``DIM_CAP`` interior points are requested (before
    anything is allocated), ellipticity fails at a midpoint, or an entry
    of ``T_h`` or ``A_h`` overflows.
    """
    n = spec.n_points
    if n > DIM_CAP:
        raise InvalidSpec(f"{n} interior points exceed the dense cap {DIM_CAP}")
    diag, off, a_x = _stencil(spec)
    t_h = np.zeros((n, n))
    t_h[np.arange(n), np.arange(n)] = diag
    t_h[np.arange(n - 1), np.arange(1, n)] = off
    t_h[np.arange(1, n), np.arange(n - 1)] = off
    return t_h, np.diag(a_x)


def _stencil(spec: EllipticSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``T_h``'s diagonal and off-diagonal, and ``a`` on the grid, checked as in :func:`assemble_fd`."""
    if spec.n_points < 2:
        raise InvalidSpec("assembly needs at least 2 interior points")
    h = spec.h
    x = spec.grid()
    with np.errstate(over="ignore", invalid="ignore"):
        a_mid = spec.a_of(np.concatenate(([x[0] - 0.5 * h], x + 0.5 * h)))
        a_x = spec.a_of(x)
        diag = (a_mid[:-1] + a_mid[1:]) / h**2 + spec.coeff_c
        off = -a_mid[1:-1] / h**2
    if not np.all(a_mid > 0.0):  # a NaN coefficient fails too
        raise InvalidSpec("diffusion coefficient must be positive on the domain")
    if not np.isfinite(np.concatenate([a_x, diag, off])).all():
        raise InvalidSpec("the discrete operator or weight overflows")
    return diag, off, a_x


def _solve_context(spec: EllipticSpec):
    t_h, a_h = assemble_fd(spec)
    ctx = make_context(a_h)
    eigvals = np.linalg.eigvalsh(t_h)
    if np.min(np.abs(eigvals)) <= 1e-12 * np.max(np.abs(eigvals)):
        raise SingularOperator("assembled operator is numerically singular")
    return t_h, a_h, ctx


def stability_report(spec: EllipticSpec, samples: int = 100, seed: int = 0) -> BoundReport:
    """Certify the discrete solve bound in the coefficient seminorm.

    Checks ``||T_h^{-1} f||_{A_h} <= ||T_h^{-1}||_{A_h} ||f||_{A_h}`` on
    random right-hand sides (the literally-true stability estimate) and
    reports the radius ``w_{A_h}(T_h^{-1})`` alongside.  The radius can
    undercut the norm, which is why only the norm inequality is asserted.
    ``samples > 0`` adds ``radius_inverse_sampled``, a 10000-draw lower
    bound for the radius.  :class:`SingularOperator` is raised for a
    singular ``T_h``, and for a weight with a numerically zero eigenvalue:
    ``T_h^{-1}`` need not map ``ker(A_h)`` into itself, and then the ratios
    ``||T_h^{-1} f||_{A_h} / ||f||_{A_h}`` are unbounded.

    The right-hand sides are drawn as one ``(samples, 2, n)`` array (each
    sample's real part, then its imaginary part), and the solves and both
    seminorms run stacked over all samples, each bitwise what one sample
    alone gives.  A right-hand side with ``||f||_{A_h}`` below ``1e-12``
    times the square root of the weight's largest eigenvalue is skipped;
    the floor scales with the weight, so the ratio does not.
    The sampled radius draws its samples in the same layout, in reduced
    coordinates, in blocks on a helper thread that is joined before the
    call returns (see :func:`~aradius.semihilbert.a_numerical_radius_lower`).
    It holds a few blocks, not its 10000 samples; the kernel radius solves
    its grid in 1 MiB slices.  ``samples == 0`` starts no thread.
    """
    samples = as_integer("samples", samples, InvalidSpec)
    if samples < 0:
        raise InvalidSpec(f"samples must be nonnegative, got {samples}")
    t_h, _, ctx = _solve_context(spec)
    if ctx.rank < spec.n_points:
        raise SingularOperator("weight is singular, and T_h^{-1} need not map ker(A_h) into itself")
    t_inv = np.linalg.inv(t_h)
    tilde = reduce(ctx, t_inv)
    norm_inv = spectral_norm(tilde)
    radius_inv = classical_numerical_radius(tilde)
    # each sample draws its real part, then its imaginary part
    parts = np.random.default_rng(seed).standard_normal((samples, 2, spec.n_points))
    f = parts[:, 0] + 1j * parts[:, 1]
    nf = np.linalg.norm(_reduced_rows(ctx, f), axis=1)
    live = nf >= 1e-12 * np.sqrt(ctx.lam.max())
    u = (t_inv @ f[live, :, None])[:, :, 0]
    worst = float(np.max(np.linalg.norm(_reduced_rows(ctx, u), axis=1) / nf[live], initial=0.0))
    inter = {
        "radius_inverse": radius_inv,
        "seminorm_inverse": norm_inv,
        "sampled_amplification": worst,
        "h": spec.h,
    }
    if samples:
        inter["radius_inverse_sampled"] = _sampled_radius(ctx, tilde, 10000, seed)
    return _report("pde_stability", worst, norm_inv, inter, True, BoundParams())


@dataclass(frozen=True)
class PreconditionerReport:
    """Observed Richardson decay next to the iteration-matrix radius."""

    p_kind: str
    rho: float
    seminorm_m: float
    iterations: int
    error_ratios: tuple[float, ...]
    monotone: bool
    within_power_bound: bool

    @property
    def contractive(self) -> bool:
        return self.rho < 1.0


def richardson_contraction(
    ctx: SemiInnerContext,
    t: np.ndarray,
    p: np.ndarray,
    iterations: int = 25,
    seed: int = 0,
    p_kind: str = "custom",
) -> PreconditionerReport:
    """Iterate ``e <- (I - P^{-1} T) e`` and track seminorm decay.

    ``error_ratios[k]`` is ``||e_k||_{A} / ||e_0||_{A}`` for
    ``k = 1..iterations``.  ``within_power_bound`` records whether every
    ratio stayed at or below ``rho^k`` (up to roundoff); it is reported,
    not asserted, since a radius below one does not by itself force
    single-step contraction.

    The steps ``e <- M e`` run one after another; the seminorms of all
    ``iterations`` errors are then taken in one stacked pass, each bitwise
    what :func:`~aradius.semihilbert.vec_seminorm` gives.  A starting
    error with ``||e_0||_A`` below ``1e-12 sqrt(lam_max)`` is replaced by
    all ones, so the ratios do not depend on the weight's scale.  A
    rank-zero weight raises :class:`~aradius.semihilbert.DegenerateContext`,
    and a ``P`` whose smallest singular value is at most ``1e-12`` times its
    largest (a zero ``P`` too) :class:`SingularPreconditioner`, at any scale.
    ``T`` and ``P`` are checked as :func:`~aradius.semihilbert.reduce`
    checks an operator: square, finite, and of the weight's dimension.
    """
    iterations = as_integer("iterations", iterations, InvalidSpec)
    if iterations < 1:
        raise InvalidSpec("iterations must be at least 1")
    if ctx.rank == 0:
        raise DegenerateContext("weight has rank zero")
    t, p = (as_matrix(m, square=True) for m in (t, p))
    _check_dim(ctx, t)
    _check_dim(ctx, p)
    svals = np.linalg.svd(p, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise SingularPreconditioner("preconditioner is numerically singular")
    m = np.eye(ctx.dim) - np.linalg.solve(p, t)
    tilde = reduce(ctx, m)
    rho = classical_numerical_radius(tilde)
    seminorm_m = spectral_norm(tilde)
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    n0 = vec_seminorm(ctx, e)
    if n0 < 1e-12 * np.sqrt(ctx.lam.max()):
        e = np.ones(ctx.dim, dtype=np.complex128)
        n0 = vec_seminorm(ctx, e)
    with np.errstate(over="ignore", invalid="ignore"):  # _reduced_rows rejects overflows
        errors = [e := m @ e for _ in range(iterations)]
    ratios = (np.linalg.norm(_reduced_rows(ctx, np.array(errors)), axis=1) / n0).tolist()
    monotone = all(
        b <= a * (1.0 + 1e-12) + 1e-15 for a, b in zip([1.0] + ratios[:-1], ratios)
    )
    within = all(
        ratio <= rho**k * (1.0 + 1e-8) + 1e-12
        for k, ratio in enumerate(ratios, start=1)
    )
    return PreconditionerReport(
        p_kind=p_kind,
        rho=float(rho),
        seminorm_m=float(seminorm_m),
        iterations=iterations,
        error_ratios=tuple(ratios),
        monotone=monotone,
        within_power_bound=within,
    )


def preconditioner_report(
    spec: EllipticSpec,
    p_kind: str = "jacobi",
    iterations: int = 25,
    seed: int = 0,
) -> PreconditionerReport:
    """Build the named preconditioner for ``T_h`` and measure Richardson decay."""
    t_h, _, ctx = _solve_context(spec)
    if p_kind == "jacobi":
        p = np.diag(np.diag(t_h))
    elif p_kind == "identity":
        p = np.eye(spec.n_points)
    else:
        raise InvalidSpec(f"unknown preconditioner kind {p_kind!r}")
    return richardson_contraction(ctx, t_h, p, iterations, seed, p_kind=p_kind)


def truncation_error(spec: EllipticSpec) -> float:
    """Max-norm consistency defect of the stencil against ``u = sin(pi x)``.

    Maps the interval to ``[0, 1]`` internally, applies the stencil of
    ``T_h`` to the sampled ``sin(pi s)`` in ``O(n)`` memory, at any grid
    size, and compares with the continuous ``-(a u')' + c u`` sampled on
    the grid.
    """
    diag, off, a_x = _stencil(spec)
    lo, hi = spec.domain
    width = hi - lo
    x = spec.grid()
    s = (x - lo) / width
    u = np.sin(np.pi * s)
    du = np.cos(np.pi * s) * np.pi / width
    d2u = -np.sin(np.pi * s) * (np.pi / width) ** 2
    da_x = npoly.polyval(x, npoly.polyder(list(spec.coeff_a)))
    continuous = -(da_x * du + a_x * d2u) + spec.coeff_c * u
    t_u = diag * u
    t_u[:-1] += off * u[1:]
    t_u[1:] += off * u[:-1]
    return float(np.max(np.abs(t_u - continuous)))


def refined_specs(spec: EllipticSpec, levels: int = 3) -> list[EllipticSpec]:
    """The spec and its dyadic refinements (h, h/2, h/4, ...); ``levels`` is at least 1."""
    if as_integer("levels", levels, InvalidSpec) < 1:
        raise InvalidSpec(f"levels must be at least 1, got {levels}")
    out = []
    n = spec.n_points
    for _ in range(levels):
        out.append(replace(spec, n_points=n))
        n = 2 * n + 1
    return out


def consistency_order(spec: EllipticSpec, levels: int = 3) -> float:
    """Least-squares slope of log(defect) against log(h) over ``levels >= 2`` refinements."""
    if as_integer("levels", levels, InvalidSpec) < 2:
        raise InvalidSpec(f"a slope needs at least 2 levels, got {levels}")
    specs = refined_specs(spec, levels)
    hs = np.array([s.h for s in specs])
    errs = np.array([truncation_error(s) for s in specs])
    if np.any(errs <= 0.0):
        return float("inf")
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)


def convergence_rows(spec: EllipticSpec, levels: int = 3) -> list[dict]:
    """Stability quantities and observed order per refinement level.

    Row fields: ``N``, ``h``, ``norm`` (inverse seminorm), ``radius``
    (inverse radius), ``observed_order`` (defect order between this level
    and the previous one; empty on the first).
    """
    rows = []
    prev = None
    for level_spec in refined_specs(spec, levels):
        rep = stability_report(level_spec, samples=0)
        err = truncation_error(level_spec)
        order = ""
        if prev is not None and err > 0.0 and prev > 0.0:
            order = math.log2(prev / err)
        rows.append(
            {
                "N": level_spec.n_points,
                "h": level_spec.h,
                "norm": rep.intermediates["seminorm_inverse"],
                "radius": rep.intermediates["radius_inverse"],
                "observed_order": order,
            }
        )
        prev = err
    return rows


def write_convergence_csv(path, spec: EllipticSpec, levels: int = 3) -> None:
    rows = convergence_rows(spec, levels)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["N", "h", "norm", "radius", "observed_order"])
        writer.writeheader()
        writer.writerows(rows)
