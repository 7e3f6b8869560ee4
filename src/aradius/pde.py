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
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from numpy.polynomial import polynomial as npoly

from .inequalities import BoundParams, BoundReport
from .linalg import DomainError, spectral_norm
from .semihilbert import (
    SemiInnerContext,
    a_adjoint,
    a_numerical_radius,
    a_numerical_radius_lower,
    make_context,
    op_seminorm,
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
    discrete operator.
    """

    n_points: int = 8
    coeff_a: tuple[float, ...] = (1.0, 0.0, 1.0)
    coeff_c: float = 1.0
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.n_points < 1:
            raise InvalidSpec("n_points must be at least 1")
        if not self.coeff_a:
            raise InvalidSpec("coeff_a must have at least one coefficient")
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
    two interior points are requested or ellipticity fails at a midpoint.
    """
    if spec.n_points < 2:
        raise InvalidSpec("assembly needs at least 2 interior points")
    n, h = spec.n_points, spec.h
    x = spec.grid()
    a_mid = spec.a_of(np.concatenate(([x[0] - 0.5 * h], x + 0.5 * h)))
    if np.min(a_mid) <= 0.0:
        raise InvalidSpec("diffusion coefficient must be positive on the domain")
    t_h = np.zeros((n, n))
    diag = (a_mid[:-1] + a_mid[1:]) / h**2 + spec.coeff_c
    off = -a_mid[1:-1] / h**2
    t_h[np.arange(n), np.arange(n)] = diag
    t_h[np.arange(n - 1), np.arange(1, n)] = off
    t_h[np.arange(1, n), np.arange(n - 1)] = off
    a_h = np.diag(spec.a_of(x))
    return t_h, a_h


def _solve_context(spec: EllipticSpec):
    t_h, a_h = assemble_fd(spec)
    ctx = make_context(a_h)
    eigvals = np.linalg.eigvalsh(t_h)
    if np.min(np.abs(eigvals)) <= 1e-12 * np.max(np.abs(eigvals)):
        raise SingularOperator("assembled operator is numerically singular")
    return t_h, a_h, ctx


def stability_report(
    spec: EllipticSpec, tol: float | None = None, samples: int = 100, seed: int = 0
) -> BoundReport:
    """Certify the discrete solve bound in the coefficient seminorm.

    Checks ``||T_h^{-1} f||_{A_h} <= ||T_h^{-1}||_{A_h} ||f||_{A_h}`` on
    random right-hand sides (the literally-true stability estimate) and
    reports the radius ``w_{A_h}(T_h^{-1})`` alongside, together with the
    half-sum bound ``(||T_h^{-1}||_{A_h} + ||(T_h^#)^{-1}||_{A_h}) / 2``
    that the anti-diagonal embedding of the inverse satisfies.  The
    radius can undercut the norm, which is why only the norm inequality
    is asserted.  ``samples > 0`` adds ``radius_inverse_sampled``, a
    10000-draw lower bound for the radius.  ``tol`` changes no result.
    """
    t_h, _, ctx = _solve_context(spec)
    t_inv = np.linalg.inv(t_h)
    norm_inv = op_seminorm(ctx, t_inv)
    tol = tol if tol is not None else 1e-8 * max(1.0, norm_inv)
    radius_inv = a_numerical_radius(ctx, t_inv, tol)
    adj = a_adjoint(ctx, t_h)
    adj_eigs = np.linalg.eigvals(adj)
    if np.min(np.abs(adj_eigs)) <= 1e-12 * np.max(np.abs(adj_eigs)):
        raise SingularOperator("adjoint operator is numerically singular")
    norm_adj_inv = op_seminorm(ctx, np.linalg.inv(adj))
    half_sum = 0.5 * (norm_inv + norm_adj_inv)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        f = rng.standard_normal(spec.n_points) + 1j * rng.standard_normal(spec.n_points)
        nf = vec_seminorm(ctx, f)
        if nf < 1e-12:
            continue
        worst = max(worst, vec_seminorm(ctx, t_inv @ f) / nf)
    slack = norm_inv - worst
    inter = {
        "radius_inverse": radius_inv,
        "half_sum_bound": half_sum,
        "seminorm_inverse": norm_inv,
        "sampled_amplification": worst,
        "h": spec.h,
    }
    if samples:
        inter["radius_inverse_sampled"] = a_numerical_radius_lower(
            ctx, t_inv, samples=10000, seed=seed
        )
    return BoundReport(
        inequality_id="pde_stability",
        lhs=float(worst),
        rhs=float(norm_inv),
        slack=float(slack),
        rel_slack=float(slack / max(1.0, abs(norm_inv))),
        intermediates=MappingProxyType({k: float(v) for k, v in inter.items()}),
        hypotheses_ok=True,
        params=BoundParams(),
    )


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
    """
    if iterations < 1:
        raise DomainError("iterations must be at least 1")
    t = np.asarray(t, dtype=np.complex128)
    p = np.asarray(p, dtype=np.complex128)
    svals = np.linalg.svd(p, compute_uv=False)
    if svals[-1] <= 1e-12 * max(svals[0], 1.0):
        raise SingularPreconditioner("preconditioner is numerically singular")
    m = np.eye(ctx.dim) - np.linalg.solve(p, t)
    rho = a_numerical_radius(ctx, m, 1e-10 * max(1.0, spectral_norm(m)))
    seminorm_m = op_seminorm(ctx, m)
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(ctx.dim) + 1j * rng.standard_normal(ctx.dim)
    n0 = vec_seminorm(ctx, e)
    if n0 < 1e-12:
        e = np.ones(ctx.dim, dtype=np.complex128)
        n0 = vec_seminorm(ctx, e)
    ratios = []
    for _ in range(iterations):
        e = m @ e
        ratios.append(vec_seminorm(ctx, e) / n0)
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
        error_ratios=tuple(float(v) for v in ratios),
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

    Maps the interval to ``[0, 1]`` internally, applies ``T_h`` to the
    sampled ``sin(pi s)``, and compares with the continuous
    ``-(a u')' + c u`` sampled on the grid.
    """
    t_h, _ = assemble_fd(spec)
    lo, hi = spec.domain
    width = hi - lo
    x = spec.grid()
    s = (x - lo) / width
    u = np.sin(np.pi * s)
    du = np.cos(np.pi * s) * np.pi / width
    d2u = -np.sin(np.pi * s) * (np.pi / width) ** 2
    a_x = spec.a_of(x)
    da_x = npoly.polyval(x, npoly.polyder(list(spec.coeff_a)))
    continuous = -(da_x * du + a_x * d2u) + spec.coeff_c * u
    return float(np.max(np.abs(t_h @ u - continuous)))


def refined_specs(spec: EllipticSpec, levels: int = 3) -> list[EllipticSpec]:
    """The spec and its dyadic refinements (h, h/2, h/4, ...)."""
    out = []
    n = spec.n_points
    for _ in range(levels):
        out.append(
            EllipticSpec(
                n_points=n,
                coeff_a=spec.coeff_a,
                coeff_c=spec.coeff_c,
                domain=spec.domain,
            )
        )
        n = 2 * n + 1
    return out


def consistency_order(spec: EllipticSpec, levels: int = 3) -> float:
    """Least-squares slope of log(defect) against log(h) over refinements."""
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
    (inverse radius), ``bound`` (half-sum), ``observed_order`` (defect
    order between this level and the previous one; empty on the first).
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
                "bound": rep.intermediates["half_sum_bound"],
                "observed_order": order,
            }
        )
        prev = err
    return rows


def write_convergence_csv(path, spec: EllipticSpec, levels: int = 3) -> None:
    rows = convergence_rows(spec, levels)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["N", "h", "norm", "radius", "bound", "observed_order"]
        )
        writer.writeheader()
        writer.writerows(rows)
