"""Executable bound checkers for weighted numerical-radius inequalities.

Each registered inequality id maps to a checker that evaluates the left
and right sides of one displayed bound on concrete inputs and returns a
:class:`BoundReport`.  Right-hand sides are assembled term by term as
displayed (no algebraic simplification), so a genuinely violated display
surfaces as negative slack instead of being normalized away.

Five displays ship with corrected right sides because the published
form is refuted either by an exact equality case (the identity weight
with identity blocks turns every bound in this family into an equality,
which pins the constants) or by an explicit counterexample; the
as-printed right side is kept in the report intermediates under
``rhs_as_displayed`` for audit:

* ``kz``: the final term is ``4 w^2`` (the displayed ``2 w^2`` fails at
  the identity equality case, 14 < 16).
* ``college1``: the middle term is ``(1/4) w^2`` (displayed
  ``(1/8) w``, which is also dimensionally odd next to the other terms).
* ``thm_2_16``: the leading factors are ``(2b+1)/(16(b+1))`` and
  ``(2b+3)/(8(b+1))`` (the display divides by an extra 4; at the
  identity it would give 1/4 < 1).
* ``thm_2_7``: the certified value keeps all four power terms produced
  by the Schwarz/AM-GM argument, ``max`` over the two corner pairings;
  the two-term half-sum alone fails away from ``l = 1/2`` (Y = 0,
  ``l -> 0`` leaves rhs -> 1/2 while the radius is ``|X|/2``).
* ``thm_2_8``: the optimized-in-``l`` family that is actually sound
  minimizes at ``l = 1/2``, giving the half-sum of the two seminorms;
  the unconstrained two-term infimum drops below the radius whenever
  the seminorms differ.

Hypothesis failures (an operand that moves ``ker(A)``, a commutator that
is not small where one is required) never raise: the report is flagged
``hypotheses_ok=False`` and callers treat it as advisory.

Trial axis: the 25 operator bounds (matrix, single-operator and product
kinds) are evaluated by :func:`evaluate_operator_bounds` on a batch of
trials whose weights share dimension and rank.  Reduced operands,
parameters and every intermediate carry a leading trial axis, so each
radius, SVD and norm of a formula is one stacked numpy call per batch.
The single-trial entry points (:func:`check_matrix_bound`,
:func:`check_single_operator_bound`, :func:`check_product_bound`,
:func:`evaluate_bound`) are batches of one through the same code, and a
trial's report does not depend on the rest of its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import product as _cartesian
from types import MappingProxyType, SimpleNamespace
from typing import Callable, Mapping, Sequence

import numpy as np

from .linalg import (
    DomainError,
    as_matrix,
    as_vector,
    classical_numerical_radius,
    psd_power,
    spectral_norm,
)
from .semihilbert import (
    SemiInnerContext,
    is_a_positive,
    op_seminorm,
    preserves_kernel,
    reduce,
    semi_inner,
    stack_contexts,
    vec_seminorm,
)

#: Reports with relative slack at or above this floor count as satisfied.
VIOLATION_RTOL = -1e-8

#: Registry kinds of the operator bounds, which evaluate in batches.
OPERATOR_KINDS = ("matrix", "single", "product")

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class UnknownId(DomainError):
    """Inequality id is not in the registry."""


class DomainViolation(DomainError):
    """A parameter lies outside the inequality's domain."""


class NotUnitVector(DomainError):
    """A vector that must be A-unit is not."""


class NotAPositive(DomainError):
    """Operator is not A-positive where the bound requires it."""


@dataclass(frozen=True)
class BoundParams:
    """Parameters shared across the registered bounds.

    ``q`` defaults to the exponent conjugate to ``p``.  Construction
    validates the common domains; per-id extras (for example
    ``p*r >= 2`` where a bound needs it) are checked by the checker.
    """

    alpha: complex = 2.0 + 0.0j
    beta: float = 1.0
    r: float = 1.0
    mu: float = 0.5
    lam: float = 0.5
    p: float = 2.0
    q: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        if self.q is None:
            if self.p <= 1.0:
                raise DomainViolation("p must exceed 1")
            object.__setattr__(self, "q", self.p / (self.p - 1.0))
        if abs(self.alpha) == 0.0:
            raise DomainViolation("alpha must be nonzero")
        if not self.beta >= 0.0:
            raise DomainViolation("beta must be nonnegative")
        if not self.r >= 1.0:
            raise DomainViolation("r must be at least 1")
        if not 0.0 <= self.mu <= 1.0:
            raise DomainViolation("mu must lie in [0, 1]")
        if not 0.0 <= self.lam <= 1.0:
            raise DomainViolation("lam must lie in [0, 1]")
        if not (self.p > 1.0 and self.q > 1.0):
            raise DomainViolation("p and q must exceed 1")
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > 1e-12:
            raise DomainViolation("p and q must be conjugate exponents")


@dataclass(frozen=True)
class BoundReport:
    """Outcome of evaluating one inequality on concrete inputs.

    ``slack = rhs - lhs`` exactly as stored; ``rel_slack`` rescales by
    ``max(1, |rhs|)``.  ``hypotheses_ok=False`` marks the report
    advisory: the inputs did not satisfy the bound's hypotheses, so the
    sign of the slack proves nothing.
    """

    inequality_id: str
    lhs: float
    rhs: float
    slack: float
    rel_slack: float
    intermediates: Mapping[str, float]
    hypotheses_ok: bool
    params: BoundParams

    @property
    def violated(self) -> bool:
        return self.hypotheses_ok and self.rel_slack < VIOLATION_RTOL


@dataclass(frozen=True)
class ParamGrid:
    """Finite parameter ranges swept by :func:`optimize_params`."""

    alphas: tuple = (2.0 + 0.0j,)
    betas: tuple = (1.0,)
    rs: tuple = (1.0,)
    mus: tuple = (0.5,)
    lams: tuple = (0.5,)
    ps: tuple = (2.0,)


def _report(iid, lhs, rhs, intermediates, hypotheses_ok, params) -> BoundReport:
    slack = float(rhs) - float(lhs)
    return BoundReport(
        inequality_id=iid,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=slack,
        rel_slack=slack / max(1.0, abs(float(rhs))),
        intermediates=MappingProxyType({k: float(v) for k, v in intermediates.items()}),
        hypotheses_ok=bool(hypotheses_ok),
        params=params,
    )


# -- coefficient helpers ------------------------------------------------


def _max1(v):
    return np.maximum(1.0, v)


def _delta_pair(alpha, beta):
    aa = abs(alpha) ** 2
    m2 = _max1(abs(alpha - 1.0) ** 2)
    d1 = (2.0 * (beta + 1.0) * m2 + 2.0 * beta) / (aa * (beta + 1.0))
    d2 = 2.0 / (aa * (beta + 1.0))
    return d1, d2


def _chi(alpha, beta):
    aa = abs(alpha) ** 2
    m1 = _max1(abs(alpha - 1.0))
    m2 = _max1(abs(alpha - 1.0) ** 2)
    den = aa * (beta + 1.0)
    chi1 = (beta + (beta + 1.0) * m2) / den
    chi2 = (1.0 + 2.0 * (beta + 1.0) * m1) / den
    chi3 = (2.0 * beta + 2.0 * (beta + 1.0) * m2) / den
    chi4 = 2.0 / den
    return chi1, chi2, chi3, chi4


# -- reduced-coordinate factors -----------------------------------------


class _Factors:
    """A stack ``(k, r, r)`` of reduced operands ``T~ = U S V*`` with their SVDs.

    ``abs_pow(p) = |T~|^p = V S^p V*`` and ``adj_abs_pow(p) = |T~*|^p =
    U S^p U*`` follow the ``0^p = 0`` convention of
    :func:`aradius.linalg.psd_power`; ``S[:, 0]`` is the seminorm of each
    trial's ``T``.  An exponent is a scalar or one value per trial.
    """

    def __init__(self, t, u, s, vh):
        self.t, self.u, self.s, self.vh = t, u, s, vh

    @classmethod
    def of(cls, t: np.ndarray) -> "_Factors":
        return cls(t, *np.linalg.svd(t))

    def split(self, parts: int) -> list["_Factors"]:
        """The stack cut into ``parts`` consecutive stacks of equal length."""
        size = len(self.t) // parts
        cuts = [slice(j * size, (j + 1) * size) for j in range(parts)]
        return [_Factors(self.t[c], self.u[c], self.s[c], self.vh[c]) for c in cuts]

    @property
    def norm(self) -> np.ndarray:
        return self.s[:, 0]

    def _spow(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=np.float64)[..., None]
        return np.power(self.s, p, out=np.zeros_like(self.s), where=self.s > 0.0)

    def norm_pow(self, p) -> np.ndarray:
        """``|| |T~|^p || = || |T~*|^p ||``."""
        return self._spow(p)[:, 0]

    def abs_pow(self, p) -> np.ndarray:
        return (_adj(self.vh) * self._spow(p)[:, None, :]) @ self.vh

    def adj_abs_pow(self, p) -> np.ndarray:
        return (self.u * self._spow(p)[:, None, :]) @ _adj(self.u)


def _adj(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _each(fn, *stacks):
    """``fn`` of each of several equal-shape stacks, in one stacked call."""
    return np.split(fn(np.concatenate(stacks)), len(stacks))


def _antidiag(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    zero = np.zeros_like(x)
    return np.block([[zero, x], [y, zero]])


def _reduce_vector(ctx: SemiInnerContext, v: np.ndarray) -> np.ndarray:
    """``Lambda^{1/2} V_r* v``, whose Euclidean norm is ``||v||_A``."""
    return ctx.sqrt_lam * (ctx.v_r.conj().T @ v)


# -- scalar lemmas -------------------------------------------------------


def check_scalar_lemma(
    inequality_id: str, values: Sequence[float], params: BoundParams | None = None
) -> BoundReport:
    """Evaluate one of the scalar lemmas on positive inputs.

    ``jensen`` takes two values and reports the full chain
    ``a^t b^(1-t) <= t a + (1-t) b <= (t a^r + (1-t) b^r)^(1/r)`` with the
    middle term and both link slacks in the intermediates; ``bohr`` takes
    any tuple and checks ``(sum a_i)^r <= n^(r-1) sum a_i^r``.
    """
    params = params or BoundParams()
    vals = [float(v) for v in values]
    if inequality_id == "jensen":
        if len(vals) != 2:
            raise DomainViolation("jensen takes exactly two values")
        a, b = vals
        if a <= 0.0 or b <= 0.0:
            raise DomainViolation("jensen requires positive values")
        lam, r = params.lam, params.r
        lhs = a**lam * b ** (1.0 - lam)
        mid = lam * a + (1.0 - lam) * b
        rhs = (lam * a**r + (1.0 - lam) * b**r) ** (1.0 / r)
        inter = {
            "arithmetic_mean": mid,
            "slack_left": mid - lhs,
            "slack_right": rhs - mid,
        }
        return _report("jensen", lhs, rhs, inter, True, params)
    if inequality_id == "bohr":
        if not vals:
            raise DomainViolation("bohr needs at least one value")
        if any(v <= 0.0 for v in vals):
            raise DomainViolation("bohr requires positive values")
        r = params.r
        n = len(vals)
        lhs = sum(vals) ** r
        rhs = n ** (r - 1.0) * sum(v**r for v in vals)
        return _report("bohr", lhs, rhs, {"n": n}, True, params)
    raise UnknownId(f"unknown scalar lemma {inequality_id!r}")


# -- vector lemmas -------------------------------------------------------

# Each formula returns (lhs, rhs, intermediates); shared prep handles the
# semi-inner products and the A-unit check on e.

def _vec_quantities(ctx, a, b, e):
    av = as_vector(a, dim=ctx.dim)
    bv = as_vector(b, dim=ctx.dim)
    ev = as_vector(e, dim=ctx.dim)
    ne = vec_seminorm(ctx, ev)
    if abs(ne - 1.0) > 1e-10:
        raise NotUnitVector(f"reference vector has seminorm {ne!r}, expected 1")
    return {
        "na": vec_seminorm(ctx, av),
        "nb": vec_seminorm(ctx, bv),
        "ab": abs(semi_inner(ctx, av, bv)),
        "ae": abs(semi_inner(ctx, av, ev)),
        "eb": abs(semi_inner(ctx, ev, bv)),
    }


def _v_buz_general(q, params):
    mod = abs(params.alpha)
    lhs = q["ae"] * q["eb"]
    rhs = (_max1(abs(params.alpha - 1.0)) * q["na"] * q["nb"] + q["ab"]) / mod
    return lhs, rhs, {}


def _v_buz_half(q, params):
    lhs = q["ae"] * q["eb"]
    rhs = 0.5 * (q["na"] * q["nb"] + q["ab"])
    return lhs, rhs, {}


def _v_mix_al_be(q, params):
    al, be = params.alpha, params.beta
    den = abs(al) ** 2 * (1.0 + be)
    c1 = (be + (be + 1.0) * _max1(abs(al - 1.0) ** 2)) / den
    c2 = (1.0 + 2.0 * (be + 1.0) * _max1(abs(al - 1.0))) / den
    lhs = (q["ae"] * q["eb"]) ** 2
    rhs = c1 * q["na"] ** 2 * q["nb"] ** 2 + c2 * q["na"] * q["nb"] * q["ab"]
    return lhs, rhs, {"c_norm": c1, "c_inner": c2}


def _v_buzano_beta(q, params):
    be = params.beta
    lhs = (q["ae"] * q["eb"]) ** 2
    rhs = 0.25 * (
        (2.0 * be + 1.0) / (be + 1.0) * q["na"] ** 2 * q["nb"] ** 2
        + (2.0 * be + 3.0) / (be + 1.0) * q["na"] * q["nb"] * q["ab"]
    )
    return lhs, rhs, {}


def _v_ramadan_kareem(q, params):
    al, be = params.alpha, params.beta
    den = abs(al) ** 2 * (be + 1.0)
    c1 = (2.0 * (be + 1.0) * _max1(abs(al - 1.0) ** 2) + 2.0 * be) / den
    c2 = 2.0 / den
    lhs = (q["ae"] * q["eb"]) ** 2
    rhs = c1 * q["na"] ** 2 * q["nb"] ** 2 + c2 * q["ab"] ** 2
    return lhs, rhs, {"c_norm": c1, "c_inner": c2}


def _v_buz_beta(q, params):
    be = params.beta
    lhs = (q["ae"] * q["eb"]) ** 2
    rhs = 0.5 * (
        (2.0 * be + 1.0) / (be + 1.0) * q["na"] ** 2 * q["nb"] ** 2
        + q["ab"] ** 2 / (be + 1.0)
    )
    return lhs, rhs, {}


def _v_buz_beta_pow(q, params):
    be, r = params.beta, params.r
    lhs = (q["ae"] * q["eb"]) ** (2.0 * r)
    rhs = 0.5 * (
        (2.0 * be + 1.0) / (be + 1.0) * (q["na"] * q["nb"]) ** (2.0 * r)
        + q["ab"] ** (2.0 * r) / (be + 1.0)
    )
    return lhs, rhs, {}


def _v_modified_buzano(q, params):
    be, r = params.beta, params.r
    lhs = (q["ae"] * q["eb"]) ** (2.0 * r)
    rhs = 0.25 * (
        (2.0 * be + 1.0) / (be + 1.0) * (q["na"] * q["nb"]) ** (2.0 * r)
        + (2.0 * be + 3.0) / (be + 1.0) * (q["na"] * q["nb"]) ** r * q["ab"] ** r
    )
    return lhs, rhs, {}


def _v_drag(q, params):
    lhs = q["ae"] ** 2 + q["eb"] ** 2
    rhs = math.sqrt(q["na"] ** 4 + q["nb"] ** 4 + 2.0 * q["ab"] ** 2)
    return lhs, rhs, {}


_VECTOR_FORMULAS = {
    "buz_general": (_v_buz_general, ("alpha",)),
    "buz_half": (_v_buz_half, ()),
    "mix_al_be": (_v_mix_al_be, ("alpha", "beta")),
    "buzano_beta": (_v_buzano_beta, ("beta",)),
    "ramadan_kareem": (_v_ramadan_kareem, ("alpha", "beta")),
    "buz_beta": (_v_buz_beta, ("beta",)),
    "buz_beta_pow": (_v_buz_beta_pow, ("beta", "r")),
    "modified_buzano": (_v_modified_buzano, ("beta", "r")),
    "drag": (_v_drag, ()),
}


def check_vector_lemma(
    ctx: SemiInnerContext,
    inequality_id: str,
    a,
    b,
    e,
    params: BoundParams | None = None,
) -> BoundReport:
    """Evaluate one of the three-vector lemmas; ``e`` must be A-unit."""
    if inequality_id not in _VECTOR_FORMULAS:
        raise UnknownId(f"unknown vector lemma {inequality_id!r}")
    params = params or BoundParams()
    fn, _ = _VECTOR_FORMULAS[inequality_id]
    q = _vec_quantities(ctx, a, b, e)
    lhs, rhs, extra = fn(q, params)
    inter = {
        "seminorm_a": q["na"],
        "seminorm_b": q["nb"],
        "inner_ab": q["ab"],
        **extra,
    }
    return _report(inequality_id, lhs, rhs, inter, True, params)


# -- pointwise operator lemmas -------------------------------------------


def check_mixed_schwarz(
    ctx: SemiInnerContext, t, x, y, lam: float = 0.5, tol: float | None = None
) -> BoundReport:
    """Mixed Schwarz bound ``|<Tx, y>_A|`` against interpolated absolute values.

    The right side uses the power pair: the product of
    ``<|T|_A^(2 lam) x, x>_A ** (1/2)`` and
    ``<|T^#|_A^(2 (1-lam)) y, y>_A ** (1/2)``.  The displayed hypothesis
    asks ``T`` to commute with the weight; when it does not (or when an
    operand moves ``ker A``), the report is advisory.  ``tol`` changes no
    result.
    """
    if not 0.0 <= lam <= 1.0:
        raise DomainViolation("lam must lie in [0, 1]")
    mat = as_matrix(t, square=True)
    xv = as_vector(x, dim=ctx.dim)
    yv = as_vector(y, dim=ctx.dim)
    params = BoundParams(lam=lam)
    comm = float(np.linalg.norm(mat @ ctx.a - ctx.a @ mat))
    comm_ok = comm <= 1e-8 * (1.0 + spectral_norm(ctx.a) * spectral_norm(mat))
    hyp = comm_ok and preserves_kernel(ctx, mat)
    lhs = abs(semi_inner(ctx, mat @ xv, yv))
    tt = _Factors.of(reduce(ctx, mat)[None])
    xr, yr = _reduce_vector(ctx, xv), _reduce_vector(ctx, yv)
    q1 = max(float(np.vdot(xr, tt.abs_pow(2.0 * lam)[0] @ xr).real), 0.0)
    q2 = max(float(np.vdot(yr, tt.adj_abs_pow(2.0 * (1.0 - lam))[0] @ yr).real), 0.0)
    rhs = math.sqrt(q1) * math.sqrt(q2)
    inter = {"commutator": comm, "q_x": q1, "q_y": q2}
    return _report("mixed_schwarz", lhs, rhs, inter, hyp, params)


def check_holder_mccarthy(ctx: SemiInnerContext, t, x, r: float) -> BoundReport:
    """Power bound for the quadratic form of an A-positive operator.

    For ``r >= 1``: ``<Tx, x>_A^r <= <T^r x, x>_A`` on A-unit ``x``; for
    ``0 <= r <= 1`` the inequality reverses.  Powers of ``T`` use the
    spectral calculus of the reduction.
    """
    if r < 0.0:
        raise DomainViolation("r must be nonnegative")
    mat = as_matrix(t, square=True)
    xv = as_vector(x, dim=ctx.dim)
    if not is_a_positive(ctx, mat):
        raise NotAPositive("operator is not A-positive")
    nx = vec_seminorm(ctx, xv)
    if abs(nx - 1.0) > 1e-10:
        raise NotUnitVector(f"vector has seminorm {nx!r}, expected 1")
    tt = reduce(ctx, mat)
    sym = 0.5 * (tt + tt.conj().T)
    xr = _reduce_vector(ctx, xv)
    base = max(float(np.vdot(xr, sym @ xr).real), 0.0)
    powered = float(np.vdot(xr, psd_power(sym, r) @ xr).real)
    if r >= 1.0:
        lhs, rhs = base**r, powered
    else:
        lhs, rhs = powered, base**r
    inter = {"form": base, "form_powered": powered, "r": r}
    return _report("holder_mccarthy", lhs, rhs, inter, True, params=BoundParams())


# -- anti-diagonal block bounds ------------------------------------------

# Every operator checker takes the reduced operands (``_Factors`` by name)
# and the parameters.  The block radius of ``[[0, X], [Y, 0]]`` over
# ``diag(A, A)`` is the classical radius of ``[[0, X~], [Y~, 0]]``.


def _m_thm_2_7(ops, params):
    # The Schwarz/AM-GM argument behind this bound produces four power
    # terms, two per off-diagonal corner: |X|^{2l} and |Y^#|^{2(1-l)}
    # weighted by the lower component, plus |Y|^{2l} and |X^#|^{2(1-l)}
    # weighted by the upper one.  Keeping only the first pairing undercuts
    # the radius once l != 1/2 (take Y = 0 and l -> 0), so the certified
    # value is the maximum over both pairings; the two-term half-sum is
    # still reported under ``rhs_as_displayed``.  Both agree at l = 1/2.
    x, y = ops["X"], ops["Y"]
    lam = params.lam
    n1 = x.norm_pow(2.0 * lam)
    n2 = y.norm_pow(2.0 * (1.0 - lam))
    n3 = y.norm_pow(2.0 * lam)
    n4 = x.norm_pow(2.0 * (1.0 - lam))
    lhs = classical_numerical_radius(_antidiag(x.t, y.t))
    rhs = 0.5 * np.maximum(n1 + n2, n3 + n4)
    inter = {
        "norm_abs_x_pow": n1,
        "norm_abs_yadj_pow": n2,
        "norm_abs_y_pow": n3,
        "norm_abs_xadj_pow": n4,
        "rhs_as_displayed": 0.5 * (n1 + n2),
    }
    return lhs, rhs, inter


def _m_thm_2_8(ops, params):
    x, y = ops["X"], ops["Y"]
    u, v = x.norm, y.norm
    lam_star, bound = np.array(
        [_refined_alpha_min(a, b) for a, b in zip(u.tolist(), v.tolist())]
    ).T
    lhs = classical_numerical_radius(_antidiag(x.t, y.t))
    # Minimizing the four-term family over l lands at l = 1/2 (each
    # pairing is convex in l and the two swap under l <-> 1-l), so the
    # optimized certified bound is the plain half-sum of seminorms.  The
    # unconstrained two-term minimum ``bound`` sinks below the radius
    # whenever u != v (u = 1, v = 4 already gives f(1) = 1 < w); it is
    # kept as ``rhs_as_displayed`` and as the optimizer cross-check.
    rhs = 0.5 * (u + v)
    inter = {
        "lam_star": lam_star,
        "seminorm_x": u,
        "seminorm_yadj": v,
        "degenerate": np.minimum(u, v) == 0.0,
        "rhs_as_displayed": bound,
    }
    return lhs, rhs, inter


def _radius_pair_bound(ops, r, lam):
    """Shared body of the interpolated radius-pair bounds."""
    x, y = ops["X"], ops["Y"]
    s1 = x.abs_pow(2.0 * r * lam) + y.adj_abs_pow(2.0 * r * (1.0 - lam))
    s2 = y.abs_pow(2.0 * r * lam) + x.adj_abs_pow(2.0 * r * (1.0 - lam))
    w1, w2 = _each(classical_numerical_radius, s1, s2)
    w_block = classical_numerical_radius(_antidiag(x.t, y.t))
    lhs = w_block**r
    rhs = 2.0 ** (r - 2.0) * np.sqrt(w1) * np.sqrt(w2)
    inter = {"radius_sum_1": w1, "radius_sum_2": w2, "block_radius": w_block}
    return lhs, rhs, inter


def _m_thm_2_10(ops, params):
    return _radius_pair_bound(ops, params.r, params.lam)


def _m_rem_2_12(ops, params):
    return _radius_pair_bound(ops, 1.0, 0.5)


def _m_moby_a1(ops, params):
    x, y = ops["X"], ops["Y"]
    d1, d2 = _delta_pair(params.alpha, params.beta)
    m1, m2 = _each(
        spectral_norm,
        x.abs_pow(2.0) + y.adj_abs_pow(2.0),
        x.adj_abs_pow(2.0) + y.abs_pow(2.0),
    )
    w_xy, w_yx = _each(classical_numerical_radius, x.t @ y.t, y.t @ x.t)
    lhs = classical_numerical_radius(_antidiag(x.t, y.t)) ** 4
    rhs = 0.25 * d1 * np.maximum(m1**2, m2**2) + d2 * np.maximum(w_xy**2, w_yx**2)
    inter = {
        "delta_1": d1,
        "delta_2": d2,
        "norm_sum_1": m1,
        "norm_sum_2": m2,
        "radius_xy": w_xy,
        "radius_yx": w_yx,
    }
    return lhs, rhs, inter


def _power_sum_norms(x, y, r):
    """The pair ||(Y#Y)^r + (XX#)^r||_A and ||(X#X)^r + (YY#)^r||_A."""
    return _each(
        spectral_norm,
        y.abs_pow(2.0 * r) + x.adj_abs_pow(2.0 * r),
        x.abs_pow(2.0 * r) + y.adj_abs_pow(2.0 * r),
    )


def _power_sum_core(ops, r):
    """The power-sum pair, both cross radii and the block radius."""
    x, y = ops["X"], ops["Y"]
    lam_r, mu_r = _power_sum_norms(x, y, r)
    w_xy, w_yx = _each(classical_numerical_radius, x.t @ y.t, y.t @ x.t)
    w_block = classical_numerical_radius(_antidiag(x.t, y.t))
    inter = {
        "power_sum_1": lam_r,
        "power_sum_2": mu_r,
        "radius_xy": w_xy,
        "radius_yx": w_yx,
    }
    return lam_r, mu_r, w_xy, w_yx, w_block, inter


def _m_ramadan1(ops, params):
    be, r = params.beta, params.r
    lam_r, mu_r, w_xy, w_yx, w_block, inter = _power_sum_core(ops, r)
    lhs = w_block ** (4.0 * r)
    rhs = (2.0 * be + 1.0) / (16.0 * (be + 1.0)) * np.maximum(lam_r**2, mu_r**2) + (
        2.0 * be + 3.0
    ) / (8.0 * (be + 1.0)) * np.maximum(lam_r, mu_r) * np.maximum(w_xy**r, w_yx**r)
    return lhs, rhs, inter


def _m_thm_beta(ops, params):
    be, r = params.beta, params.r
    lam_r, mu_r, w_xy, w_yx, w_block, inter = _power_sum_core(ops, r)
    lhs = w_block ** (4.0 * r)
    rhs = (2.0 * be + 1.0) / (8.0 * (be + 1.0)) * np.maximum(
        lam_r**2, mu_r**2
    ) + np.maximum(w_xy ** (2.0 * r), w_yx ** (2.0 * r)) / (2.0 * (be + 1.0))
    return lhs, rhs, inter


def _m_thm_alpha(ops, params):
    al, r = params.alpha, params.r
    lam_r, mu_r, w_xy, w_yx, w_block, inter = _power_sum_core(ops, r)
    c1 = 2.0 ** (r - 2.0) * _max1(abs(al - 1.0) ** r) / abs(al) ** r
    c2 = 2.0 ** (r - 1.0) / abs(al) ** r
    lhs = w_block ** (2.0 * r)
    rhs = c1 * np.maximum(lam_r, mu_r) + c2 * np.maximum(w_xy**r, w_yx**r)
    return lhs, rhs, inter


def _m_thm_2_16(ops, params):
    x, y = ops["X"], ops["Y"]
    be, r, lam, p, q = params.beta, params.r, params.lam, params.p, params.q
    if np.any((p * r < 2.0 - 1e-12) | (q * r < 2.0 - 1e-12)):
        raise DomainViolation("this bound requires p*r >= 2 and q*r >= 2")
    lam_r, delta_r = _power_sum_norms(x, y, r)
    # |XY|^s and |Y#X#|^s = |(XY)*|^s share the SVD of X~Y~ (likewise YX).
    xy, yx = _Factors.of(np.concatenate([x.t @ y.t, y.t @ x.t])).split(2)
    pm, qm = p[:, None, None], q[:, None, None]
    rho, sigma = _each(
        spectral_norm,
        xy.abs_pow(lam * p * r) / pm + xy.adj_abs_pow((1.0 - lam) * q * r) / qm,
        yx.abs_pow(lam * p * r) / pm + yx.adj_abs_pow((1.0 - lam) * q * r) / qm,
    )
    lhs = classical_numerical_radius(_antidiag(x.t, y.t)) ** (4.0 * r)
    g1 = (2.0 * be + 1.0) / (be + 1.0)
    g2 = (2.0 * be + 3.0) / (be + 1.0)
    rhs = g1 / 16.0 * np.maximum(lam_r**2, delta_r**2) + g2 / 8.0 * np.maximum(
        lam_r, delta_r
    ) * np.maximum(rho, sigma)
    inter = {
        "power_sum_1": lam_r,
        "power_sum_2": delta_r,
        "holder_mix_1": rho,
        "holder_mix_2": sigma,
        "rhs_as_displayed": rhs / 4.0,
    }
    return lhs, rhs, inter


def _kz_core(ops):
    f, x, y, k = ops["F"], ops["X"], ops["Y"], ops["K"]
    a_val, b_val, c_val, d_val = _each(
        spectral_norm,
        f.abs_pow(4.0) + x.adj_abs_pow(4.0),
        k.abs_pow(4.0) + y.adj_abs_pow(4.0),
        f.abs_pow(2.0) + x.adj_abs_pow(2.0),
        k.abs_pow(2.0) + y.adj_abs_pow(2.0),
    )
    w_r, w_full = _each(
        classical_numerical_radius,
        _antidiag(x.t @ k.t, y.t @ f.t),
        np.block([[f.t, x.t], [y.t, k.t]]),
    )
    return a_val, b_val, c_val, d_val, w_r, w_full


def _m_kz(ops, params):
    chi1, chi2, _, _ = _chi(params.alpha, params.beta)
    a_val, b_val, c_val, d_val, w_r, w_full = _kz_core(ops)
    lhs = w_full**4
    rhs = (
        (2.0 + 4.0 * chi1) * np.maximum(a_val, b_val)
        + 4.0 * chi2 * np.maximum(c_val, d_val) * w_r
        + 4.0 * w_r**2
    )
    inter = {
        "chi_1": chi1,
        "chi_2": chi2,
        "norm_quartic_f": a_val,
        "norm_quartic_k": b_val,
        "norm_quad_f": c_val,
        "norm_quad_k": d_val,
        "radius_cross": w_r,
        "rhs_as_displayed": rhs - 2.0 * w_r**2,
    }
    return lhs, rhs, inter


def _m_modified_kz(ops, params):
    chi1, chi2, chi3, chi4 = _chi(params.alpha, params.beta)
    mu = params.mu
    a_val, b_val, c_val, d_val, w_r, w_full = _kz_core(ops)
    lhs = w_full**4
    rhs = (
        (2.0 + 2.0 * chi1 + 2.0 * chi3) * np.maximum(a_val, b_val)
        + (2.0 * chi2 + 2.0 * mu * chi4) * np.maximum(c_val, d_val) * w_r
        + (4.0 + 4.0 * (1.0 - mu) * chi4) * w_r**2
    )
    inter = {
        "chi_1": chi1,
        "chi_2": chi2,
        "chi_3": chi3,
        "chi_4": chi4,
        "norm_quartic_f": a_val,
        "norm_quartic_k": b_val,
        "norm_quad_f": c_val,
        "norm_quad_k": d_val,
        "radius_cross": w_r,
    }
    return lhs, rhs, inter


# -- single-operator corollaries -----------------------------------------


def _abs_sum_norm(m, s):
    """``|| |M~|^s + |M~*|^s ||``: the seminorm of ``(M#M)^(s/2) + (MM#)^(s/2)``."""
    return spectral_norm(m.abs_pow(s) + m.adj_abs_pow(s))


def _single_core(m, r):
    n_r = _abs_sum_norm(m, 2.0 * r)
    w_sq, w_m = _each(classical_numerical_radius, m.t @ m.t, m.t)
    return n_r, w_sq, w_m


def _s_moby_a2(ops, params):
    d1, d2 = _delta_pair(params.alpha, params.beta)
    n1, w_sq, w_m = _single_core(ops["M"], 1.0)
    lhs = w_m**4
    rhs = 0.25 * d1 * n1**2 + d2 * w_sq**2
    return lhs, rhs, {"delta_1": d1, "delta_2": d2, "norm_sum": n1, "radius_sq": w_sq}


def _s_ramadan1_cor(ops, params):
    be, r = params.beta, params.r
    n_r, w_sq, w_m = _single_core(ops["M"], r)
    lhs = w_m ** (4.0 * r)
    rhs = (2.0 * be + 1.0) / (16.0 * (be + 1.0)) * n_r**2 + (2.0 * be + 3.0) / (
        8.0 * (be + 1.0)
    ) * n_r * w_sq**r
    return lhs, rhs, {"power_sum": n_r, "radius_sq": w_sq}


def _s_mohd1(ops, params):
    be, r = params.beta, params.r
    n_r, w_sq, w_m = _single_core(ops["M"], r)
    lhs = w_m ** (4.0 * r)
    rhs = (2.0 * be + 1.0) / (8.0 * (be + 1.0)) * n_r**2 + w_sq ** (2.0 * r) / (
        2.0 * (be + 1.0)
    )
    inter = {"power_sum": n_r, "radius_sq": w_sq, "limit_bound": 0.25 * n_r**2}
    return lhs, rhs, inter


def _s_alpha_cor(ops, params):
    m = ops["M"]
    al, r = params.alpha, params.r
    n_r, w_sq, w_m = _single_core(m, r)
    c1 = 2.0 ** (r - 2.0) * _max1(abs(al - 1.0) ** r) / abs(al) ** r
    c2 = 2.0 ** (r - 1.0) / abs(al) ** r
    lhs = w_m ** (2.0 * r)
    rhs = c1 * n_r + c2 * w_sq**r
    n1 = _abs_sum_norm(m, 2.0)
    inter = {"power_sum": n_r, "radius_sq": w_sq, "half_norm_bound": 0.5 * n1}
    return lhs, rhs, inter


def _s_college1(ops, params):
    m = ops["M"]
    chi1, chi2, _, _ = _chi(params.alpha, params.beta)
    quart = _abs_sum_norm(m, 4.0)
    quad, w_sq, w_m = _single_core(m, 1.0)
    lhs = w_m**4
    rhs = (
        (1.0 + 2.0 * chi1) / 8.0 * quart
        + 0.25 * chi2 * quad * w_sq
        + 0.25 * w_sq**2
    )
    inter = {
        "chi_1": chi1,
        "chi_2": chi2,
        "norm_quartic": quart,
        "norm_quad": quad,
        "radius_sq": w_sq,
        "rhs_as_displayed": (1.0 + 2.0 * chi1) / 8.0 * quart
        + 0.125 * w_sq
        + 0.25 * chi2 * quad * w_sq,
    }
    return lhs, rhs, inter


def _s_modified_kz_cor(ops, params):
    m = ops["M"]
    chi1, chi2, chi3, chi4 = _chi(params.alpha, params.beta)
    mu = params.mu
    quart = _abs_sum_norm(m, 4.0)
    quad, w_sq, w_m = _single_core(m, 1.0)
    lhs = w_m**4
    rhs = (
        (1.0 + chi1 + chi3) / 8.0 * quart
        + (chi2 + mu * chi4) / 8.0 * quad * w_sq
        + (1.0 + (1.0 - mu) * chi4) / 4.0 * w_sq**2
    )
    inter = {
        "chi_1": chi1,
        "chi_2": chi2,
        "chi_3": chi3,
        "chi_4": chi4,
        "norm_quartic": quart,
        "norm_quad": quad,
        "radius_sq": w_sq,
    }
    return lhs, rhs, inter


# -- product bounds -------------------------------------------------------


def _prod_core(ops, r):
    t1, t2, s1, s2 = ops["T1"], ops["T2"], ops["S1"], ops["S2"]
    ss, tt = _antidiag(s1.t, s2.t), _antidiag(t1.t, t2.t)
    w_prod = classical_numerical_radius(_adj(ss) @ tt)
    phi, psi = _each(
        spectral_norm,
        t2.abs_pow(4.0 * r) + s2.abs_pow(4.0 * r),
        t1.abs_pow(4.0 * r) + s1.abs_pow(4.0 * r),
    )
    w2, w1 = _each(
        classical_numerical_radius,
        s2.abs_pow(2.0) @ t2.abs_pow(2.0),
        s1.abs_pow(2.0) @ t1.abs_pow(2.0),
    )
    inter = {
        "power_sum_2": phi,
        "power_sum_1": psi,
        "radius_grams_2": w2,
        "radius_grams_1": w1,
        "radius_product": w_prod,
    }
    return w_prod, phi, psi, w2, w1, inter


def _p_prod1(ops, params):
    be, r = params.beta, params.r
    w_prod, phi, psi, w2, w1, inter = _prod_core(ops, r)
    lhs = w_prod ** (4.0 * r)
    rhs = (1.0 + 2.0 * be) / (16.0 * (be + 1.0)) * np.maximum(phi**2, psi**2) + (
        3.0 + 2.0 * be
    ) / (8.0 * (be + 1.0)) * np.maximum(phi, psi) * np.maximum(w2**r, w1**r)
    return lhs, rhs, inter


def _p_prod2(ops, params):
    be, r = params.beta, params.r
    w_prod, phi, psi, w2, w1, inter = _prod_core(ops, r)
    lhs = w_prod ** (4.0 * r)
    rhs = (1.0 + 2.0 * be) / (8.0 * (be + 1.0)) * np.maximum(
        phi**2, psi**2
    ) + np.maximum(w2 ** (2.0 * r), w1 ** (2.0 * r)) / (2.0 * (be + 1.0))
    return lhs, rhs, inter


def _pair_core(ops, r, *more):
    """``|| |F~|^4r + |K~|^4r ||``, then the radii of ``K~* F~`` and of ``more``."""
    f, k = ops["F"], ops["K"]
    n2r = spectral_norm(f.abs_pow(4.0 * r) + k.abs_pow(4.0 * r))
    return n2r, *_each(classical_numerical_radius, _adj(k.t) @ f.t, *more)


def _gram(ops):
    """The reduction of ``K#K F#F``."""
    return ops["K"].abs_pow(2.0) @ ops["F"].abs_pow(2.0)


def _p_cor_prod(ops, params):
    be, r = params.beta, params.r
    n2r, w_pair, w_gram = _pair_core(ops, r, _gram(ops))
    lhs = w_pair ** (4.0 * r)
    rhs = (1.0 + 2.0 * be) / (16.0 * (be + 1.0)) * n2r**2 + (3.0 + 2.0 * be) / (
        8.0 * (be + 1.0)
    ) * n2r * w_gram**r
    return lhs, rhs, {"power_sum": n2r, "radius_gram": w_gram}


def _p_cor_prod_a(ops, params):
    be, r = params.beta, params.r
    n2r, w_pair, w_gram = _pair_core(ops, r, _gram(ops))
    lhs = w_pair ** (4.0 * r)
    rhs = (1.0 + 2.0 * be) / (8.0 * (be + 1.0)) * n2r**2 + w_gram ** (2.0 * r) / (
        2.0 * (be + 1.0)
    )
    return lhs, rhs, {"power_sum": n2r, "radius_gram": w_gram}


def _p_power_2r(ops, params):
    r = params.r
    n2r, w_pair = _pair_core(ops, r)
    lhs = w_pair ** (2.0 * r)
    rhs = 0.5 * n2r
    return lhs, rhs, {"power_sum": n2r}


# -- registry -------------------------------------------------------------


@dataclass(frozen=True)
class RegistryEntry:
    """Shape metadata and implementation for one inequality id."""

    kind: str  # scalar | vector | matrix | single | product | special
    operands: tuple[str, ...]
    params: tuple[str, ...]
    fn: Callable | None


_MATRIX_FNS = {
    "thm_2_7": (_m_thm_2_7, ("X", "Y"), ("lam",)),
    "thm_2_8": (_m_thm_2_8, ("X", "Y"), ()),
    "thm_2_10": (_m_thm_2_10, ("X", "Y"), ("r", "lam")),
    "cor_2_11": (_m_thm_2_10, ("X", "Y"), ("r", "lam")),
    "rem_2_12": (_m_rem_2_12, ("X", "Y"), ()),
    "moby_a1": (_m_moby_a1, ("X", "Y"), ("alpha", "beta")),
    "ramadan1": (_m_ramadan1, ("X", "Y"), ("beta", "r")),
    "thm_beta": (_m_thm_beta, ("X", "Y"), ("beta", "r")),
    "thm_alpha": (_m_thm_alpha, ("X", "Y"), ("alpha", "r")),
    "thm_2_16": (_m_thm_2_16, ("X", "Y"), ("beta", "r", "lam", "p")),
    "kz": (_m_kz, ("F", "X", "Y", "K"), ("alpha", "beta")),
    "modified_kz": (_m_modified_kz, ("F", "X", "Y", "K"), ("alpha", "beta", "mu")),
}

_SINGLE_FNS = {
    "moby_a2": (_s_moby_a2, ("alpha", "beta")),
    "ramadan1_cor": (_s_ramadan1_cor, ("beta", "r")),
    "mohd1": (_s_mohd1, ("beta", "r")),
    "alpha_cor": (_s_alpha_cor, ("alpha", "r")),
    "college1": (_s_college1, ("alpha", "beta")),
    "modified_kz_cor": (_s_modified_kz_cor, ("alpha", "beta", "mu")),
}

_PRODUCT_FNS = {
    "prod1": (_p_prod1, ("T1", "T2", "S1", "S2"), ("beta", "r")),
    "prod2": (_p_prod2, ("T1", "T2", "S1", "S2"), ("beta", "r")),
    "cor_prod": (_p_cor_prod, ("F", "K"), ("beta", "r")),
    "cor_prod_a": (_p_cor_prod_a, ("F", "K"), ("beta", "r")),
    "power_2r": (_p_power_2r, ("F", "K"), ("r",)),
}


def _build_registry() -> Mapping[str, RegistryEntry]:
    reg: dict[str, RegistryEntry] = {}
    reg["jensen"] = RegistryEntry("scalar", ("values",), ("lam", "r"), None)
    reg["bohr"] = RegistryEntry("scalar", ("values",), ("r",), None)
    for iid, (fn, names) in _VECTOR_FORMULAS.items():
        reg[iid] = RegistryEntry("vector", ("a", "b", "e"), names, fn)
    for iid, (fn, ops, names) in _MATRIX_FNS.items():
        reg[iid] = RegistryEntry("matrix", ops, names, fn)
    for iid, (fn, names) in _SINGLE_FNS.items():
        reg[iid] = RegistryEntry("single", ("M",), names, fn)
    for iid, (fn, ops, names) in _PRODUCT_FNS.items():
        reg[iid] = RegistryEntry("product", ops, names, fn)
    reg["mixed_schwarz"] = RegistryEntry("special", ("T", "x", "y"), ("lam",), None)
    reg["holder_mccarthy"] = RegistryEntry("special", ("T", "x", "r"), (), None)
    return MappingProxyType(reg)


REGISTRY: Mapping[str, RegistryEntry] = _build_registry()


def registry_ids() -> tuple[str, ...]:
    """All registered inequality ids, in a stable order."""
    return tuple(REGISTRY)


def registry_entry(inequality_id: str) -> RegistryEntry:
    try:
        return REGISTRY[inequality_id]
    except KeyError:
        raise UnknownId(f"unknown inequality id {inequality_id!r}") from None


def _run_operator_bound(ctx, iid, kind, ops_in, params):
    entry = registry_entry(iid)
    if entry.kind != kind:
        raise UnknownId(f"{iid!r} is not a {kind} bound")
    return evaluate_operator_bounds([ctx], iid, [ops_in], [params])[0]


def evaluate_operator_bounds(
    ctxs: Sequence[SemiInnerContext],
    inequality_id: str,
    operands: Sequence[Mapping[str, np.ndarray]],
    params: Sequence[BoundParams | None],
) -> list[BoundReport]:
    """Evaluate one operator bound on a batch of trials, one report each.

    Trial ``i`` is ``ctxs[i]``, ``operands[i]`` and ``params[i]`` (``None``
    for the defaults); the weights must share dimension and rank.  The
    formula runs once over the batch, with a leading trial axis on every
    reduced operand, parameter and intermediate, and each trial's report
    is bitwise the one the batch of that trial alone gives.
    """
    entry = registry_entry(inequality_id)
    if entry.kind not in OPERATOR_KINDS:
        raise UnknownId(f"{inequality_id!r} is not an operator bound")
    k = len(ctxs)
    if not k or len(operands) != k or len(params) != k:
        raise DomainViolation(
            "a batch needs one weight, operand set and parameter set per trial"
        )
    params = [p or BoundParams() for p in params]
    names = entry.operands
    stacks = []
    for name in names:
        if any(name not in ops for ops in operands):
            raise DomainViolation(f"{inequality_id!r} requires operand {name!r}")
        stack = np.array([as_matrix(ops[name], square=True) for ops in operands])
        if stack.shape[-1] != ctxs[0].dim:
            raise DomainViolation(
                f"operand {name!r} must match the weight dimension {ctxs[0].dim}"
            )
        stacks.append(stack)
    # All operands go through one reduction, kernel test and SVD: row
    # j * k + i holds operand j of trial i, under trial i's weight.
    ctx = stack_contexts(list(ctxs) * len(names))
    mats = np.concatenate(stacks)
    # Every operator display hypothesizes that its operands map ker(A)
    # into itself; under it the reduction of a product is the product of
    # the reductions, which the formulas rely on.
    hyp = np.reshape(preserves_kernel(ctx, mats), (len(names), k)).all(axis=0)
    # A rank-zero weight reduces every operand to the empty matrix; a 1x1
    # zero stands in for it, so every formula takes its zero value.
    reduced = reduce(ctx, mats) if ctx.rank else np.zeros((len(mats), 1, 1), np.complex128)
    ops = dict(zip(names, _Factors.of(reduced).split(len(names))))
    keys = [f.name for f in fields(BoundParams)]
    per_field = {key: np.array([getattr(p, key) for p in params]) for key in keys}
    lhs, rhs, inter = entry.fn(ops, SimpleNamespace(**per_field))
    inter = {"scale": np.max([f.norm for f in ops.values()], axis=0), **inter}
    # every value has one entry per trial
    lhs, rhs, hyp = lhs.tolist(), rhs.tolist(), hyp.tolist()
    inter = {name: v.tolist() for name, v in inter.items()}
    return [
        _report(
            inequality_id, lhs[i], rhs[i], {n: v[i] for n, v in inter.items()}, hyp[i], p
        )
        for i, p in enumerate(params)
    ]


def check_matrix_bound(
    ctx: SemiInnerContext,
    inequality_id: str,
    blocks: Mapping[str, np.ndarray],
    params: BoundParams | None = None,
    tol: float | None = None,
) -> BoundReport:
    """Evaluate a 2x2 block-matrix radius bound.

    ``blocks`` supplies the named blocks the id needs (``X``/``Y``, plus
    ``F``/``K`` for the full-matrix bounds).  The left side is the
    appropriate power of the radius of the block matrix over
    ``diag(A, A)``, evaluated as the classical radius of the block of
    reduced blocks; the right side follows the registered display.
    ``tol`` changes no result: the radius kernel does not use it.
    """
    return _run_operator_bound(ctx, inequality_id, "matrix", blocks, params)


def check_single_operator_bound(
    ctx: SemiInnerContext,
    inequality_id: str,
    m,
    params: BoundParams | None = None,
    tol: float | None = None,
) -> BoundReport:
    """Evaluate a single-operator radius bound on ``M``; ``tol`` changes no result."""
    return _run_operator_bound(ctx, inequality_id, "single", {"M": m}, params)


def check_product_bound(
    ctx: SemiInnerContext,
    inequality_id: str,
    operators: Mapping[str, np.ndarray],
    params: BoundParams | None = None,
    tol: float | None = None,
) -> BoundReport:
    """Evaluate an operator-product radius bound; ``tol`` changes no result."""
    return _run_operator_bound(ctx, inequality_id, "product", operators, params)


def evaluate_bound(
    ctx: SemiInnerContext | None,
    inequality_id: str,
    operands: Mapping[str, object],
    params: BoundParams | None = None,
    tol: float | None = None,
) -> BoundReport:
    """Uniform dispatcher over every registered id.

    ``operands`` carries whatever the id's registry entry names: matrix
    blocks for operator bounds, ``a``/``b``/``e`` for vector lemmas,
    ``values`` for scalar lemmas, ``T``/``x``/``y`` (plus scalar ``r``
    for the power form) for the pointwise lemmas.  Scalar lemmas accept
    ``ctx=None``; everything else requires a context.  ``tol`` is kept
    for callers and persisted cases but changes no result: the radius
    kernel does not use it.
    """
    entry = registry_entry(inequality_id)
    if entry.kind == "scalar":
        return check_scalar_lemma(inequality_id, operands["values"], params)
    if ctx is None:
        raise DomainViolation(f"{inequality_id!r} requires a weight context")
    if entry.kind == "vector":
        return check_vector_lemma(
            ctx, inequality_id, operands["a"], operands["b"], operands["e"], params
        )
    if entry.kind == "matrix":
        return check_matrix_bound(ctx, inequality_id, operands, params, tol)
    if entry.kind == "single":
        return check_single_operator_bound(ctx, inequality_id, operands["M"], params, tol)
    if entry.kind == "product":
        return check_product_bound(ctx, inequality_id, operands, params, tol)
    if inequality_id == "mixed_schwarz":
        lam = (params or BoundParams()).lam
        return check_mixed_schwarz(ctx, operands["T"], operands["x"], operands["y"], lam, tol)
    if inequality_id == "holder_mccarthy":
        r = float(operands.get("r", (params or BoundParams()).r))
        return check_holder_mccarthy(ctx, operands["T"], operands["x"], r)
    raise UnknownId(f"unknown inequality id {inequality_id!r}")


# -- optimizers ------------------------------------------------------------


def _golden_min(f, lo: float, hi: float, xtol: float = 1e-10):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def optimize_refined_alpha_bound(
    ctx: SemiInnerContext, x, y
) -> tuple[float, float]:
    """Minimize ``(||X||_A^(2 t) + ||Y^#||_A^(2 (1-t))) / 2`` over ``t in [0, 1]``.

    The objective is convex, so golden section converges to the global
    minimum; equal norms short-circuit to ``t = 1/2`` exactly.  If either
    seminorm vanishes the objective degenerates and the better endpoint
    is returned (any fixed ``t`` still yields a valid bound).
    ``||Y^#||_A = ||Y||_A``, because ``Y^#`` reduces to ``Y~*``.
    """
    return _refined_alpha_min(op_seminorm(ctx, x), op_seminorm(ctx, y))


def _refined_alpha_min(u: float, v: float) -> tuple[float, float]:
    """Minimizer and minimum of ``(u^(2 t) + v^(2 (1-t))) / 2`` on ``[0, 1]``."""

    def f(t: float) -> float:
        return 0.5 * (u ** (2.0 * t) + v ** (2.0 * (1.0 - t)))

    if u == 0.0 or v == 0.0:
        return (0.0, f(0.0)) if f(0.0) <= f(1.0) else (1.0, f(1.0))
    if abs(u - v) <= 1e-14 * max(1.0, u, v):
        return 0.5, 0.5 * (u + v)
    lam_star, best = _golden_min(f, 0.0, 1.0)
    for t in (0.0, 1.0):
        if f(t) < best:
            lam_star, best = t, f(t)
    return lam_star, best


def refined_alpha_critical_point(norm_x: float, norm_y_adj: float) -> float:
    """Closed-form stationary point of the refined bound for norms above 1.

    Documented cross-check only: solving ``f'(t) = 0`` for
    ``f(t) = (u^(2t) + v^(2(1-t))) / 2`` gives
    ``t0 = (ln(ln v / ln u) + 2 ln v) / (2 (ln u + ln v))``, valid when
    both logarithms are positive.  The optimizer itself never uses this.
    """
    lu, lv = math.log(norm_x), math.log(norm_y_adj)
    if lu <= 0.0 or lv <= 0.0:
        raise DomainViolation("closed form requires both norms above 1")
    return (math.log(lv / lu) + 2.0 * lv) / (2.0 * (lu + lv))


def optimize_params(
    ctx: SemiInnerContext,
    inequality_id: str,
    operands: Mapping[str, np.ndarray],
    grid: ParamGrid,
    tol: float | None = None,
) -> BoundReport:
    """Minimize an operator bound's right side over a finite parameter grid.

    Only parameters the id actually consumes are swept.  For ``mohd1``
    the right side is monotone in ``beta`` (nondecreasing toward the
    ``beta -> inf`` limit), so only the endpoints of the beta range are
    evaluated.  ``tol`` changes no result.
    """
    entry = registry_entry(inequality_id)
    if entry.kind not in OPERATOR_KINDS:
        raise DomainViolation("optimize_params handles operator bounds only")
    axes: dict[str, tuple] = {}
    pools = {
        "alpha": tuple(grid.alphas),
        "beta": tuple(grid.betas),
        "r": tuple(grid.rs),
        "mu": tuple(grid.mus),
        "lam": tuple(grid.lams),
        "p": tuple(grid.ps),
    }
    for name in entry.params:
        vals = pools[name]
        if name == "beta" and inequality_id == "mohd1" and len(vals) > 2:
            vals = (min(vals), max(vals))
        axes[name] = vals
    names = tuple(axes)
    best: BoundReport | None = None
    for combo in _cartesian(*(axes[n] for n in names)) if names else [()]:
        params = BoundParams(**dict(zip(names, combo)))
        rep = _run_operator_bound(ctx, inequality_id, entry.kind, operands, params)
        if best is None or rep.rhs < best.rhs:
            best = rep
    return best
