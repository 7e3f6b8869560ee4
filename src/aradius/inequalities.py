"""Executable bound checkers for weighted numerical-radius inequalities.

Each registered inequality id maps to a formula that evaluates the left
and right sides of one displayed bound on concrete inputs, reported as a
:class:`BoundReport`.  Right-hand sides are assembled term by term as
displayed (no algebraic simplification), so a genuinely violated display
surfaces as negative slack instead of being normalized away.

Sixteen ids are six display families, each right side written once,
over their operand shapes.  The delta (at r = 1), Ramadan, beta-mean and
alpha displays take the pair ``X, Y`` (the operator matrix ``[[0, X],
[Y, 0]]``), a single ``M`` (the pair at ``X = Y = M``), the product
``T1, T2, S1, S2`` and the Gram pair ``F, K`` (the product at ``T1 = T2
= F``, ``S1 = S2 = K``).  The kz and modified-kz displays take the full
block ``[[F, X], [Y, K]]`` and its collapse at ``F = X = Y = K = M``,
whose right side is the block's divided by 16.  :data:`REGISTRY` is one
table that binds them, and every id of a family reports the same
intermediates: the shape's power sums (``power_sum_1``/``power_sum_2``,
or ``power_sum`` for a one-operator shape) or norms, its radii, the
delta or chi coefficients, and for the beta-mean family
``limit_bound``, the right side's limit as beta grows.

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
``hypotheses_ok=False`` and callers treat it as advisory.  Inputs outside
a bound's domain (a reference vector that is not A-unit, an operator that
is not A-positive, non-positive scalar values) raise.

Trial axis: all 36 ids are evaluated by :func:`evaluate_bounds` on a
batch of trials whose weights share dimension and rank.  Each formula
``fn(ops, params)`` sees its operands in reduced coordinates with a
leading trial axis (matrices as ``_Factors``, vectors as ``Lambda^{1/2}
V_r* v``, scalars and value lists as arrays) and each parameter as an
array, so each radius, SVD and norm of a formula is one stacked numpy
call per batch.  The single-trial entry points (:func:`evaluate_bound`
and the ``check_*`` functions) are batches of one through the same code,
and a trial's report does not depend on the rest of its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from itertools import product as _cartesian
from types import MappingProxyType, SimpleNamespace
from typing import Callable, Mapping, Sequence

import numpy as np

from .linalg import (
    DomainError,
    _commutator,
    _hermitian_part,
    _unit,
    antidiagonal_radius,
    as_matrix,
    as_vectors,
    classical_numerical_radius,
    spectral_norm,
)
from .semihilbert import (
    SemiInnerContext,
    _inner,
    _reduced_rows,
    is_a_positive,
    op_seminorm,
    preserves_kernel,
    reduce,
    stack_contexts,
)

#: Reports with relative slack at or above this floor count as satisfied.
VIOLATION_RTOL = -1e-8

#: Stacked matrix entries per operand in one batch (campaign passes and
#: parameter grids): a batch holds ``max(1, _CHUNK_ENTRIES // n**2)``
#: trials of ``n x n`` operands.  ``2**13`` is 32 trials at ``n = 16``;
#: per-trial time stops falling near 4,096 entries at ``n = 4``, and at
#: ``n = 16`` a batch of 128 trials is slower than one of 32.
_CHUNK_ENTRIES = 2**13


class UnknownId(DomainError):
    """Inequality id is not in the registry."""


class DomainViolation(DomainError):
    """A parameter lies outside the inequality's domain."""


class NotUnitVector(DomainError):
    """A vector that must be A-unit is not."""


class NotAPositive(DomainError):
    """Operator is not A-positive where the bound requires it."""


#: The domain of :class:`BoundParams`, as ordered ``(holds, message)`` rules
#: that take one trial's parameters or parameter columns alike.  A trial
#: outside it raises the message of the first rule it fails; ``q`` is
#: tested after ``p > 1``, so a scalar ``q`` is only computed where it exists.
_DOMAIN = (
    (
        lambda v: np.isfinite((v.alpha, v.beta, v.r, v.mu, v.lam, v.p)).all(axis=0),
        "bound parameters must be finite",
    ),
    (lambda v: v.alpha != 0.0, "alpha must be nonzero"),
    (lambda v: v.beta >= 0.0, "beta must be nonnegative"),
    (lambda v: v.r >= 1.0, "r must be at least 1"),
    (lambda v: (v.mu >= 0.0) & (v.mu <= 1.0), "mu must lie in [0, 1]"),
    (lambda v: (v.lam >= 0.0) & (v.lam <= 1.0), "lam must lie in [0, 1]"),
    (lambda v: v.p > 1.0, "p and q must exceed 1"),
    (lambda v: v.q > 1.0, "p and q must exceed 1"),
)


@dataclass(frozen=True)
class BoundParams:
    """Parameters shared across the registered bounds.

    Construction validates the common domains, and every value must be
    finite; per-id extras (for example ``p*r >= 2`` where a bound needs
    it) are checked by the checker.  ``q`` is the exponent conjugate to
    ``p``, computed from it.
    """

    alpha: complex = 2.0 + 0.0j
    beta: float = 1.0
    r: float = 1.0
    mu: float = 0.5
    lam: float = 0.5
    p: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        for holds, message in _DOMAIN:
            if not holds(self):
                raise DomainViolation(message)

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)


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


def _checked_columns(alpha, beta, r, mu, lam, p) -> SimpleNamespace:
    """Parameter columns with ``q``; a bad trial raises what its :class:`BoundParams` would."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cols = SimpleNamespace(alpha=alpha, beta=beta, r=r, mu=mu, lam=lam, p=p, q=p / (p - 1.0))
    ok = np.logical_and.reduce([holds(cols) for holds, _ in _DOMAIN])
    if not ok.all():
        _trial_params(cols, int(np.argmin(ok)))  # raises
    return cols


def _trial_params(cols: SimpleNamespace, i: int) -> BoundParams:
    """Trial ``i``'s :class:`BoundParams` from parameter columns."""
    return BoundParams(**{f.name: getattr(cols, f.name)[i].item() for f in fields(BoundParams)})


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

    def norm_pow(self, p) -> np.ndarray:
        """``|| |T~|^p || = || |T~*|^p ||``."""
        return _rowpow(self.s, p)[:, 0]

    def abs_pow(self, p) -> np.ndarray:
        return (_adj(self.vh) * _rowpow(self.s, p)[:, None, :]) @ self.vh

    def adj_abs_pow(self, p) -> np.ndarray:
        return (self.u * _rowpow(self.s, p)[:, None, :]) @ _adj(self.u)


def _rowpow(base: np.ndarray, p) -> np.ndarray:
    """``base ** p`` with one exponent per row (trial), and ``0 ** p = 0``.

    The power runs on whole contiguous arrays: with a broadcast exponent or
    a ``where`` mask numpy takes other loops, whose results then depend on
    the batch.
    """
    p = np.broadcast_to(np.asarray(p, dtype=np.float64)[..., None], base.shape).copy()
    return np.where(base > 0.0, np.power(base, p), 0.0)


def _adj(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _each(fn, *stacks):
    """``fn`` of each of several equal-shape stacks, in one stacked call."""
    return np.split(fn(np.concatenate(stacks)), len(stacks))


# Reduced vectors hold one row per trial: ``<x, y>_A`` is ``y~* x~``
# (:func:`~aradius.semihilbert._inner`) and ``||x||_A`` is the Euclidean
# norm of ``x~``.


def _form(m: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y~* M x~`` for each matrix of a stack and the matching rows."""
    return (y.conj()[:, None, :] @ m @ x[:, :, None])[:, 0, 0]


def _require_unit(x: np.ndarray, what: str) -> None:
    norm = np.linalg.norm(x, axis=1)
    off = np.abs(norm - 1.0) > 1e-10
    if off.any():
        raise NotUnitVector(f"{what} has seminorm {float(norm[off][0])!r}, expected 1")


# -- scalar lemmas -------------------------------------------------------

# A batch's value lists arrive as one array, padded with zeros to the
# longest list; the values themselves are positive.


def _l_jensen(ops, params):
    vals = ops["values"]
    if vals.shape[1] != 2 or not vals.all():
        raise DomainViolation("jensen takes exactly two values")
    a, b = vals.T
    lam, r = params.lam, params.r
    lhs = a**lam * b ** (1.0 - lam)
    mid = lam * a + (1.0 - lam) * b
    rhs = (lam * a**r + (1.0 - lam) * b**r) ** (1.0 / r)
    inter = {"arithmetic_mean": mid, "slack_left": mid - lhs, "slack_right": rhs - mid}
    return lhs, rhs, inter


def _l_bohr(ops, params):
    # (sum a_i)^r <= n^(r-1) sum a_i^r; the padding adds zeros to both sums.
    vals, r = ops["values"], params.r
    n = np.count_nonzero(vals, axis=1)
    lhs = vals.sum(axis=1) ** r
    rhs = n ** (r - 1.0) * _rowpow(vals, r).sum(axis=1)
    return lhs, rhs, {"n": n}


# -- vector lemmas -------------------------------------------------------


def _vector_lemma(body):
    """Turn ``body`` into the registry formula of a three-vector lemma.

    ``body(q, params)`` maps the shared terms ``q`` (the seminorms of a and
    b, the moduli of <a, b>_A, <a, e>_A and <e, b>_A) to (lhs, rhs,
    intermediates); the formula computes them from the reduced vectors and
    checks that e is A-unit.
    """

    def formula(ops, params):
        a, b, e = ops["a"], ops["b"], ops["e"]
        _require_unit(e, "reference vector")
        q = {
            "na": np.linalg.norm(a, axis=1),
            "nb": np.linalg.norm(b, axis=1),
            "ab": np.abs(_inner(a, b)),
            "ae": np.abs(_inner(a, e)),
            "eb": np.abs(_inner(e, b)),
        }
        lhs, rhs, extra = body(q, params)
        inter = {"seminorm_a": q["na"], "seminorm_b": q["nb"], "inner_ab": q["ab"]}
        return lhs, rhs, {**inter, **extra}

    return formula


@_vector_lemma
def _v_buz_general(q, params):
    mod = abs(params.alpha)
    lhs = q["ae"] * q["eb"]
    rhs = (_max1(abs(params.alpha - 1.0)) * q["na"] * q["nb"] + q["ab"]) / mod
    return lhs, rhs, {}


@_vector_lemma
def _v_buz_half(q, params):
    lhs = q["ae"] * q["eb"]
    rhs = 0.5 * (q["na"] * q["nb"] + q["ab"])
    return lhs, rhs, {}


@_vector_lemma
def _v_mix_al_be(q, params):
    c1, c2, _, _ = _chi(params.alpha, params.beta)
    lhs = (q["ae"] * q["eb"]) ** 2
    rhs = c1 * q["na"] ** 2 * q["nb"] ** 2 + c2 * q["na"] * q["nb"] * q["ab"]
    return lhs, rhs, {"c_norm": c1, "c_inner": c2}


@_vector_lemma
def _v_buzano_beta(q, params):
    be = params.beta
    lhs = (q["ae"] * q["eb"]) ** 2
    rhs = 0.25 * (
        (2.0 * be + 1.0) / (be + 1.0) * q["na"] ** 2 * q["nb"] ** 2
        + (2.0 * be + 3.0) / (be + 1.0) * q["na"] * q["nb"] * q["ab"]
    )
    return lhs, rhs, {}


@_vector_lemma
def _v_ramadan_kareem(q, params):
    c1, c2 = _delta_pair(params.alpha, params.beta)
    lhs = (q["ae"] * q["eb"]) ** 2
    rhs = c1 * q["na"] ** 2 * q["nb"] ** 2 + c2 * q["ab"] ** 2
    return lhs, rhs, {"c_norm": c1, "c_inner": c2}


@_vector_lemma
def _v_buz_beta(q, params):
    be = params.beta
    lhs = (q["ae"] * q["eb"]) ** 2
    rhs = 0.5 * (
        (2.0 * be + 1.0) / (be + 1.0) * q["na"] ** 2 * q["nb"] ** 2
        + q["ab"] ** 2 / (be + 1.0)
    )
    return lhs, rhs, {}


@_vector_lemma
def _v_buz_beta_pow(q, params):
    be, r = params.beta, params.r
    lhs = (q["ae"] * q["eb"]) ** (2.0 * r)
    rhs = 0.5 * (
        (2.0 * be + 1.0) / (be + 1.0) * (q["na"] * q["nb"]) ** (2.0 * r)
        + q["ab"] ** (2.0 * r) / (be + 1.0)
    )
    return lhs, rhs, {}


@_vector_lemma
def _v_modified_buzano(q, params):
    be, r = params.beta, params.r
    lhs = (q["ae"] * q["eb"]) ** (2.0 * r)
    rhs = 0.25 * (
        (2.0 * be + 1.0) / (be + 1.0) * (q["na"] * q["nb"]) ** (2.0 * r)
        + (2.0 * be + 3.0) / (be + 1.0) * (q["na"] * q["nb"]) ** r * q["ab"] ** r
    )
    return lhs, rhs, {}


@_vector_lemma
def _v_drag(q, params):
    lhs = q["ae"] ** 2 + q["eb"] ** 2
    rhs = np.sqrt(q["na"] ** 4 + q["nb"] ** 4 + 2.0 * q["ab"] ** 2)
    return lhs, rhs, {}


# -- pointwise operator lemmas -------------------------------------------


def _commutes_with_weight(ctx, raw):
    # mixed_schwarz's hypothesis ``||T A - A T||_F <= 1e-8 ||A|| ||T||``, on T
    # and A in linalg's unit form so any scale qualifies; comm is scaled back.
    t, a = raw["T"], ctx.a
    (unit_t, st), (unit_a, sa) = _unit(t), _unit(a)
    comm, ok = _commutator(unit_t, unit_a, 1e-8 * (spectral_norm(a) / sa) * (spectral_norm(t) / st))
    return ok, {"commutator": comm * st * sa}


def _f_mixed_schwarz(ops, params):
    # |<Tx, y>_A| against the power pair: the product of
    # <|T|_A^(2 lam) x, x>_A ** (1/2) and <|T^#|_A^(2 (1-lam)) y, y>_A ** (1/2).
    t, x, y, lam = ops["T"], ops["x"], ops["y"], params.lam
    q1 = np.maximum(_form(t.abs_pow(2.0 * lam), x, x).real, 0.0)
    q2 = np.maximum(_form(t.adj_abs_pow(2.0 * (1.0 - lam)), y, y).real, 0.0)
    lhs = np.abs(_form(t.t, x, y))
    return lhs, np.sqrt(q1) * np.sqrt(q2), {"q_x": q1, "q_y": q2}


def _holder_inputs(ctx, raw):
    # holder_mccarthy's domain: r >= 0 and an A-positive T.
    if np.any(raw["r"] < 0.0):
        raise DomainViolation("r must be nonnegative")
    if not np.all(is_a_positive(ctx, raw["T"])):
        raise NotAPositive("operator is not A-positive")
    return True, {}


def _f_holder_mccarthy(ops, params):
    # For r >= 1, <Tx, x>_A^r <= <T^r x, x>_A on A-unit x; for 0 <= r <= 1
    # the inequality reverses.  T^r is the spectral power of the Hermitian
    # part of T~, negative eigenvalues clamped and 0^r = 0.
    t, x, r = ops["T"].t, ops["x"], ops["r"]
    _require_unit(x, "vector")
    sym = _hermitian_part(t, 0.0)[0]  # A-positivity is _holder_inputs's verdict
    vals, vecs = np.linalg.eigh(sym)
    vals = _rowpow(np.clip(vals, 0.0, None), r)
    base = np.maximum(_form(sym, x, x).real, 0.0)
    powered = _form((vecs * vals[:, None, :]) @ _adj(vecs), x, x).real
    up = r >= 1.0
    lhs, rhs = np.where(up, base**r, powered), np.where(up, powered, base**r)
    return lhs, rhs, {"form": base, "form_powered": powered, "r": r}


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
    lhs = antidiagonal_radius(x.t, y.t)
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
    lam_star, bound = _refined_alpha_min(u, v)
    lhs = antidiagonal_radius(x.t, y.t)
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
    w_block = antidiagonal_radius(x.t, y.t)
    lhs = w_block**r
    rhs = 2.0 ** (r - 2.0) * np.sqrt(w1) * np.sqrt(w2)
    inter = {"radius_sum_1": w1, "radius_sum_2": w2, "block_radius": w_block}
    return lhs, rhs, inter


def _m_thm_2_10(ops, params):
    return _radius_pair_bound(ops, params.r, params.lam)


def _m_rem_2_12(ops, params):
    return _radius_pair_bound(ops, 1.0, 0.5)


def _power_sum_norms(x, y, r):
    """The pair ||(Y#Y)^r + (XX#)^r||_A and ||(X#X)^r + (YY#)^r||_A."""
    return _each(
        spectral_norm,
        y.abs_pow(2.0 * r) + x.adj_abs_pow(2.0 * r),
        x.abs_pow(2.0 * r) + y.adj_abs_pow(2.0 * r),
    )


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
    lhs = antidiagonal_radius(x.t, y.t) ** (4.0 * r)
    rhs = _ramadan_rhs(be, np.maximum(lam_r, delta_r), np.maximum(rho, sigma))
    inter = {
        "power_sum_1": lam_r,
        "power_sum_2": delta_r,
        "holder_mix_1": rho,
        "holder_mix_2": sigma,
        "rhs_as_displayed": rhs / 4.0,
    }
    return lhs, rhs, inter


# -- product bounds -------------------------------------------------------


def _pair_core(ops, r, *more):
    """``|| |F~|^4r + |K~|^4r ||``, then the radii of ``K~* F~`` and of ``more``."""
    f, k = ops["F"], ops["K"]
    n2r = spectral_norm(f.abs_pow(4.0 * r) + k.abs_pow(4.0 * r))
    return n2r, *_each(classical_numerical_radius, _adj(k.t) @ f.t, *more)


def _p_power_2r(ops, params):
    r = params.r
    n2r, w_pair = _pair_core(ops, r)
    lhs = w_pair ** (2.0 * r)
    rhs = 0.5 * n2r
    return lhs, rhs, {"power_sum": n2r}


# -- display families over operand shapes -----------------------------------

# The paper states four displays once each, for the operator matrix
# [[0, X], [Y, 0]], and specializes them to one operator and to products.
# A shape ``terms(ops, r)`` gives the radius whose power is the left side,
# a pair ``n`` of norms, a pair ``v`` of radii, and its intermediates; a
# one-operator shape repeats each value in its pairs.  A family raises
# the radius to its power and builds its right side from ``max(n)`` and
# ``max(v)``; the registry binds each family to its shapes.


def _pair_terms(ops, r):
    """``[[0, X~], [Y~, 0]]``: its radius, power sums and radii of ``X~Y~``, ``Y~X~``."""
    x, y = ops["X"], ops["Y"]
    n = _power_sum_norms(x, y, r)
    v = _each(classical_numerical_radius, x.t @ y.t, y.t @ x.t)
    w = antidiagonal_radius(x.t, y.t)
    inter = {
        "power_sum_1": n[0],
        "power_sum_2": n[1],
        "radius_xy": v[0],
        "radius_yx": v[1],
    }
    return w, n, v, inter


def _single_terms(ops, r):
    """The pair shape at ``X = Y = M``: ``w(M~)``, its power sum and ``w(M~^2)``."""
    m = ops["M"]
    n_r = spectral_norm(m.abs_pow(2.0 * r) + m.adj_abs_pow(2.0 * r))
    w_sq, w_m = _each(classical_numerical_radius, m.t @ m.t, m.t)
    return w_m, (n_r, n_r), (w_sq, w_sq), {"power_sum": n_r, "radius_sq": w_sq}


def _product_terms(ops, r):
    """``S* T`` for the anti-diagonal ``T`` of ``T1, T2`` and ``S`` of ``S1, S2``.

    ``S* T = diag(S2~* T2~, S1~* T1~)``, and the radius of a direct sum is
    the larger radius of its summands.
    """
    t1, t2, s1, s2 = ops["T1"], ops["T2"], ops["S1"], ops["S2"]
    n = _each(
        spectral_norm,
        t2.abs_pow(4.0 * r) + s2.abs_pow(4.0 * r),
        t1.abs_pow(4.0 * r) + s1.abs_pow(4.0 * r),
    )
    w_2, w_1, *v = _each(
        classical_numerical_radius,
        _adj(s2.t) @ t2.t,
        _adj(s1.t) @ t1.t,
        s2.abs_pow(2.0) @ t2.abs_pow(2.0),
        s1.abs_pow(2.0) @ t1.abs_pow(2.0),
    )
    w_prod = np.maximum(w_2, w_1)
    inter = {
        "power_sum_2": n[0],
        "power_sum_1": n[1],
        "radius_grams_2": v[0],
        "radius_grams_1": v[1],
        "radius_product": w_prod,
    }
    return w_prod, n, v, inter


def _gram_terms(ops, r):
    """The product shape at ``T1 = T2 = F`` and ``S1 = S2 = K``."""
    f, k = ops["F"], ops["K"]
    n2r, w_pair, w_gram = _pair_core(ops, r, k.abs_pow(2.0) @ f.abs_pow(2.0))
    inter = {"power_sum": n2r, "radius_gram": w_gram}
    return w_pair, (n2r, n2r), (w_gram, w_gram), inter


def _delta(terms, ops, params):
    """``w^4 <= d1 max(n)^2 / 4 + d2 max(v)^2``, at ``r = 1``."""
    d1, d2 = _delta_pair(params.alpha, params.beta)
    w, n, v, inter = terms(ops, 1.0)
    rhs = 0.25 * d1 * np.maximum(*n) ** 2 + d2 * np.maximum(*v) ** 2
    return w**4, rhs, {"delta_1": d1, "delta_2": d2, **inter}


def _ramadan_rhs(beta, n, v):
    """Ramadan's right side ``(2b+1)/(16(b+1)) n^2 + (2b+3)/(8(b+1)) n v``."""
    c1 = (2.0 * beta + 1.0) / (16.0 * (beta + 1.0))
    c2 = (2.0 * beta + 3.0) / (8.0 * (beta + 1.0))
    return c1 * n**2 + c2 * n * v


def _ramadan(terms, ops, params):
    """``w^4r <= _ramadan_rhs(beta, max(n), max(v)^r)``."""
    r = params.r
    w, n, v, inter = terms(ops, r)
    rhs = _ramadan_rhs(params.beta, np.maximum(*n), np.maximum(*v) ** r)
    return w ** (4.0 * r), rhs, inter


def _beta_mean(terms, ops, params):
    """``w^4r <= (2b+1)/(8(b+1)) max(n)^2 + max(v)^2r / (2(b+1))``.

    ``limit_bound`` is the right side's limit as ``b`` grows, ``max(n)^2 / 4``.
    """
    be, r = params.beta, params.r
    w, n, v, inter = terms(ops, r)
    n = np.maximum(*n)
    c1 = (2.0 * be + 1.0) / (8.0 * (be + 1.0))
    rhs = c1 * n**2 + np.maximum(*v) ** (2.0 * r) / (2.0 * (be + 1.0))
    return w ** (4.0 * r), rhs, {**inter, "limit_bound": 0.25 * n**2}


def _alpha(terms, ops, params):
    """``w^2r <= c1 max(n) + c2 max(v)^r``."""
    al, r = params.alpha, params.r
    w, n, v, inter = terms(ops, r)
    c1 = 2.0 ** (r - 2.0) * _max1(abs(al - 1.0) ** r) / abs(al) ** r
    c2 = 2.0 ** (r - 1.0) / abs(al) ** r
    return w ** (2.0 * r), c1 * np.maximum(*n) + c2 * np.maximum(*v) ** r, inter


# The kz displays bound the full block [[F, X], [Y, K]] and specialize it
# to F = X = Y = K = M.  A shape ``terms(ops)`` gives the radius, a pair of
# quartic norms, a pair of quadratic norms, the cross radius ``v`` and a
# factor, which multiplies each coefficient of the family's right side.


def _block_terms(ops):
    """``[[F~, X~], [Y~, K~]]``: its radius, norm pairs, the radius of ``[[0, X~K~], [Y~F~, 0]]``."""
    f, x, y, k = ops["F"], ops["X"], ops["Y"], ops["K"]
    a, b, c, d = _each(
        spectral_norm,
        f.abs_pow(4.0) + x.adj_abs_pow(4.0),
        k.abs_pow(4.0) + y.adj_abs_pow(4.0),
        f.abs_pow(2.0) + x.adj_abs_pow(2.0),
        k.abs_pow(2.0) + y.adj_abs_pow(2.0),
    )
    v = antidiagonal_radius(x.t @ k.t, y.t @ f.t)
    w = classical_numerical_radius(np.block([[f.t, x.t], [y.t, k.t]]))
    inter = {
        "norm_quartic_f": a,
        "norm_quartic_k": b,
        "norm_quad_f": c,
        "norm_quad_k": d,
        "radius_cross": v,
    }
    return w, (a, b), (c, d), v, 1.0, inter


def _collapsed_terms(ops):
    """The block at ``F = X = Y = K = M``, of radius ``2 w(M~)``: ``w(M~)``, factor 1/16.

    Its norm pairs repeat ``|| |M~|^4 + |M~*|^4 ||`` and ``|| |M~|^2 +
    |M~*|^2 ||``, and ``v = w(M~^2)``.  A power of two scales each
    coefficient exactly.
    """
    m = ops["M"]
    w_m, (quad, _), (w_sq, _), _ = _single_terms(ops, 1.0)
    quart = spectral_norm(m.abs_pow(4.0) + m.adj_abs_pow(4.0))
    inter = {"norm_quartic": quart, "norm_quad": quad, "radius_sq": w_sq}
    return w_m, (quart, quart), (quad, quad), w_sq, 1.0 / 16.0, inter


def _kz_coeffs(params):
    """kz's coefficients ``2 + 4 chi1, 4 chi2, 4`` and the chi it reports."""
    chi1, chi2, _, _ = _chi(params.alpha, params.beta)
    return (2.0 + 4.0 * chi1, 4.0 * chi2, 4.0), {"chi_1": chi1, "chi_2": chi2}


def _modified_kz_coeffs(params):
    """``2 + 2 chi1 + 2 chi3, 2 chi2 + 2 mu chi4, 4 + 4 (1 - mu) chi4`` and the chi."""
    chi1, chi2, chi3, chi4 = _chi(params.alpha, params.beta)
    mu = params.mu
    coeffs = (
        2.0 + 2.0 * chi1 + 2.0 * chi3,
        2.0 * chi2 + 2.0 * mu * chi4,
        4.0 + 4.0 * (1.0 - mu) * chi4,
    )
    return coeffs, {"chi_1": chi1, "chi_2": chi2, "chi_3": chi3, "chi_4": chi4}


def _kz_family(coeffs, terms, ops, params):
    """``w^4 <= c1 max(n4) + c2 max(n2) v + c3 v^2``, each ``c`` times the shape's factor."""
    w, n4, n2, v, factor, inter = terms(ops)
    (c1, c2, c3), chi = coeffs(params)
    c1, c2, c3 = factor * c1, factor * c2, factor * c3
    rhs = c1 * np.maximum(*n4) + c2 * np.maximum(*n2) * v + c3 * v**2
    return w**4, rhs, {**chi, **inter}


def _m_kz(ops, params):
    # kz ships the final term as 4 w^2: the displayed 2 w^2 fails at the
    # identity equality case.
    lhs, rhs, inter = _kz_family(_kz_coeffs, _block_terms, ops, params)
    return lhs, rhs, {**inter, "rhs_as_displayed": rhs - 2.0 * inter["radius_cross"] ** 2}


def _s_college1(ops, params):
    # college1 ships kz's collapse, whose last term is (1/4) w(M~^2)^2; the
    # display prints (1/8) w(M~^2) as its middle term instead.
    lhs, rhs, inter = _kz_family(_kz_coeffs, _collapsed_terms, ops, params)
    chi1, chi2, quart, quad, w_sq = (
        inter[key] for key in ("chi_1", "chi_2", "norm_quartic", "norm_quad", "radius_sq")
    )
    shown = (1.0 + 2.0 * chi1) / 8.0 * quart + 0.125 * w_sq + 0.25 * chi2 * quad * w_sq
    return lhs, rhs, {**inter, "rhs_as_displayed": shown}


# -- registry -------------------------------------------------------------


@dataclass(frozen=True)
class RegistryEntry:
    """Shape metadata and formula for one inequality id.

    ``fn(ops, params)`` gives ``(lhs, rhs, intermediates)`` for a batch;
    ``check(ctx, ambient_ops)``, where set, raises on inputs outside the
    domain and gives a further hypothesis and intermediates.
    """

    kind: str  # scalar | vector | matrix | single | product | special
    operands: tuple[str, ...]
    params: tuple[str, ...]
    fn: Callable
    check: Callable | None = None


_ABE, _XY, _FXYK = ("a", "b", "e"), ("X", "Y"), ("F", "X", "Y", "K")
_M, _TS, _FK = ("M",), ("T1", "T2", "S1", "S2"), ("F", "K")
_AB, _BR, _AR = ("alpha", "beta"), ("beta", "r"), ("alpha", "r")

REGISTRY: Mapping[str, RegistryEntry] = MappingProxyType({
    "jensen": RegistryEntry("scalar", ("values",), ("lam", "r"), _l_jensen),
    "bohr": RegistryEntry("scalar", ("values",), ("r",), _l_bohr),
    "buz_general": RegistryEntry("vector", _ABE, ("alpha",), _v_buz_general),
    "buz_half": RegistryEntry("vector", _ABE, (), _v_buz_half),
    "mix_al_be": RegistryEntry("vector", _ABE, _AB, _v_mix_al_be),
    "buzano_beta": RegistryEntry("vector", _ABE, ("beta",), _v_buzano_beta),
    "ramadan_kareem": RegistryEntry("vector", _ABE, _AB, _v_ramadan_kareem),
    "buz_beta": RegistryEntry("vector", _ABE, ("beta",), _v_buz_beta),
    "buz_beta_pow": RegistryEntry("vector", _ABE, _BR, _v_buz_beta_pow),
    "modified_buzano": RegistryEntry("vector", _ABE, _BR, _v_modified_buzano),
    "drag": RegistryEntry("vector", _ABE, (), _v_drag),
    "thm_2_7": RegistryEntry("matrix", _XY, ("lam",), _m_thm_2_7),
    "thm_2_8": RegistryEntry("matrix", _XY, (), _m_thm_2_8),
    "thm_2_10": RegistryEntry("matrix", _XY, ("r", "lam"), _m_thm_2_10),
    "cor_2_11": RegistryEntry("matrix", _XY, ("r", "lam"), _m_thm_2_10),
    "rem_2_12": RegistryEntry("matrix", _XY, (), _m_rem_2_12),
    "moby_a1": RegistryEntry("matrix", _XY, _AB, partial(_delta, _pair_terms)),
    "ramadan1": RegistryEntry("matrix", _XY, _BR, partial(_ramadan, _pair_terms)),
    "thm_beta": RegistryEntry("matrix", _XY, _BR, partial(_beta_mean, _pair_terms)),
    "thm_alpha": RegistryEntry("matrix", _XY, _AR, partial(_alpha, _pair_terms)),
    "thm_2_16": RegistryEntry("matrix", _XY, ("beta", "r", "lam", "p"), _m_thm_2_16),
    "kz": RegistryEntry("matrix", _FXYK, _AB, _m_kz),
    "modified_kz": RegistryEntry(
        "matrix", _FXYK, _AB + ("mu",), partial(_kz_family, _modified_kz_coeffs, _block_terms)
    ),
    "moby_a2": RegistryEntry("single", _M, _AB, partial(_delta, _single_terms)),
    "ramadan1_cor": RegistryEntry("single", _M, _BR, partial(_ramadan, _single_terms)),
    "mohd1": RegistryEntry("single", _M, _BR, partial(_beta_mean, _single_terms)),
    "alpha_cor": RegistryEntry("single", _M, _AR, partial(_alpha, _single_terms)),
    "college1": RegistryEntry("single", _M, _AB, _s_college1),
    "modified_kz_cor": RegistryEntry(
        "single", _M, _AB + ("mu",), partial(_kz_family, _modified_kz_coeffs, _collapsed_terms)
    ),
    "prod1": RegistryEntry("product", _TS, _BR, partial(_ramadan, _product_terms)),
    "prod2": RegistryEntry("product", _TS, _BR, partial(_beta_mean, _product_terms)),
    "cor_prod": RegistryEntry("product", _FK, _BR, partial(_ramadan, _gram_terms)),
    "cor_prod_a": RegistryEntry("product", _FK, _BR, partial(_beta_mean, _gram_terms)),
    "power_2r": RegistryEntry("product", _FK, ("r",), _p_power_2r),
    "mixed_schwarz": RegistryEntry(
        "special", ("T", "x", "y"), ("lam",), _f_mixed_schwarz, _commutes_with_weight
    ),
    "holder_mccarthy": RegistryEntry(
        "special", ("T", "x", "r"), (), _f_holder_mccarthy, _holder_inputs
    ),
})


def registry_ids() -> tuple[str, ...]:
    """All registered inequality ids, in a stable order."""
    return tuple(REGISTRY)


def registry_entry(inequality_id: str) -> RegistryEntry:
    try:
        return REGISTRY[inequality_id]
    except KeyError:
        raise UnknownId(f"unknown inequality id {inequality_id!r}") from None


# -- evaluation -----------------------------------------------------------

#: Vector operands; upper-case names are matrices, ``values`` a list of
#: positive numbers and ``r`` a number.
_VECTORS = ("a", "b", "e", "x", "y")


def _gather(iid, name, operands, params, dim):
    """Operand ``name`` of every trial, validated, with a leading trial axis.

    A trial without ``r`` takes the parameter ``r``; value lists are padded
    with zeros to the longest.  Numbers must be finite.
    """
    if name == "r":
        rs = np.array([float(ops.get("r", p.r)) for ops, p in zip(operands, params)])
        if not np.isfinite(rs).all():
            raise DomainViolation(f"{iid} requires a finite r")
        return rs
    if any(name not in ops for ops in operands):
        raise DomainViolation(f"{iid!r} requires operand {name!r}")
    if name in _VECTORS:
        return as_vectors([ops[name] for ops in operands], dim=dim)
    if name == "values":
        lists = [[float(v) for v in ops[name]] for ops in operands]
        if not all(lists):
            raise DomainViolation(f"{iid} needs at least one value")
        if not all(0.0 < v < math.inf for vals in lists for v in vals):
            raise DomainViolation(f"{iid} requires positive finite values")
        width = max(map(len, lists))
        return np.array([vals + [0.0] * (width - len(vals)) for vals in lists])
    stack = np.array([as_matrix(ops[name], square=True) for ops in operands])
    if stack.shape[-1] != dim:
        raise DomainViolation(f"operand {name!r} must match the weight dimension {dim}")
    return stack


def evaluate_bounds(
    ctxs: Sequence[SemiInnerContext | None],
    inequality_id: str,
    operands: Sequence[Mapping[str, object]],
    params: Sequence[BoundParams | None],
) -> list[BoundReport]:
    """Evaluate one registered bound on a batch of trials, one report each.

    Trial ``i`` is ``ctxs[i]``, ``operands[i]`` and ``params[i]`` (``None``
    for the defaults).  ``operands`` carries whatever the id's registry
    entry names: matrix blocks for operator bounds, ``a``/``b``/``e`` for
    vector lemmas, ``values`` for scalar lemmas, ``T``/``x``/``y`` (plus
    scalar ``r``) for the pointwise lemmas.  The weights must share
    dimension and rank; scalar lemmas accept ``None`` weights.  This front
    end validates operands and parameters into arrays, runs the stacked
    core :func:`_evaluate_stacked` (which campaigns call directly) and
    wraps each trial's entries in a report, bitwise what the trial alone gets.
    A trial whose left or right side overflows raises :class:`DomainViolation`.
    """
    entry = registry_entry(inequality_id)
    k = len(operands)
    if not k or len(ctxs) != k or len(params) != k:
        raise DomainViolation(
            "a batch needs one weight, operand set and parameter set per trial"
        )
    params = [p or BoundParams() for p in params]
    ctx = None
    if entry.kind != "scalar":
        if any(c is None for c in ctxs):
            raise DomainViolation(f"{inequality_id!r} requires a weight context")
        ctx = stack_contexts(ctxs)
    dim = ctx.dim if ctx else None
    ops = {n: _gather(inequality_id, n, operands, params, dim) for n in entry.operands}
    keys = [f.name for f in fields(BoundParams)] + ["q"]
    cols = SimpleNamespace(**{key: np.array([getattr(p, key) for p in params]) for key in keys})
    lhs, rhs, _, hyp, inter = _evaluate_stacked(inequality_id, ctx, ops, cols)
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise DomainViolation(f"{inequality_id!r}: lhs or rhs is not finite")
    lhs, rhs, hyp = lhs.tolist(), rhs.tolist(), hyp.tolist()
    cols = {name: v.tolist() for name, v in inter.items()}
    return [
        _report(
            inequality_id, lhs[i], rhs[i], {n: c[i] for n, c in cols.items()}, hyp[i], p
        )
        for i, p in enumerate(params)
    ]


@np.errstate(over="ignore", invalid="ignore")
def _evaluate_stacked(inequality_id: str, ctx, ops: Mapping, params: SimpleNamespace):
    """:func:`evaluate_bounds`'s core on a stacked context, operand arrays and parameter columns.

    ``ctx`` holds one row per trial; the core tiles it for the matrix operands.
    Returns ``(lhs, rhs, rel_slack, hypotheses_ok, intermediates)``, one entry per trial each.
    Finite operands can still overflow at extreme scales: a non-finite
    reduction raises :class:`DomainViolation`, and a side that overflows is
    returned as it is, for the caller to raise on or to skip.
    """
    entry = registry_entry(inequality_id)
    k = len(params.p)
    mats = [name for name in entry.operands if name[0].isupper()]
    vecs = [name for name in entry.operands if name in _VECTORS]
    # ``ops``, the caller's own dict, holds the ambient operands until the
    # reductions replace them.
    hyp, inter = entry.check(ctx, ops) if entry.check else (True, {})
    hyp = np.full(k, hyp)
    if vecs:
        # a zero stands in under a rank-zero weight, as the 1x1 zero below
        # does for the operators
        v = _reduced_rows(ctx, np.stack([ops[name] for name in vecs]))
        ops.update(zip(vecs, v if ctx.rank else np.zeros(v.shape[:2] + (1,))))
    if mats:
        if len(mats) > 1:  # row j * k + i is trial i's weight, for matrix operand j
            ctx = SemiInnerContext(*(np.vstack([f] * len(mats)) for f in (ctx.a, ctx.v_r, ctx.lam)))
        stack = np.concatenate([ops[name] for name in mats])
        # Every operator display hypothesizes that its operands map ker(A)
        # into itself; under it the reduction of a product is the product
        # of the reductions, which the formulas rely on.
        kept = np.reshape(preserves_kernel(ctx, stack), (len(mats), k))
        hyp = hyp & kept.all(axis=0)
        # A rank-zero weight reduces every operand to the empty matrix; a
        # 1x1 zero stands in for it, so every formula takes its zero value.
        reduced = reduce(ctx, stack) if ctx.rank else np.zeros((len(stack), 1, 1), complex)
        if not np.isfinite(reduced).all():
            raise DomainViolation(f"{inequality_id!r}: a reduced operand is not finite")
        ops.update(zip(mats, _Factors.of(reduced).split(len(mats))))
        inter = {"scale": np.max([ops[name].norm for name in mats], axis=0), **inter}
    lhs, rhs, more = entry.fn(ops, params)
    rel_slack = (rhs - lhs) / np.maximum(1.0, np.abs(rhs))
    inter.update(more)
    return lhs, rhs, rel_slack, hyp, inter


def evaluate_bound(
    ctx: SemiInnerContext | None,
    inequality_id: str,
    operands: Mapping[str, object],
    params: BoundParams | None = None,
) -> BoundReport:
    """Evaluate any registered id on one trial, as a batch of one.

    ``operands`` is as for :func:`evaluate_bounds`.
    """
    return evaluate_bounds([ctx], inequality_id, [operands], [params])[0]


def _require_kind(inequality_id: str, kind: str) -> None:
    if registry_entry(inequality_id).kind != kind:
        raise UnknownId(f"{inequality_id!r} is not a {kind} bound")


def check_scalar_lemma(
    inequality_id: str, values: Sequence[float], params: BoundParams | None = None
) -> BoundReport:
    """Evaluate one of the scalar lemmas on positive inputs.

    ``jensen`` takes two values and reports the full chain
    ``a^t b^(1-t) <= t a + (1-t) b <= (t a^r + (1-t) b^r)^(1/r)`` with the
    middle term and both link slacks in the intermediates; ``bohr`` takes
    any tuple and checks ``(sum a_i)^r <= n^(r-1) sum a_i^r``.
    """
    _require_kind(inequality_id, "scalar")
    return evaluate_bound(None, inequality_id, {"values": values}, params)


def check_vector_lemma(
    ctx: SemiInnerContext,
    inequality_id: str,
    a,
    b,
    e,
    params: BoundParams | None = None,
) -> BoundReport:
    """Evaluate one of the three-vector lemmas; ``e`` must be A-unit."""
    _require_kind(inequality_id, "vector")
    return evaluate_bound(ctx, inequality_id, {"a": a, "b": b, "e": e}, params)


def check_mixed_schwarz(ctx: SemiInnerContext, t, x, y, lam: float = 0.5) -> BoundReport:
    """Mixed Schwarz bound ``|<Tx, y>_A|`` against interpolated absolute values.

    The right side uses the power pair: the product of
    ``<|T|_A^(2 lam) x, x>_A ** (1/2)`` and
    ``<|T^#|_A^(2 (1-lam)) y, y>_A ** (1/2)``.  The displayed hypothesis
    asks ``T`` to commute with the weight; when it does not (or when an
    operand moves ``ker A``), the report is advisory.
    """
    operands = {"T": t, "x": x, "y": y}
    return evaluate_bound(ctx, "mixed_schwarz", operands, BoundParams(lam=lam))


def check_holder_mccarthy(ctx: SemiInnerContext, t, x, r: float) -> BoundReport:
    """Power bound for the quadratic form of an A-positive operator.

    For ``r >= 1``: ``<Tx, x>_A^r <= <T^r x, x>_A`` on A-unit ``x``; for
    ``0 <= r <= 1`` the inequality reverses.  Powers of ``T`` use the
    spectral calculus of the reduction.
    """
    return evaluate_bound(ctx, "holder_mccarthy", {"T": t, "x": x, "r": r})


def check_matrix_bound(
    ctx: SemiInnerContext,
    inequality_id: str,
    blocks: Mapping[str, np.ndarray],
    params: BoundParams | None = None,
) -> BoundReport:
    """Evaluate a 2x2 block-matrix radius bound.

    ``blocks`` supplies the named blocks the id needs (``X``/``Y``, plus
    ``F``/``K`` for the full-matrix bounds).  The left side is the
    appropriate power of the radius of the block matrix over
    ``diag(A, A)``: the classical radius of the block of reduced blocks,
    from ``X~`` and ``Y~`` by :func:`antidiagonal_radius` for ``[[0, X~],
    [Y~, 0]]``; the right side follows the registered display.
    """
    _require_kind(inequality_id, "matrix")
    return evaluate_bound(ctx, inequality_id, blocks, params)


def check_single_operator_bound(
    ctx: SemiInnerContext,
    inequality_id: str,
    m,
    params: BoundParams | None = None,
) -> BoundReport:
    """Evaluate a single-operator radius bound on ``M``."""
    _require_kind(inequality_id, "single")
    return evaluate_bound(ctx, inequality_id, {"M": m}, params)


def check_product_bound(
    ctx: SemiInnerContext,
    inequality_id: str,
    operators: Mapping[str, np.ndarray],
    params: BoundParams | None = None,
) -> BoundReport:
    """Evaluate an operator-product radius bound."""
    _require_kind(inequality_id, "product")
    return evaluate_bound(ctx, inequality_id, operators, params)


# -- optimizers ------------------------------------------------------------


def _stationary_point(lu, lv):
    """The formula of :func:`refined_alpha_critical_point`, from ``ln u`` and ``ln v``."""
    return (np.log(lv / lu) + 2.0 * lv) / (2.0 * (lu + lv))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _refined_alpha_min(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimizer and minimum of ``(u^(2 t) + v^(2 (1-t))) / 2`` on ``[0, 1]``, per entry.

    The objective is convex.  Where both norms are positive and on the
    same side of 1, its stationary point clipped to ``[0, 1]`` is the
    candidate; elsewhere the objective is monotone and ``t = 0`` is.  An
    endpoint replaces the candidate only where strictly lower; one that
    overflows loses, since ``f(1/2) <= max(u, v)``.  Norms equal to
    ``1e-14`` relative, at any scale, pin ``t = 1/2`` exactly.
    """

    def f(t):
        return 0.5 * (u ** (2.0 * t) + v ** (2.0 * (1.0 - t)))

    lu, lv = np.log(u), np.log(v)
    positive = (u > 0.0) & (v > 0.0)
    interior = positive & (lu * lv > 0.0)
    lam = np.where(interior, np.clip(_stationary_point(lu, lv), 0.0, 1.0), 0.0)
    best = f(lam)
    for t in (0.0, 1.0):
        lower = f(t) < best
        lam, best = np.where(lower, t, lam), np.where(lower, f(t), best)
    equal = positive & (np.abs(u - v) <= 1e-14 * np.maximum(u, v))
    return np.where(equal, 0.5, lam), np.where(equal, 0.5 * (u + v), best)


def optimize_refined_alpha_bound(
    ctx: SemiInnerContext, x, y
) -> tuple[float, float]:
    """Minimize ``(||X||_A^(2 t) + ||Y^#||_A^(2 (1-t))) / 2`` over ``t in [0, 1]``.

    The objective is convex, so its closed-form stationary point (see
    :func:`refined_alpha_critical_point`), clipped to the interval and
    compared against both endpoints, is the global minimum; equal norms
    short-circuit to ``t = 1/2`` exactly.  If either seminorm vanishes the
    better endpoint is returned (any fixed ``t`` still yields a valid
    bound).  ``||Y^#||_A = ||Y||_A``, because ``Y^#`` reduces to ``Y~*``.
    """
    u, v = op_seminorm(ctx, x), op_seminorm(ctx, y)
    lam, best = _refined_alpha_min(np.array([u]), np.array([v]))
    return float(lam[0]), float(best[0])


def refined_alpha_critical_point(norm_x: float, norm_y_adj: float) -> float:
    """Closed-form stationary point of the refined bound.

    ``f'(t) = 0`` for ``f(t) = (u^(2t) + v^(2(1-t))) / 2`` means ``u^(2t)
    ln u = v^(2(1-t)) ln v``; when both norms lie above 1 or both below 1
    (otherwise ``f`` is monotone), taking logarithms gives ``t0 = (ln(ln v
    / ln u) + 2 ln v) / (2 (ln u + ln v))``.
    :func:`optimize_refined_alpha_bound` and ``thm_2_8`` minimize through
    this formula.
    """
    lu, lv = math.log(norm_x), math.log(norm_y_adj)
    if not lu * lv > 0.0:
        raise DomainViolation("closed form requires both norms above 1 or both below 1")
    return float(_stationary_point(lu, lv))


def optimize_params(
    ctx: SemiInnerContext,
    inequality_id: str,
    operands: Mapping[str, np.ndarray],
    grid: ParamGrid,
) -> BoundReport:
    """Minimize an operator bound's right side over a finite parameter grid.

    Only parameters the id actually consumes are swept.  The grid is
    evaluated in batches of at most ``_CHUNK_ENTRIES`` stacked matrix
    entries (``_CHUNK_ENTRIES // dim**2`` combinations, at least one); the
    first combination with the smallest right side wins.
    """
    entry = registry_entry(inequality_id)
    if entry.kind not in ("matrix", "single", "product"):
        raise DomainViolation("optimize_params handles operator bounds only")
    pools = {
        "alpha": tuple(grid.alphas),
        "beta": tuple(grid.betas),
        "r": tuple(grid.rs),
        "mu": tuple(grid.mus),
        "lam": tuple(grid.lams),
        "p": tuple(grid.ps),
    }
    names = entry.params
    combos = [
        BoundParams(**dict(zip(names, combo)))
        for combo in _cartesian(*(pools[n] for n in names))
    ]
    reports: list[BoundReport] = []
    size = max(1, _CHUNK_ENTRIES // ctx.dim**2)
    for start in range(0, len(combos), size):
        batch = combos[start : start + size]
        k = len(batch)
        reports += evaluate_bounds([ctx] * k, inequality_id, [operands] * k, batch)
    return min(reports, key=lambda rep: rep.rhs)
