"""Randomized soundness campaigns for the inequality registry.

Instances are drawn from :class:`GenSpec`-described distributions whose
operator classes line up with the hypotheses the bounds carry (weights
of each structure; dense, weight-commuting, weight-selfadjoint, and
weight-positive operators).  Campaigns are deterministic: every trial
derives its own RNG stream from ``(seed, inequality_id, trial_index)``,
so reruns — serial or parallel — agree byte for byte.

A campaign never hides a negative result: each violating trial's full
inputs are serialized into the report for replay, and the sharpest
(minimal relative slack) satisfying trial is persisted the same way.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .inequalities import (
    BoundParams,
    BoundReport,
    DomainViolation,
    evaluate_bound,
    registry_entry,
)
from .linalg import DIM_CAP, spectral_norm
from .matio import complex_from_pairs, matrix_to_obj, params_from_obj, params_to_obj
from .semihilbert import SemiInnerContext, make_context, vec_seminorm

A_KINDS = ("identity", "diagonal", "dense_psd", "rank_deficient")
T_KINDS = ("dense", "a_commuting", "a_selfadjoint", "a_positive")

#: Hypothesis-respecting operator classes for the pointwise lemmas.
_T_KIND_OVERRIDES = MappingProxyType(
    {"mixed_schwarz": "a_commuting", "holder_mccarthy": "a_positive"}
)


@dataclass(frozen=True)
class GenSpec:
    """Distribution of one random instance family."""

    dim: int = 3
    a_kind: str = "dense_psd"
    t_kind: str = "dense"
    scale: float = 1.0
    seed: int = 0
    rank: int | None = None

    def __post_init__(self):
        if not 1 <= self.dim <= DIM_CAP:
            raise DomainViolation(f"dim must lie in [1, {DIM_CAP}]")
        if self.a_kind not in A_KINDS:
            raise DomainViolation(f"a_kind must be one of {A_KINDS}")
        if self.t_kind not in T_KINDS:
            raise DomainViolation(f"t_kind must be one of {T_KINDS}")
        if not (np.isfinite(self.scale) and self.scale >= 0.0):
            raise DomainViolation("scale must be finite and nonnegative")
        if self.rank is not None and not 1 <= self.rank <= self.dim:
            raise DomainViolation("rank must lie in [1, dim]")

    @property
    def effective_rank(self) -> int:
        if self.rank is not None:
            return self.rank
        return max(1, self.dim - 1)


@dataclass(frozen=True)
class CampaignReport:
    """Aggregate outcome of one inequality's campaign.

    ``min_rel_slack``/``mean_rel_slack``/``sharpest_case`` summarize the
    trials whose hypotheses held; hypothesis failures are counted in
    ``skipped`` and never contribute violations.
    """

    inequality_id: str
    trials: int
    violations: int
    min_rel_slack: float | None
    mean_rel_slack: float | None
    sharpest_case: Mapping | None
    seed: int
    skipped: int = 0
    violation_cases: tuple = ()


_MAX_PERSISTED_VIOLATIONS = 25


def _cgauss(rng: np.random.Generator, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def gen_context(spec: GenSpec) -> SemiInnerContext:
    """Draw a weight of the requested structure and wrap it in a context."""
    rng = _rng(spec.seed, 101)
    n = spec.dim
    if spec.a_kind == "identity":
        a = np.eye(n, dtype=np.complex128)
    elif spec.a_kind == "diagonal":
        a = np.diag(rng.uniform(0.5, 2.0, n)).astype(np.complex128)
    elif spec.a_kind == "dense_psd":
        g = _cgauss(rng, n, n)
        a = g @ g.conj().T / n + 1e-6 * spec.scale * np.eye(n)
        a /= max(spectral_norm(a), 1e-300)
    else:  # rank_deficient
        k = spec.effective_rank
        g = _cgauss(rng, n, n)
        d = np.zeros(n)
        d[:k] = rng.uniform(0.5, 2.0, k)
        a = g.conj().T @ np.diag(d) @ g
        a /= max(spectral_norm(a), 1e-300)
    return make_context(a)


def gen_operator(ctx: SemiInnerContext, spec: GenSpec) -> np.ndarray:
    """Draw one operator of the requested class for the given weight.

    ``dense`` draws a complex Gaussian and removes its kernel-escaping
    part (so the operator always maps ``ker A`` into itself; a no-op for
    invertible weights).  ``a_commuting`` is a real-coefficient
    polynomial in the weight of degree at most ``dim - 1``.  The
    weight-selfadjoint and weight-positive kinds pull a (PSD) Hermitian
    form on the range back through the pseudoinverse, plus an
    independent block acting inside the kernel.
    """
    rng = _rng(spec.seed, 202)
    n = ctx.dim
    proj = ctx.range_proj
    comp = np.eye(n) - proj
    if spec.t_kind == "dense":
        g = spec.scale * _cgauss(rng, n, n)
        return g - proj @ g @ comp
    if spec.t_kind == "a_commuting":
        deg = min(max(n - 1, 0), 3)
        coeffs = rng.standard_normal(deg + 1)
        base = ctx.a / max(spectral_norm(ctx.a), 1e-300)
        acc = np.zeros((n, n), dtype=np.complex128)
        for c in coeffs[::-1]:
            acc = acc @ base + c * np.eye(n)
        return spec.scale * acc
    g = _cgauss(rng, n, n)
    if spec.t_kind == "a_selfadjoint":
        h = 0.5 * (g + g.conj().T)
    else:  # a_positive
        h = g @ g.conj().T / n
    core = ctx.a_pinv @ (proj @ h @ proj)
    kern = comp @ _cgauss(rng, n, n) @ comp
    return spec.scale * (core + 0.5 * kern)


def _gen_vector(ctx: SemiInnerContext, rng: np.random.Generator, unit: bool = False):
    for _ in range(256):
        v = _cgauss(rng, ctx.dim)
        if not unit:
            return v
        norm = vec_seminorm(ctx, v)
        if norm > 1e-8:
            return v / norm
    raise DomainViolation("could not draw a unit vector for this weight")


def _draw_params(rng: np.random.Generator, iid: str) -> BoundParams:
    alpha = rng.uniform(0.6, 3.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    beta = rng.uniform(0.0, 4.0)
    r = float(rng.choice([1.0, 1.25, 1.5, 2.0]))
    mu = rng.uniform(0.0, 1.0)
    lam = rng.uniform(0.05, 0.95)
    p = rng.uniform(1.3, 4.0)
    if iid == "thm_2_16":
        q = p / (p - 1.0)
        r = max(r, 2.0 / p, 2.0 / q)
    return BoundParams(alpha=alpha, beta=beta, r=r, mu=mu, lam=lam, p=p)


def _draw_operands(ctx, spec: GenSpec, entry, iid: str, op_seeds, rng):
    t_kind = _T_KIND_OVERRIDES.get(iid, spec.t_kind)
    operands: dict = {}
    if entry.kind in ("matrix", "single", "product"):
        for i, name in enumerate(entry.operands):
            ospec = replace(spec, seed=int(op_seeds[i]), t_kind=t_kind)
            operands[name] = gen_operator(ctx, ospec)
    elif entry.kind == "vector":
        operands["a"] = spec.scale * _gen_vector(ctx, rng)
        operands["b"] = spec.scale * _gen_vector(ctx, rng)
        operands["e"] = _gen_vector(ctx, rng, unit=True)
    elif entry.kind == "scalar":
        count = 2 if iid == "jensen" else int(rng.integers(1, 6))
        operands["values"] = [float(v) for v in rng.uniform(0.05, 10.0, count)]
    elif iid == "mixed_schwarz":
        ospec = replace(spec, seed=int(op_seeds[0]), t_kind=t_kind)
        operands["T"] = gen_operator(ctx, ospec)
        operands["x"] = spec.scale * _gen_vector(ctx, rng)
        operands["y"] = spec.scale * _gen_vector(ctx, rng)
    elif iid == "holder_mccarthy":
        ospec = replace(spec, seed=int(op_seeds[0]), t_kind=t_kind)
        operands["T"] = gen_operator(ctx, ospec)
        operands["x"] = _gen_vector(ctx, rng, unit=True)
        operands["r"] = float(rng.uniform(0.0, 2.5))
    else:  # pragma: no cover - registry kinds are closed
        raise DomainViolation(f"no generator for {iid!r}")
    return operands


def _serialize_operand(name: str, value) -> object:
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return matrix_to_obj(name, value)


def _serialize_case(iid, trial, spec, ctx, operands, params, rep, tol) -> dict:
    return {
        "inequality_id": iid,
        "trial": int(trial),
        "seed": int(spec.seed),
        "weight": matrix_to_obj("A", ctx.a),
        "operands": {k: _serialize_operand(k, v) for k, v in operands.items()},
        "params": params_to_obj(params),
        "tol": tol,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "rel_slack": rep.rel_slack,
        "hypotheses_ok": rep.hypotheses_ok,
    }


def _crc(iid: str) -> int:
    return zlib.crc32(iid.encode("utf-8")) & 0x7FFFFFFF


def run_campaign(
    ids: Sequence[str] | str,
    gen: GenSpec,
    trials: int,
    params: BoundParams | None = None,
    tol: float | None = None,
    randomize_params: bool = False,
) -> list[CampaignReport]:
    """Run ``trials`` random instances of each id and certify slack signs.

    Returns one :class:`CampaignReport` per id, in input order.  A trial
    whose hypotheses fail is skipped (counted, never a violation).  With
    ``randomize_params`` the bound parameters are redrawn per trial from
    each id's admissible ranges instead of using ``params``.  ``tol`` is
    passed through and stored with persisted cases; it changes no result,
    because the radius kernel does not use it.
    """
    if isinstance(ids, str):
        ids = [ids]
    if trials < 1:
        raise DomainViolation("trials must be at least 1")
    reports = []
    for iid in ids:
        entry = registry_entry(iid)
        violations = 0
        skipped = 0
        slack_sum = 0.0
        counted = 0
        min_slack = None
        sharpest = None
        violation_cases: list = []
        for k in range(trials):
            seeds = np.random.SeedSequence(
                gen.seed, spawn_key=(_crc(iid), k)
            ).generate_state(8)
            ctx = gen_context(replace(gen, seed=int(seeds[0])))
            rng = _rng(gen.seed, _crc(iid), k, 999)
            trial_params = (
                _draw_params(rng, iid)
                if randomize_params
                else (params or BoundParams())
            )
            operands = _draw_operands(ctx, gen, entry, iid, seeds[1:], rng)
            rep = evaluate_bound(ctx, iid, operands, trial_params, tol)
            if not rep.hypotheses_ok:
                skipped += 1
                continue
            counted += 1
            slack_sum += rep.rel_slack
            if min_slack is None or rep.rel_slack < min_slack:
                min_slack = rep.rel_slack
                sharpest = _serialize_case(
                    iid, k, gen, ctx, operands, trial_params, rep, tol
                )
            if rep.violated:
                violations += 1
                if len(violation_cases) < _MAX_PERSISTED_VIOLATIONS:
                    violation_cases.append(
                        _serialize_case(
                            iid, k, gen, ctx, operands, trial_params, rep, tol
                        )
                    )
        reports.append(
            CampaignReport(
                inequality_id=iid,
                trials=trials,
                violations=violations,
                min_rel_slack=min_slack,
                mean_rel_slack=(slack_sum / counted) if counted else None,
                sharpest_case=sharpest,
                seed=gen.seed,
                skipped=skipped,
                violation_cases=tuple(violation_cases),
            )
        )
    return reports


def campaign_to_obj(rep: CampaignReport) -> dict:
    return {
        "inequality_id": rep.inequality_id,
        "trials": rep.trials,
        "violations": rep.violations,
        "min_rel_slack": rep.min_rel_slack,
        "mean_rel_slack": rep.mean_rel_slack,
        "sharpest_case": rep.sharpest_case,
        "seed": rep.seed,
        "skipped": rep.skipped,
        "violation_cases": list(rep.violation_cases),
    }


def _deserialize_operand(value):
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, list):
        return [float(v) for v in value]
    _, mat = value["name"], complex_from_pairs(value["data"])
    return mat


def replay(case: Mapping) -> BoundReport:
    """Re-evaluate a persisted case; reproduces its lhs/rhs deterministically."""
    mat = complex_from_pairs(case["weight"]["data"])
    ctx = make_context(mat)
    operands = {k: _deserialize_operand(v) for k, v in case["operands"].items()}
    params = params_from_obj(case["params"])
    return evaluate_bound(ctx, case["inequality_id"], operands, params, case.get("tol"))
