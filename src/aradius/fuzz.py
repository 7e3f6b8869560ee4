"""Randomized soundness campaigns for the inequality registry.

Instances are drawn from :class:`GenSpec`-described distributions whose
operator classes line up with the hypotheses the bounds carry (weights
of each structure; dense, weight-commuting, weight-selfadjoint, and
weight-positive operators).  Campaigns are deterministic: every trial
derives its own RNG streams from ``(seed, inequality_id, trial_index)``,
so reruns agree byte for byte.

A campaign never hides a negative result: each violating trial's full
inputs are serialized into the report for replay, and the sharpest
(minimal relative slack) satisfying trial is persisted the same way.

Every id is drawn in chunks of at most ``MAX_BATCH`` trials.  Each trial
draws its raw weight, parameters and operands from its own streams; the
chunk's dense weights are then normalized by one stacked SVD, and all its
weights are factored by one stacked eigensolve
(:func:`aradius.semihilbert.make_contexts`), which give each weight
bitwise what it gets alone.  Each chunk is evaluated in one batch per
weight rank through :func:`aradius.inequalities.evaluate_bounds`, whose
reports are bitwise each trial's own, and accounting runs in trial
order.  So the chunking changes no result.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .inequalities import (
    MAX_BATCH,
    BoundParams,
    BoundReport,
    DomainViolation,
    evaluate_bound,
    evaluate_bounds,
    registry_entry,
)
from .linalg import DIM_CAP, DomainError, spectral_norm
from .matio import (
    MatrixFormatError,
    matrix_from_obj,
    matrix_to_obj,
    params_from_obj,
    params_to_obj,
)
from .semihilbert import SemiInnerContext, make_context, make_contexts

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
    trials whose hypotheses held.  ``skipped`` counts the trials whose
    hypotheses failed and those whose evaluation raised a domain error
    (an overflowing side, say); neither kind contributes violations.
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


_SQRT2 = np.sqrt(2.0)


def _cgauss(rng: np.random.Generator, *shape) -> np.ndarray:
    # the real parts, then the imaginary parts, from one call
    re, im = rng.standard_normal((2,) + shape)
    return (re + 1j * im) / _SQRT2


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def gen_context(spec: GenSpec) -> SemiInnerContext:
    """Draw a weight of the requested structure and wrap it in a context."""
    return _contexts(spec, [spec.seed])[0]


def _raw_weight(spec: GenSpec, seed: int) -> np.ndarray:
    """The weight drawn from stream ``(seed, 101)``, before normalization."""
    n = spec.dim
    if spec.a_kind == "identity":
        return np.eye(n, dtype=np.complex128)  # draws nothing: no generator
    rng = _rng(seed, 101)
    if spec.a_kind == "diagonal":
        return np.diag(rng.uniform(0.5, 2.0, n)).astype(np.complex128)
    g = _cgauss(rng, n, n)
    if spec.a_kind == "dense_psd":
        return g @ g.conj().T / n + 1e-6 * spec.scale * np.eye(n)
    k = spec.effective_rank
    d = np.zeros(n)
    d[:k] = rng.uniform(0.5, 2.0, k)
    return g.conj().T @ np.diag(d) @ g


def _contexts(spec: GenSpec, seeds) -> list[SemiInnerContext]:
    """Contexts of the weights drawn from ``seeds``, in one SVD and one eigensolve.

    Dense weights are scaled to unit spectral norm.
    """
    stack = np.array([_raw_weight(spec, int(seed)) for seed in seeds])
    if spec.a_kind in ("dense_psd", "rank_deficient"):
        norms = np.linalg.svd(stack, compute_uv=False)[:, :1, None]
        stack /= np.maximum(norms, 1e-300)
    return make_contexts(stack)


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
        # ||v||_A as vec_seminorm computes it, on the validated weight
        norm = float(np.sqrt(max(np.vdot(v, ctx.a @ v).real, 0.0)))
        if norm > 1e-8:
            return v / norm
    raise DomainViolation("could not draw a unit vector for this weight")


_R_CHOICES = (1.0, 1.25, 1.5, 2.0)


def _draw_params(rng: np.random.Generator, iid: str) -> BoundParams:
    alpha = rng.uniform(0.6, 3.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    beta = rng.uniform(0.0, 4.0)
    # rng.choice's draw on four values, without its overhead
    r = _R_CHOICES[int(rng.integers(0, 4))]
    mu = rng.uniform(0.0, 1.0)
    lam = rng.uniform(0.05, 0.95)
    p = rng.uniform(1.3, 4.0)
    if iid == "thm_2_16":
        q = p / (p - 1.0)
        r = max(r, 2.0 / p, 2.0 / q)
    return BoundParams(alpha=alpha, beta=beta, r=r, mu=mu, lam=lam, p=p)


def _draw_operands(ctx, spec: GenSpec, entry, iid: str, op_seeds, rng):
    """The id's operands in registry order, each drawn by its kind of name."""
    t_kind = _T_KIND_OVERRIDES.get(iid, spec.t_kind)
    operands: dict = {}
    for i, name in enumerate(entry.operands):
        if name[0].isupper():
            ospec = replace(spec, seed=int(op_seeds[i]), t_kind=t_kind)
            operands[name] = gen_operator(ctx, ospec)
        elif name == "values":
            count = 2 if iid == "jensen" else int(rng.integers(1, 6))
            operands[name] = [float(v) for v in rng.uniform(0.05, 10.0, count)]
        elif name == "r":
            operands[name] = float(rng.uniform(0.0, 2.5))
        elif name == "e" or iid == "holder_mccarthy":
            operands[name] = _gen_vector(ctx, rng, unit=True)
        else:
            operands[name] = spec.scale * _gen_vector(ctx, rng)
    return operands


def _serialize_operand(name: str, value) -> object:
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return matrix_to_obj(name, value)


def _serialize_case(iid, trial, spec, ctx, operands, params, rep) -> dict:
    return {
        "inequality_id": iid,
        "trial": int(trial),
        "seed": int(spec.seed),
        "weight": matrix_to_obj("A", ctx.a),
        "operands": {k: _serialize_operand(k, v) for k, v in operands.items()},
        "params": params_to_obj(params),
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "rel_slack": rep.rel_slack,
        "hypotheses_ok": rep.hypotheses_ok,
    }


def _crc(iid: str) -> int:
    return zlib.crc32(iid.encode("utf-8")) & 0x7FFFFFFF


def _draw_chunk(gen: GenSpec, entry, iid: str, ks, params, randomize_params):
    """Weight, operands and parameters of each trial in ``ks``, from its own streams.

    The chunk's weights are factored together by :func:`_contexts`.
    """
    crc = _crc(iid)
    seeds = [
        np.random.SeedSequence(gen.seed, spawn_key=(crc, k)).generate_state(8) for k in ks
    ]
    ctxs = _contexts(gen, [s[0] for s in seeds])
    draws = []
    for k, ctx, trial_seeds in zip(ks, ctxs, seeds):
        rng = _rng(gen.seed, crc, k, 999)
        trial_params = (
            _draw_params(rng, iid) if randomize_params else (params or BoundParams())
        )
        operands = _draw_operands(ctx, gen, entry, iid, trial_seeds[1:], rng)
        draws.append((ctx, operands, trial_params))
    return draws


def _evaluate_chunk(iid: str, draws) -> list[BoundReport | None]:
    """Reports of the drawn trials, in order, from one batch per weight rank.

    A batch that raises :class:`DomainError` is evaluated trial by trial,
    and a trial that raises on its own gets ``None`` for its report.
    """
    by_rank: dict[int, list[int]] = {}
    for i, (ctx, _, _) in enumerate(draws):
        by_rank.setdefault(ctx.rank, []).append(i)
    reports: list = [None] * len(draws)
    for idx in by_rank.values():
        ctxs, ops, prms = zip(*(draws[i] for i in idx))
        try:
            batch = evaluate_bounds(ctxs, iid, ops, prms)
        except DomainError:
            batch = [_evaluate_alone(iid, *draws[i]) for i in idx]
        for i, rep in zip(idx, batch):
            reports[i] = rep
    return reports


def _evaluate_alone(iid: str, ctx, operands, params) -> BoundReport | None:
    try:
        return evaluate_bound(ctx, iid, operands, params)
    except DomainError:
        return None


def run_campaign(
    ids: Sequence[str] | str,
    gen: GenSpec,
    trials: int,
    params: BoundParams | None = None,
    randomize_params: bool = False,
) -> list[CampaignReport]:
    """Run ``trials`` random instances of each id and certify slack signs.

    Returns one :class:`CampaignReport` per id, in input order.  A trial
    whose hypotheses fail, or whose evaluation raises
    :class:`~aradius.linalg.DomainError` (its sides overflow at extreme
    scales, say), is skipped: counted, never a violation, and the rest of
    the campaign runs on.  With ``randomize_params`` the bound parameters
    are redrawn per trial from each id's admissible ranges instead of
    using ``params``.
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
        for start in range(0, trials, MAX_BATCH):
            ks = range(start, min(start + MAX_BATCH, trials))
            draws = _draw_chunk(gen, entry, iid, ks, params, randomize_params)
            for k, draw, rep in zip(ks, draws, _evaluate_chunk(iid, draws)):
                if rep is None or not rep.hypotheses_ok:
                    skipped += 1
                    continue
                counted += 1
                slack_sum += rep.rel_slack
                if min_slack is None or rep.rel_slack < min_slack:
                    min_slack = rep.rel_slack
                    sharpest = _serialize_case(iid, k, gen, *draw, rep)
                if rep.violated:
                    violations += 1
                    if len(violation_cases) < _MAX_PERSISTED_VIOLATIONS:
                        violation_cases.append(_serialize_case(iid, k, gen, *draw, rep))
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
    return matrix_from_obj(value)[1]


def replay(case: Mapping) -> BoundReport:
    """Re-evaluate a persisted case; reproduces its lhs/rhs deterministically.

    Matrices are decoded through :func:`aradius.matio.matrix_from_obj`, so
    a declared shape that disagrees with the data raises, and a case
    missing a field it needs raises :class:`~aradius.matio.MatrixFormatError`
    naming the field.  A ``"tol"`` field, which older case files carry, is
    ignored.
    """
    if not isinstance(case, Mapping):
        raise MatrixFormatError("a case must be a JSON mapping")
    for key in ("inequality_id", "weight", "operands", "params"):
        if key not in case:
            raise MatrixFormatError(f"case is missing {key!r}")
    if not isinstance(case["inequality_id"], str):
        raise MatrixFormatError(
            f"case field 'inequality_id' must be a string, got {case['inequality_id']!r}"
        )
    if not isinstance(case["operands"], Mapping):
        raise MatrixFormatError("case field 'operands' must be a JSON mapping")
    ctx = make_context(matrix_from_obj(case["weight"])[1])
    operands = {k: _deserialize_operand(v) for k, v in case["operands"].items()}
    params = params_from_obj(case["params"])
    return evaluate_bound(ctx, case["inequality_id"], operands, params)
