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

Write ``ss(e, key)`` for numpy's ``SeedSequence`` of entropy ``e`` and
spawn key ``key``, and ``rng(ss)`` for the PCG64 generator that
``default_rng`` seeds from it.  Trial ``k`` of seed ``s`` for the id whose
CRC is ``c`` has the eight words ``ss(s, (c, k)).generate_state(8)``.
Its own stream (parameters, vectors, values) is ``rng(ss(s, (c, k,
999)))``, its weight's ``rng(ss(words[0], (101,)))`` and its ``i``-th
operand's ``rng(ss(words[i + 1], (202,)))``.  These are numpy's hash and
seeding, computed here in bulk and equal bit for bit: a campaign hashes
the trials of all its ids at once when they number at most
``_SEED_BLOCK``, and else each id's trials in blocks of at most
``_SEED_BLOCK``.  The hash runs on numpy ``uint32`` arrays for the words
that differ between keys and on Python ints for those they share, and
each stream's PCG64 state is loaded into a reused generator when its
draws begin.  ``tests/test_fuzz.py`` pins the streams against numpy's
own.  A lone :func:`gen_context` or :func:`gen_operator` draws from
numpy's ``rng(ss(seed, (101,)))`` or ``rng(ss(seed, (202,)))`` itself.

Every id is drawn in chunks of at most ``MAX_BATCH`` trials.  Each trial
draws its raw weight, parameters and operands from its own streams; the
chunk's dense weights are then normalized by one stacked SVD, and all its
weights are factored by one stacked eigensolve
(:func:`aradius.semihilbert.make_contexts`), which give each weight
bitwise what it gets alone.  Each chunk is evaluated in one batch per
weight rank through :func:`aradius.inequalities.evaluate_bounds`, whose
reports are bitwise each trial's own, and accounting runs in trial
order.  So neither the blocks nor the chunks change a result.
"""

from __future__ import annotations

import numbers
import zlib
from dataclasses import dataclass
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
from .linalg import DIM_CAP, DomainError, as_integer, spectral_norm
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
        for name in ("seed", "dim") if self.rank is None else ("seed", "dim", "rank"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name), DomainViolation))
        if self.seed < 0:
            raise DomainViolation(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not 1 <= self.dim <= DIM_CAP:
            raise DomainViolation(f"dim must lie in [1, {DIM_CAP}]")
        if self.a_kind not in A_KINDS:
            raise DomainViolation(f"a_kind must be one of {A_KINDS}")
        if self.t_kind not in T_KINDS:
            raise DomainViolation(f"t_kind must be one of {T_KINDS}")
        if isinstance(self.scale, bool) or not isinstance(self.scale, numbers.Real):
            raise DomainViolation(f"scale must be a real number, got {self.scale!r}")
        try:
            object.__setattr__(self, "scale", float(self.scale))
        except OverflowError:
            raise DomainViolation("scale must be finite and nonnegative") from None
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


# --------------------------------------------------------------------------
# random streams: numpy's SeedSequence hash and PCG64 seeding, in bulk

#: ``SeedSequence``'s hash constants (``numpy/random/bit_generator.pyx``).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

#: Spawn-key labels of a trial's weight, operand and own streams.
_WEIGHT, _OPERATOR, _TRIAL = 101, 202, 999
#: Trials whose streams are hashed together (all ids' when they fit, else
#: one id's), a multiple of ``MAX_BATCH``.  A hash on arrays costs about as
#: much for 8 keys as for 1000 (250-350 µs); the block bounds memory.
_SEED_BLOCK = 1024


def _wrap(x):
    """``x`` mod 2**32; uint32 arrays wrap by themselves."""
    return x & _MASK32 if isinstance(x, int) else x


def _words(x) -> list:
    """The uint32 words of ``x``, least significant first.

    A uint32 array stands for one word per key.
    """
    if isinstance(x, np.ndarray):
        return [x]
    n = int(x)
    out = [n & _MASK32]
    while n := n >> 32:
        out.append(n & _MASK32)
    return out


def _mix(x, y):
    r = _wrap(_wrap(x * _MIX_MULT_L) - _wrap(y * _MIX_MULT_R))
    return r ^ (r >> _XSHIFT)


class _Pool:
    """``SeedSequence``'s entropy pool, for an array of keys.

    A word is a Python int that every key shares or a uint32 array with
    one entry per key, so the work the keys share is done once.  The hash
    constant never depends on the data, so it stays an int.
    """

    def __init__(self, entropy: list):
        self._const = _INIT_A
        pool = [self._hashmix(word) for word in entropy[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], self._hashmix(pool[src]))
        self.words = pool
        for word in entropy[_POOL_SIZE:]:
            self.absorb(word)

    def _hashmix(self, value):
        value = value ^ self._const
        self._const = (self._const * _MULT_A) & _MASK32
        value = _wrap(value * self._const)
        return value ^ (value >> _XSHIFT)

    def absorb(self, word) -> None:
        """Mix one more entropy word into the pool."""
        self.words = [_mix(w, self._hashmix(word)) for w in self.words]

    def generate(self, n_words: int) -> list:
        """``generate_state(n_words)``, as ``n_words`` words."""
        out, const = [], _INIT_B
        for i in range(n_words):
            value = self.words[i % _POOL_SIZE] ^ const
            const = (const * _MULT_B) & _MASK32
            value = _wrap(value * const)
            out.append(value ^ (value >> _XSHIFT))
        return out


def _entropy(seed, *key) -> list:
    """The entropy words of the ``SeedSequence`` of ``seed`` and spawn key ``key``.

    The seed's words are padded with zeros to the pool size, as numpy pads
    them before a spawn key, and hashes zeros for a pool without one.
    """
    run = _words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    return run + [w for k in key for w in _words(k)]


def _hashed(entropy: list, run=lambda pool: pool.generate(8)) -> np.ndarray:
    """``run(pool)``'s words for each key of ``entropy``, as a (words, keys) array.

    At least one word of ``entropy`` must be an array.
    """
    return np.array(run(_Pool(entropy)), dtype=np.uint32)


def _pcg64_states(words: np.ndarray) -> list[tuple[int, int]]:
    """Per key, the ``(state, inc)`` that ``PCG64`` seeds from these words.

    ``words`` holds a ``generate_state(8)`` per key.  Read as four
    little-endian uint64, it holds the 128-bit seed and stream, which
    ``pcg_setseq_128_srandom_r`` turns into a state in two LCG steps.
    """
    states = []
    for s_hi, s_lo, i_hi, i_lo in (
        np.ascontiguousarray(words.T, dtype="<u4").view("<u8").tolist()
    ):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        states.append((((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _seeded(rng: np.random.Generator, state: tuple[int, int]) -> np.random.Generator:
    """``rng`` loaded with a PCG64 state, as fresh as a new generator's."""
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


# --------------------------------------------------------------------------
# instances


def gen_context(spec: GenSpec) -> SemiInnerContext:
    """Draw a weight of the requested structure and wrap it in a context."""
    if spec.a_kind == "identity":  # draws nothing
        return _contexts(spec, [None])[0]
    ss = np.random.SeedSequence(spec.seed, spawn_key=(_WEIGHT,))
    return _contexts(spec, [np.random.default_rng(ss)])[0]


def _raw_weight(spec: GenSpec, rng: np.random.Generator | None) -> np.ndarray:
    """The weight drawn from its stream ``rng``, before normalization."""
    n = spec.dim
    if spec.a_kind == "identity":
        return np.eye(n, dtype=np.complex128)  # draws nothing: no stream
    if spec.a_kind == "diagonal":
        return np.diag(rng.uniform(0.5, 2.0, n)).astype(np.complex128)
    g = _cgauss(rng, n, n)
    if spec.a_kind == "dense_psd":
        return g @ g.conj().T / n + 1e-6 * spec.scale * np.eye(n)
    k = spec.effective_rank
    d = np.zeros(n)
    d[:k] = rng.uniform(0.5, 2.0, k)
    return g.conj().T @ np.diag(d) @ g


def _contexts(spec: GenSpec, rngs) -> list[SemiInnerContext]:
    """Contexts of the weights drawn from ``rngs``, in one SVD and one eigensolve.

    Each stream is drawn from before the next is taken, so ``rngs`` may load
    them in turn into one generator; an identity weight, which draws
    nothing, has ``None``.  Dense weights are scaled to unit spectral norm.
    """
    stack = np.array([_raw_weight(spec, rng) for rng in rngs])
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
    ss = np.random.SeedSequence(spec.seed, spawn_key=(_OPERATOR,))
    return _operator(ctx, spec, spec.t_kind, np.random.default_rng(ss))


def _operator(ctx: SemiInnerContext, spec: GenSpec, t_kind: str, rng) -> np.ndarray:
    """An operator of class ``t_kind`` drawn from its stream ``rng``."""
    n = ctx.dim
    proj = ctx.range_proj
    comp = np.eye(n) - proj
    if t_kind == "dense":
        g = spec.scale * _cgauss(rng, n, n)
        return g - proj @ g @ comp
    if t_kind == "a_commuting":
        deg = min(max(n - 1, 0), 3)
        coeffs = rng.standard_normal(deg + 1)
        base = ctx.a / max(spectral_norm(ctx.a), 1e-300)
        acc = np.zeros((n, n), dtype=np.complex128)
        for c in coeffs[::-1]:
            acc = acc @ base + c * np.eye(n)
        return spec.scale * acc
    g = _cgauss(rng, n, n)
    if t_kind == "a_selfadjoint":
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


def _uniform(u: float, low: float, high: float) -> float:
    # Generator.uniform's map of one rng.random() draw
    return low + (high - low) * u


def _draw_params(rng: np.random.Generator, iid: str) -> BoundParams:
    # the uniform and choice draws of one trial, in order, from three calls
    u_alpha, u_phase, u_beta = rng.random(3).tolist()
    r = _R_CHOICES[int(rng.integers(0, 4))]
    u_mu, u_lam, u_p = rng.random(3).tolist()
    alpha = _uniform(u_alpha, 0.6, 3.0) * np.exp(1j * _uniform(u_phase, 0.0, 2.0 * np.pi))
    p = _uniform(u_p, 1.3, 4.0)
    if iid == "thm_2_16":
        q = p / (p - 1.0)
        r = max(r, 2.0 / p, 2.0 / q)
    return BoundParams(
        alpha=alpha,
        beta=_uniform(u_beta, 0.0, 4.0),
        r=r,
        mu=_uniform(u_mu, 0.0, 1.0),
        lam=_uniform(u_lam, 0.05, 0.95),
        p=p,
    )


def _draw_operands(ctx, spec: GenSpec, entry, iid: str, rng, op_rngs):
    """The id's operands in registry order, each drawn by its kind of name.

    Operators draw from the streams of ``op_rngs`` in turn, everything else
    from the trial's own stream ``rng``.
    """
    t_kind = _T_KIND_OVERRIDES.get(iid, spec.t_kind)
    operands: dict = {}
    for name in entry.operands:
        if name[0].isupper():
            operands[name] = _operator(ctx, spec, t_kind, next(op_rngs))
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


def _words_and_own(pool: _Pool) -> list:
    """A trial's eight words, then its own stream's: the two share a pool."""
    words = pool.generate(8)
    pool.absorb(_TRIAL)
    return words + pool.generate(8)


class _Streams:
    """The streams of the trials ``ks`` of each of ``ids``, seeded in two hash passes.

    The first pass gives each trial's words and its own stream, which share
    their pool up to the trial index; an id's CRC is a word all keys share
    when there is one id, else a word per key.  The second gives the weight
    and operand streams those words seed, each key with its label as a
    word.  The states are loaded into three generators (weight, trial,
    operand), whose own seeds are never drawn from, as draws begin.
    """

    def __init__(self, gen: GenSpec, ids, ks):
        self.gen = gen
        self._weight_rng, self._trial_rng, self._operand_rng = (
            np.random.Generator(np.random.PCG64(0)) for _ in range(3)
        )
        ids, ks = list(dict.fromkeys(ids)), list(ks)
        # word 0 seeds the weight (the identity draws nothing), word i operand i - 1
        first = [] if gen.a_kind == "identity" else [0]
        cols = {}
        for iid in ids:
            names = registry_entry(iid).operands
            cols[iid] = first + [i for i, name in enumerate(names, 1) if name[0].isupper()]
        n = len(ks)  # the m-th id's trials are keys m n to m n + n
        trials = [(iid, k) for iid in ids for k in ks]
        crcs = np.array([_crc(iid) for iid in ids], dtype=np.uint32)
        crc = int(crcs[0]) if len(ids) == 1 else crcs.repeat(n)
        keys = np.tile(np.array(ks, dtype=np.uint32), len(ids))
        words = _hashed(_entropy(gen.seed, crc, keys), _words_and_own)
        self.trial = dict(zip(trials, _pcg64_states(words[8:])))
        seeds = [words[cols[i], m * n : m * n + n].T.ravel() for m, i in enumerate(ids)]
        labels = [_OPERATOR if c else _WEIGHT for iid in ids for c in cols[iid] * n]
        states = iter(())
        if labels:
            entropy = _entropy(np.concatenate(seeds), np.array(labels, dtype=np.uint32))
            states = iter(_pcg64_states(_hashed(entropy)))
        # per trial: its weight's state (None for the identity), then its operands'
        pad = [None] if gen.a_kind == "identity" else []
        self.matrices = {t: pad + [next(states) for _ in cols[t[0]]] for t in trials}

    def draw(self, iid: str, ks, params, randomize_params) -> list:
        """Weight, operands and parameters of each trial in ``ks`` of ``iid``.

        The weights are factored together by :func:`_contexts`.
        """
        gen, entry = self.gen, registry_entry(iid)
        weights = (self.matrices[iid, k][0] for k in ks)
        ctxs = _contexts(
            gen, (None if s is None else _seeded(self._weight_rng, s) for s in weights)
        )
        draws = []
        for k, ctx in zip(ks, ctxs):
            rng = _seeded(self._trial_rng, self.trial[iid, k])
            trial_params = (
                _draw_params(rng, iid) if randomize_params else (params or BoundParams())
            )
            op_rngs = (_seeded(self._operand_rng, s) for s in self.matrices[iid, k][1:])
            operands = _draw_operands(ctx, gen, entry, iid, rng, op_rngs)
            draws.append((ctx, operands, trial_params))
        return draws


def _draw_chunk(gen: GenSpec, iid: str, ks, params, randomize_params):
    """Weight, operands and parameters of each trial in ``ks``, from its own streams."""
    return _Streams(gen, [iid], ks).draw(iid, ks, params, randomize_params)


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
    ids = [ids] if isinstance(ids, str) else list(ids)
    trials = as_integer("trials", trials, DomainViolation)
    if trials < 1:
        raise DomainViolation("trials must be at least 1")
    # the trials of all ids are seeded in one block when they fit
    pooled = len(ids) * trials <= _SEED_BLOCK
    if pooled:
        streams = _Streams(gen, ids, range(trials))
    reports = []
    for iid in ids:
        violations = 0
        skipped = 0
        slack_sum = 0.0
        counted = 0
        min_slack = None
        sharpest = None
        violation_cases: list = []
        for start in range(0, trials, MAX_BATCH):
            ks = range(start, min(start + MAX_BATCH, trials))
            if not pooled and start % _SEED_BLOCK == 0:
                block = range(start, min(start + _SEED_BLOCK, trials))
                streams = _Streams(gen, [iid], block)
            draws = streams.draw(iid, ks, params, randomize_params)
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
