"""Randomized soundness campaigns for the inequality registry.

Instances are drawn from :class:`GenSpec`-described distributions whose
operator classes line up with the hypotheses the bounds carry (weights
of each structure; dense, weight-commuting, weight-selfadjoint, and
weight-positive operators).  Campaigns are deterministic: every random
number is a pure function of ``(seed, id, trial, stream, index)``, so
reruns agree byte for byte.

A campaign never hides a negative result: each violating trial's full
inputs are serialized into the report for replay, and the sharpest
(minimal relative slack) satisfying trial is persisted the same way.

Draws are Philox4x32-10 blocks (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11) computed on numpy arrays.  The key is the
seed's two low 32-bit words (see :func:`_key` for wider seeds).  The
counter is ``(index, trial, stream, id)``: the block's place in its
stream, the trial (below 2**32), the stream (0 the weight, 1 the
parameters, ``2 + i`` the ``i``-th registry operand) and the id's CRC-32
masked to 31 bits.  A lone :func:`gen_context` or :func:`gen_operator`
draws trial 0 of the id word 2**31: its weight or its operand-0 stream.
A block's words, read as two little-endian uint64 ``x``, give two
uniforms ``(x >> 11) * 2**-53`` (numpy's map); uniform ``j`` is half
``j % 2`` of block ``j // 2``.  Block ``j`` also gives the complex normal
``sqrt(-ln(1 - u0)) exp(2 pi i u1)`` (Box–Muller), and ``sqrt(2)`` times
its real part is a real normal.  The logarithm, cosine and sine are
fdlibm's kernels in numpy arithmetic: numpy's own ``log``, ``exp`` and
``power`` change bits with its SIMD dispatch level, and correctly rounded
arithmetic does not, so the draws do not either.

A weight draws ``n`` uniforms (``diagonal``), ``n x n`` normals
(``dense_psd``), or those and ``rank`` uniforms (``rank_deficient``).  The
parameters take seven uniforms (:func:`_draw_params`); an operator ``n x
n`` normals, ``deg + 1`` real ones (``a_commuting``) or two ``n x n``
blocks (``a_selfadjoint``, ``a_positive``); ``values`` a count of 1 to 5
(2 for ``jensen``) and the values; ``r`` one uniform; a vector ``n``
normals, scaled to unit seminorm in reduced coordinates; one of seminorm
at most 1e-8 is redrawn from the stream's next ``n`` blocks, up to 256 tries.

Passes.  A pass draws at most ``_CHUNK_ENTRIES`` stacked matrix entries
per operand: ``_CHUNK_ENTRIES // n**2`` trials at dimension ``n``, at
least one.  An id whose trials overflow a pass is drawn in chunks of that
many; ids whose trials fit share passes, one chunk each.  A chunk stays
stacked (one array per field, trial axis first): one ``(k, n, n)`` weight
array, normalized by one SVD and factored by one eigensolve into a
context per rank, operand arrays and validated parameter columns.  Each
rank group takes one call of the stacked core of
:func:`aradius.inequalities.evaluate_bounds`, bitwise each trial's own (a
stack that raises is halved until the trials that raise are alone).
:func:`_evaluate_chunk` writes the results into one array per side and
per intermediate, one entry per trial and NaN where a trial is not
evaluated, and :class:`_Tally` reads the sides in trial order; only a
persisted trial gets a context, parameters and a case (:func:`_trial`).
So the chunks change no result.
"""

from __future__ import annotations

import numbers
import zlib
from dataclasses import astuple, dataclass
from types import MappingProxyType, SimpleNamespace
from typing import Mapping, Sequence

import numpy as np

from .inequalities import (
    _CHUNK_ENTRIES,
    VIOLATION_RTOL,
    BoundParams,
    BoundReport,
    DomainViolation,
    _checked_columns,
    _evaluate_stacked,
    _trial_params,
    evaluate_bound,
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
from .semihilbert import SemiInnerContext, _inner, _reduced_rows, make_context
from .semihilbert import rank_contexts, stack_contexts

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


# --------------------------------------------------------------------------
# counter-based draws: Philox4x32-10 on numpy arrays

_MASK32 = 0xFFFFFFFF
#: Stream labels (counter word 2): a trial's weight, its parameters, and
#: its ``i``-th registry operand at ``_OPERAND + i``.
_WEIGHT, _PARAMS, _OPERAND = 0, 1, 2
#: Id word (counter word 3) of the lone draws; every id's CRC is below it.
_LONE = 2**31

#: fdlibm's ``__ieee754_log`` split of ln 2 and its ``Lg1``-``Lg7``.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10
_LG = (
    6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01,
    2.222219843214978396e-01, 1.818357216161805012e-01, 1.531383769920937332e-01,
    1.479819860511658591e-01,
)
#: fdlibm's ``__kernel_sin`` ``S1``-``S6`` and ``__kernel_cos`` ``C1``-``C6``.
_SIN = (
    -1.66666666666666324348e-01, 8.33333333332248946124e-03, -1.98412698298579493134e-04,
    2.75573137070700676789e-06, -2.50507602534068634195e-08, 1.58969099521155010221e-10,
)
_COS = (
    4.16666666666666019037e-02, -1.38888888888741095749e-03, 2.48015872894767294178e-05,
    -2.75573143513906633035e-07, 2.08757232129817482790e-09, -1.13596475577881948265e-11,
)
_QUARTERS = np.array([1.0, 1j, -1.0, -1j])


def _philox(ctr, key):
    """Philox4x32-10 of the counter words ``ctr`` under the key words ``key``.

    A word is a Python int or a uint64 array of 32-bit values; the words
    broadcast, and a product of two words is exact in 64 bits.
    """
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    for _ in range(10):
        p0, p1 = c0 * 0xD2511F53, c2 * 0xCD9E8D57
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _MASK32, (p0 >> 32) ^ c3 ^ k1, p0 & _MASK32
        k0, k1 = (k0 + 0x9E3779B9) & _MASK32, (k1 + 0xBB67AE85) & _MASK32
    return c0, c1, c2, c3


def _key(seed: int) -> tuple[int, int]:
    """The Philox key of ``seed``: its two low words, each further 64 bits folded in.

    The ``j``-th further ``(lo, hi)`` makes the key the first two words of
    the block of counter ``(lo, hi, j, 0)`` under it.
    """
    key, j = (seed & _MASK32, (seed >> 32) & _MASK32), 1
    while seed := seed >> 64:
        key = _philox((seed & _MASK32, (seed >> 32) & _MASK32, j, 0), key)[:2]
        j += 1
    return key


def _poly(z, coeffs):
    out = coeffs[-1]
    for c in coeffs[-2::-1]:
        out = c + z * out
    return out


def _log(x):
    """``ln x`` of positive normal floats, fdlibm's reduction and kernel (within 1 ulp)."""
    m, e = np.frexp(x)
    low = m < 0.5 * _SQRT2
    m = np.where(low, 2.0 * m, m)  # m in [sqrt(1/2), sqrt(2))
    e = e - low
    f = m - 1.0
    s = f / (2.0 + f)
    z = s * s
    hfsq = 0.5 * f * f
    return e * _LN2_HI - ((hfsq - (s * (hfsq + z * _poly(z, _LG)) + e * _LN2_LO)) - f)


def _turn(t):
    """``exp(2 pi i t)``: fdlibm's kernels to the nearest quarter turn, then a multiple of ``i``."""
    q = np.rint(4.0 * t)
    x = (4.0 * t - q) * (0.5 * np.pi)  # in [-pi/4, pi/4]
    z = x * x
    sin = x + x * z * _poly(z, _SIN)
    cos = 1.0 - (0.5 * z - z * z * _poly(z, _COS))
    # each product with 1, i, -1 or -i is exact
    return (cos + 1j * sin) * _QUARTERS[q.astype(np.intp) & 3]


def _gauss(u):
    """Standard complex normals ``sqrt(-ln(1 - u0)) exp(2 pi i u1)`` of uniform pairs.

    This is the Box–Muller transform, with ``E|z|^2 = 1``.
    """
    return np.sqrt(-_log(1.0 - u[..., 0])) * _turn(u[..., 1])


def _blocks(key, requests) -> list[dict]:
    """The blocks of each request ``(crc, ks, spans)``, all in one Philox pass.

    ``spans`` maps a stream label to a range of block indices, drawn for
    each trial of ``ks`` under the id word ``crc``.  Each label gets its
    uniform pairs ``(len(ks), blocks, 2)`` and the complex normals
    ``(len(ks), blocks)`` they give.
    """
    ctr = []
    for crc, ks, spans in requests:
        sizes = [len(s) for s in spans.values()]
        index = np.concatenate(
            [np.arange(s.start, s.stop, dtype=np.uint64) for s in spans.values()]
        )
        label = np.repeat(np.array(list(spans), dtype=np.uint64), sizes)
        trial = np.repeat(np.array(ks, dtype=np.uint64), len(index))
        k = len(ks)
        ctr.append((np.tile(index, k), trial, np.tile(label, k), np.full_like(trial, crc)))
    w0, w1, w2, w3 = _philox([np.concatenate(words) for words in zip(*ctr)], key)
    u = (np.stack(((w1 << 32) | w0, (w3 << 32) | w2), axis=-1) >> 11) * 2.0**-53
    z = _gauss(u)
    out, lo = [], 0
    for _, ks, spans in requests:
        sizes = [len(s) for s in spans.values()]
        shape = (len(ks), sum(sizes))
        hi = lo + shape[0] * shape[1]
        cuts = np.cumsum(sizes)[:-1]
        parts = zip(
            np.split(u[lo:hi].reshape(shape + (2,)), cuts, axis=1),
            np.split(z[lo:hi].reshape(shape), cuts, axis=1),
        )
        out.append(dict(zip(spans, parts)))
        lo = hi
    return out


def _uniform(u, low: float, high: float):
    return low + (high - low) * u


# --------------------------------------------------------------------------
# instances


def _weight_blocks(spec: GenSpec) -> int:
    n, rank = spec.dim, spec.effective_rank
    return {"identity": 0, "diagonal": (n + 1) // 2, "dense_psd": n * n}.get(
        spec.a_kind, n * n + (rank + 1) // 2
    )


def _operand_blocks(name: str, t_kind: str, n: int) -> int:
    if name[0].isupper():
        return {"dense": n * n, "a_commuting": min(max(n - 1, 0), 3) + 1}.get(t_kind, 2 * n * n)
    return {"values": 3, "r": 1}.get(name, n)


def gen_context(spec: GenSpec) -> SemiInnerContext:
    """Draw a weight of the requested structure and wrap it in a context.

    The draws are trial 0's weight stream under the id word ``_LONE``.
    """
    (draws,) = _blocks(_key(spec.seed), [(_LONE, [0], {_WEIGHT: range(_weight_blocks(spec))})])
    return _contexts(spec, *draws[_WEIGHT])[0][1].trial(0)


def _raw_weights(spec: GenSpec, u, z) -> np.ndarray:
    """The unnormalized weights ``(k, n, n)`` of a chunk's uniform pairs ``u`` and normals ``z``."""
    k, n, rank = len(z), spec.dim, spec.effective_rank
    if spec.a_kind == "identity":
        return np.tile(np.eye(n, dtype=np.complex128), (k, 1, 1))  # draws nothing
    if spec.a_kind == "diagonal":
        d = _uniform(u.reshape(k, -1)[:, :n], 0.5, 2.0)
        return (d[:, :, None] * np.eye(n)).astype(np.complex128)
    g = z[:, : n * n].reshape(k, n, n)
    if spec.a_kind == "dense_psd":
        return g @ g.conj().swapaxes(-1, -2) / n + 1e-6 * spec.scale * np.eye(n)
    d = np.zeros((k, n))
    d[:, :rank] = _uniform(u[:, n * n :].reshape(k, -1)[:, :rank], 0.5, 2.0)
    return g.conj().swapaxes(-1, -2) @ (d[:, :, None] * np.eye(n)) @ g


def _contexts(spec: GenSpec, u, z) -> list:
    """The rank groups (:func:`rank_contexts`) of a chunk's weights, dense ones of unit norm."""
    stack = _raw_weights(spec, u, z)
    if spec.a_kind in ("dense_psd", "rank_deficient"):
        norms = np.linalg.svd(stack, compute_uv=False)[:, :1, None]
        stack /= np.maximum(norms, 1e-300)
    return rank_contexts(stack)


def _per_trial(groups, name: str) -> np.ndarray:
    """Context field ``name`` of every trial of the rank groups ``groups``, in trial order."""
    order = np.argsort(np.concatenate([idx for idx, _ in groups]))
    return np.concatenate([getattr(ctx, name) for _, ctx in groups])[order]


def gen_operator(ctx: SemiInnerContext, spec: GenSpec) -> np.ndarray:
    """Draw one operator of the requested class for the given weight.

    ``dense`` draws a complex Gaussian and removes its kernel-escaping
    part (so the operator always maps ``ker A`` into itself; a no-op for
    invertible weights).  ``a_commuting`` is a real-coefficient
    polynomial in the weight of degree at most ``dim - 1``.  The
    weight-selfadjoint and weight-positive kinds pull a (PSD) Hermitian
    form on the range back through the pseudoinverse, plus an
    independent block acting inside the kernel.  The draws are trial 0's
    operand-0 stream under the id word ``_LONE``.
    """
    spans = {_OPERAND: range(_operand_blocks("T", spec.t_kind, spec.dim))}
    ((_, z),) = _blocks(_key(spec.seed), [(_LONE, [0], spans)])[0].values()
    return _operators([([0], stack_contexts([ctx]))], spec, spec.t_kind, z)[0]


@np.errstate(over="ignore", invalid="ignore")
def _operators(groups, spec: GenSpec, t_kind: str, z) -> np.ndarray:
    """Operators of class ``t_kind``, one per trial of ``groups``, from its normals ``z``.

    An extreme ``spec.scale`` can overflow an operator to non-finite
    entries; the evaluation skips its trial.
    """
    k, n = len(z), spec.dim
    if t_kind == "a_commuting":
        a = _per_trial(groups, "a")
        base = a / np.maximum(spectral_norm(a), 1e-300)[:, None, None]
        acc = np.zeros((k, n, n), dtype=np.complex128)
        for c in (_SQRT2 * z.real).T[::-1]:  # real normals, highest degree first
            acc = acc @ base + c[:, None, None] * np.eye(n)
        return spec.scale * acc
    proj = _per_trial(groups, "range_proj")
    comp = np.eye(n) - proj
    g = z[:, : n * n].reshape(k, n, n)
    if t_kind == "dense":
        g = spec.scale * g
        return g - proj @ g @ comp
    if t_kind == "a_selfadjoint":
        h = 0.5 * (g + g.conj().swapaxes(-1, -2))
    else:  # a_positive
        h = g @ g.conj().swapaxes(-1, -2) / n
    core = _per_trial(groups, "a_pinv") @ (proj @ h @ proj)
    kern = comp @ z[:, n * n :].reshape(k, n, n) @ comp
    return spec.scale * (core + 0.5 * kern)


def _unit_vectors(groups, z, key, crc: int, ks, label: int) -> np.ndarray:
    """The rows of ``z`` scaled to unit seminorm, each under its rank group's context.

    The seminorm is ``sqrt(x~* x~)``, a BLAS product: ``np.linalg.norm``
    squares in numpy's SIMD loops, whose bits change with the dispatch
    level.  A row whose seminorm is at most 1e-8 is first redrawn from the
    next blocks of its stream ``label``, up to 256 tries in all.
    """
    v, n = z.copy(), z.shape[1]
    norms = np.empty(len(z))
    for attempt in range(1, 257):
        for idx, ctx in groups:
            reduced = _reduced_rows(ctx, v[idx])
            norms[idx] = np.sqrt(_inner(reduced, reduced).real)
        low = np.flatnonzero(norms <= 1e-8)
        if not len(low):
            return v / norms[:, None]
        if attempt < 256:
            spans = {label: range(attempt * n, (attempt + 1) * n)}
            v[low] = _blocks(key, [(crc, [ks[i] for i in low], spans)])[0][label][1]
    raise DomainViolation("could not draw a unit vector for this weight")


_R_CHOICES = np.array([1.0, 1.25, 1.5, 2.0])


def _draw_params(u, iid: str) -> SimpleNamespace:
    """The parameter columns of the trials, from the first seven uniforms of each stream.

    They give ``|alpha|`` on [0.6, 3), its phase on [0, 2 pi), ``beta`` on
    [0, 4), ``r`` among 1, 1.25, 1.5 and 2, ``mu`` on [0, 1), ``lam`` on
    [0.05, 0.95) and ``p`` on [1.3, 4); ``thm_2_16`` raises ``r`` to at
    least ``2/p`` and ``2/q``.
    """
    u = u.reshape(len(u), -1).T.copy()
    p = _uniform(u[6], 1.3, 4.0)
    r = _R_CHOICES[(4.0 * u[3]).astype(np.intp)]
    if iid == "thm_2_16":
        r = np.maximum(r, np.maximum(2.0 / p, 2.0 / (p / (p - 1.0))))
    alpha, lam = _uniform(u[0], 0.6, 3.0) * _turn(u[1]), _uniform(u[5], 0.05, 0.95)
    return _checked_columns(alpha, _uniform(u[2], 0.0, 4.0), r, u[4], lam, p)


def _draw(gen: GenSpec, ids, ks, params, randomize_params) -> list[tuple]:
    """The chunk (:func:`_build`) of the trials ``ks`` of each id, from one pass."""
    key, plans = _key(gen.seed), []
    for iid in ids:
        t_kind = _T_KIND_OVERRIDES.get(iid, gen.t_kind)
        spans = {_WEIGHT: _weight_blocks(gen), _PARAMS: 4 if randomize_params else 0}
        for label, name in enumerate(registry_entry(iid).operands, _OPERAND):
            spans[label] = _operand_blocks(name, t_kind, gen.dim)
        plans.append((_crc(iid), ks, {label: range(b) for label, b in spans.items()}))
    return [
        _build(gen, iid, key, crc, ks, draws, params, randomize_params)
        for iid, (crc, _, _), draws in zip(ids, plans, _blocks(key, plans))
    ]


def _build(gen: GenSpec, iid: str, key, crc: int, ks, draws, params, randomize_params):
    """The chunk ``(rank groups, operands, parameter columns)`` of ``ks``, value lists padded."""
    entry, k = registry_entry(iid), len(ks)
    t_kind = _T_KIND_OVERRIDES.get(iid, gen.t_kind)
    groups = _contexts(gen, *draws[_WEIGHT])
    ops = {}
    for label, name in enumerate(entry.operands, _OPERAND):
        u, z = draws[label]
        if name[0].isupper():
            ops[name] = _operators(groups, gen, t_kind, z)
        elif name == "values":
            slots = u.reshape(k, -1)
            count = np.full(k, 2) if iid == "jensen" else 1 + (5.0 * slots[:, 0]).astype(int)
            vals = np.where(np.arange(5) < count[:, None], _uniform(slots[:, 1:6], 0.05, 10.0), 0.0)
            ops[name] = np.ascontiguousarray(vals[:, : count.max()])
        elif name == "r":
            ops[name] = _uniform(u[:, 0, 0], 0.0, 2.5)
        elif name == "e" or iid == "holder_mccarthy":
            ops[name] = _unit_vectors(groups, z, key, crc, ks, label)
        else:
            with np.errstate(over="ignore"):  # a non-finite vector's trial is skipped
                ops[name] = gen.scale * z
    if randomize_params:
        return groups, ops, _draw_params(draws[_PARAMS][0], iid)
    return groups, ops, _checked_columns(*(np.full(k, v) for v in astuple(params or BoundParams())))


#: A trial's ``r`` is a float and its ``values`` a list, the padding dropped.
_ROW = {"r": float, "values": lambda row: row[row > 0.0].tolist()}


def _trial(chunk, i: int):
    """Trial ``i`` of a drawn chunk as ``(context, operands, params)``, as cases persist it."""
    groups, operands, cols = chunk
    idx, ctx = next(group for group in groups if i in group[0])
    ops = {name: _ROW.get(name, lambda row: row)(value[i]) for name, value in operands.items()}
    return ctx.trial(idx.index(i)), ops, _trial_params(cols, i)


def _case(iid: str, trial: int, gen: GenSpec, chunk, i: int, sides) -> dict:
    """The case of trial ``i`` of ``chunk`` (number ``trial``), its sides read from ``sides``."""
    ctx, ops, params = _trial(chunk, i)
    lhs, rhs, rel_slack = sides[:3, i].tolist()
    ops = {k: v if isinstance(v, (float, list)) else matrix_to_obj(k, v) for k, v in ops.items()}
    return {
        "inequality_id": iid,
        "trial": int(trial),
        "seed": int(gen.seed),
        "weight": matrix_to_obj("A", ctx.a),
        "operands": ops,
        "params": params_to_obj(params),
        "lhs": lhs,
        "rhs": rhs,
        "rel_slack": rel_slack,
        "hypotheses_ok": True,
    }


def _crc(iid: str) -> int:
    return zlib.crc32(iid.encode("utf-8")) & 0x7FFFFFFF


def _evaluate_chunk(iid: str, chunk):
    """The core's per-trial arrays ``(sides, inter)`` of a drawn chunk, NaN where a trial is not evaluated.

    ``sides`` holds lhs, rhs, rel_slack and hypotheses held (1.0 or 0.0),
    ``inter`` each intermediate.  A trial with a non-finite operand or side
    raises alone, as in :func:`~aradius.inequalities.evaluate_bounds`, so
    it is not evaluated; a non-finite operand never reaches the core.
    """
    groups, operands, cols = chunk
    k = len(cols.p)
    finite = np.ones(k, dtype=bool)
    for value in operands.values():
        finite &= np.isfinite(value.reshape(k, -1)).all(axis=1)
    out = np.full((4, k), np.nan), {}
    for idx, ctx in groups:
        idx = np.asarray(idx)
        keep = finite[idx]
        if keep.all():
            _evaluate_rows(iid, chunk, idx, ctx, out)
        elif keep.any():
            _evaluate_rows(iid, chunk, idx[keep], ctx.trial(keep), out)
    return out


def _evaluate_rows(iid: str, chunk, idx, ctx, out) -> None:
    """Write the core's results for the trials ``idx`` of ``chunk``, under ``ctx``, into ``out``.

    A stack that raises is split in halves, recursively, down to single
    trials.  A module function: a recursive closure would keep its chunk in
    a reference cycle until the garbage collector runs.
    """
    _, operands, cols = chunk
    sides, inter = out
    ops = {name: value[idx] for name, value in operands.items()}
    picked = SimpleNamespace(**{key: value[idx] for key, value in vars(cols).items()})
    try:
        *one, more = _evaluate_stacked(iid, ctx, ops, picked)
    except DomainError:
        half = len(idx) // 2
        if half:
            _evaluate_rows(iid, chunk, idx[:half], ctx.trial(slice(None, half)), out)
            _evaluate_rows(iid, chunk, idx[half:], ctx.trial(slice(half, None)), out)
        return
    keep = np.isfinite(one[0]) & np.isfinite(one[1])
    sides[:, idx[keep]] = [value[keep] for value in one]
    for name, value in more.items():
        inter.setdefault(name, np.full(sides.shape[1], np.nan))[idx[keep]] = value[keep]


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
    if not 1 <= trials <= 2**32:  # a trial index is one counter word
        raise DomainViolation("trials must lie in [1, 2**32]")
    # a pass holds at most cap trials: one id's in chunks, or several ids' whole
    unique = list(dict.fromkeys(ids))
    cap = max(1, _CHUNK_ENTRIES // gen.dim**2)
    per, step = min(trials, cap), max(1, cap // trials)
    tallies = {iid: _Tally(iid, gen, trials) for iid in unique}
    for i in range(0, len(unique), step):
        group = unique[i : i + step]
        for start in range(0, trials, per):
            ks = range(start, min(start + per, trials))
            for iid, chunk in zip(group, _draw(gen, group, ks, params, randomize_params)):
                tallies[iid].add(ks, chunk)
    reports = {iid: tally.report() for iid, tally in tallies.items()}
    return [reports[iid] for iid in ids]


class _Tally:
    """The campaign report of one id, built from its chunks' per-trial sides in trial order."""

    def __init__(self, iid: str, gen: GenSpec, trials: int):
        self.iid, self.gen, self.trials = iid, gen, trials
        self.violations = self.skipped = self.counted = 0
        self.slack_sum, self.min_slack, self.sharpest, self.violation_cases = 0.0, None, None, []

    def add(self, ks, chunk) -> None:
        """Account the chunk ``chunk`` of the trials ``ks``, the next in trial order."""
        iid, gen = self.iid, self.gen
        sides = _evaluate_chunk(iid, chunk)[0]
        kept = np.flatnonzero(sides[3] == 1.0)
        rel = sides[2, kept]
        self.skipped += len(ks) - len(kept)
        self.counted += len(kept)
        for slack in rel.tolist():  # a running sum in trial order
            self.slack_sum += slack
        if len(kept) and (self.min_slack is None or rel.min() < self.min_slack):
            i = kept[np.argmin(rel)]
            self.min_slack = sides[2, i].item()
            self.sharpest = _case(iid, ks[i], gen, chunk, i, sides)
        bad = kept[rel < VIOLATION_RTOL]
        self.violations += len(bad)
        for i in bad[: _MAX_PERSISTED_VIOLATIONS - len(self.violation_cases)]:
            self.violation_cases.append(_case(iid, ks[i], gen, chunk, i, sides))

    def report(self) -> CampaignReport:
        return CampaignReport(
            inequality_id=self.iid,
            trials=self.trials,
            violations=self.violations,
            min_rel_slack=self.min_slack,
            mean_rel_slack=(self.slack_sum / self.counted) if self.counted else None,
            sharpest_case=self.sharpest,
            seed=self.gen.seed,
            skipped=self.skipped,
            violation_cases=tuple(self.violation_cases),
        )


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
