"""Campaign generator and accounting tests.

The generators must hit the advertised operator classes exactly, and a
campaign must be reproducible byte for byte: reports (including every
persisted case) serialize to identical JSON across reruns, and each
persisted case replays to its stored left/right sides.
"""

import cmath
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import aradius.fuzz as fuzz_mod
from aradius import (
    A_KINDS,
    T_KINDS,
    BoundParams,
    BoundReport,
    DomainError,
    DomainViolation,
    GenSpec,
    SemiInnerContext,
    campaign_to_obj,
    evaluate_bound,
    evaluate_bounds,
    gen_context,
    gen_operator,
    is_a_positive,
    is_a_selfadjoint,
    make_context,
    preserves_kernel,
    rank_contexts,
    registry_entry,
    registry_ids,
    replay,
    run_campaign,
    stack_contexts,
    vec_seminorm,
)
from aradius.inequalities import _checked_columns, _report, _trial_params
from aradius.linalg import _GRID_BYTES
from aradius.matio import MatrixFormatError


def _chunk_trials(dim):
    """Trials of dimension ``dim`` in one campaign pass under the current budget."""
    return max(1, fuzz_mod._CHUNK_ENTRIES // dim**2)


_REPLAY_CASES = [
    ("thm_2_10", "dense_psd"),
    ("kz", "rank_deficient"),
    ("college1", "diagonal"),
    ("buzano_beta", "rank_deficient"),
    ("holder_mccarthy", "dense_psd"),
    ("jensen", "identity"),
]

# --------------------------------------------------------------------------
# GenSpec validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dim": 0},
        {"dim": 513},
        {"a_kind": "sparse"},
        {"t_kind": "unitary"},
        {"scale": -1.0},
        {"scale": float("nan")},
        {"scale": True},
        {"scale": np.bool_(True)},
        {"scale": 1 + 0j},
        {"scale": np.complex128(1)},
        {"scale": "1"},
        {"scale": None},
        {"scale": 10**400},
        {"dim": 2.5},
        {"dim": True},
        {"dim": "3"},
        {"rank": 0},
        {"rank": 4, "dim": 3},
        {"rank": 1.5},
        {"rank": True, "a_kind": "rank_deficient"},
        {"rank": np.bool_(True)},
        # the stream hash would mask a negative seed to 32 bits
        {"seed": -1},
        {"seed": 2.5},
        {"seed": True},
        {"seed": np.bool_(False)},
        {"seed": "7"},
        {"seed": None},
    ],
)
def test_genspec_rejects_bad_fields(kwargs):
    with pytest.raises(DomainViolation, match=next(iter(kwargs))):
        GenSpec(**kwargs)


def test_genspec_takes_wide_and_numpy_seeds():
    for seed in (0, 2**32, 2**130, np.uint32(7), np.int64(9)):
        spec = GenSpec(seed=seed)
        assert spec.seed == seed and type(spec.seed) is int


def test_genspec_stores_numpy_dims_and_ranks_as_ints():
    spec = GenSpec(dim=np.int64(4), rank=np.uint8(2), a_kind="rank_deficient")
    assert (spec.dim, spec.rank) == (4, 2)
    assert type(spec.dim) is int and type(spec.rank) is int
    assert gen_context(spec).rank == 2


def test_genspec_stores_real_scales_as_floats():
    base = GenSpec(scale=2.0, t_kind="a_positive", seed=3)
    expected = gen_operator(gen_context(base), base)
    for scale in (2, np.int64(2), np.float32(2.0)):
        spec = GenSpec(scale=scale, t_kind="a_positive", seed=3)
        assert spec.scale == 2.0 and type(spec.scale) is float
        assert np.array_equal(gen_operator(gen_context(spec), spec), expected)


def test_genspec_effective_rank_default():
    assert GenSpec(dim=3).effective_rank == 2
    assert GenSpec(dim=1).effective_rank == 1
    assert GenSpec(dim=4, rank=1).effective_rank == 1


def test_kind_tuples_are_stable():
    assert A_KINDS == ("identity", "diagonal", "dense_psd", "rank_deficient")
    assert T_KINDS == ("dense", "a_commuting", "a_selfadjoint", "a_positive")


# --------------------------------------------------------------------------
# weight generation


def test_gen_context_identity():
    ctx = gen_context(GenSpec(dim=3, a_kind="identity", seed=7))
    assert np.array_equal(ctx.a, np.eye(3, dtype=np.complex128))
    assert ctx.rank == 3


def test_gen_context_diagonal():
    ctx = gen_context(GenSpec(dim=4, a_kind="diagonal", seed=11))
    assert np.allclose(ctx.a, np.diag(np.diag(ctx.a)))
    d = np.diag(ctx.a).real
    assert np.all(d >= 0.5) and np.all(d <= 2.0)
    assert ctx.rank == 4


def test_gen_context_dense_psd_full_rank_unit_norm():
    ctx = gen_context(GenSpec(dim=4, a_kind="dense_psd", seed=3))
    assert ctx.rank == 4
    assert np.allclose(ctx.a, ctx.a.conj().T)
    assert np.linalg.norm(ctx.a, 2) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_gen_context_rank_deficient_hits_requested_rank(rank):
    ctx = gen_context(GenSpec(dim=4, a_kind="rank_deficient", rank=rank, seed=5))
    assert ctx.rank == rank


def test_gen_context_rank_deficient_default_rank():
    ctx = gen_context(GenSpec(dim=3, a_kind="rank_deficient", seed=9))
    assert ctx.rank == 2


def test_gen_context_deterministic_and_seed_sensitive():
    spec = GenSpec(dim=3, a_kind="dense_psd", seed=42)
    a1 = gen_context(spec).a
    a2 = gen_context(GenSpec(dim=3, a_kind="dense_psd", seed=42)).a
    assert np.array_equal(a1, a2)
    other = gen_context(GenSpec(dim=3, a_kind="dense_psd", seed=43)).a
    assert not np.array_equal(a1, other)


def _same_factors(ctx, other):
    return all(
        getattr(ctx, f).shape == getattr(other, f).shape
        and getattr(ctx, f).tobytes() == getattr(other, f).tobytes()
        for f in ("a", "v_r", "lam")
    )


@pytest.mark.parametrize("dim", [1, 3, 6])
def test_identity_draws_are_bitwise_the_identity_context(dim):
    gen = GenSpec(dim=dim, a_kind="identity", seed=7)
    eye = make_context(np.eye(dim))
    draws = _draw_chunk(gen, "buz_half", range(5), None, True)
    for ctx in [gen_context(gen)] + [ctx for ctx, _, _ in draws]:
        assert _same_factors(ctx, eye)


@pytest.mark.parametrize("a_kind", A_KINDS)
def test_a_chunk_of_weights_is_bitwise_each_weight_drawn_alone(a_kind):
    # one Philox pass, one normalizing SVD and one eigensolve over the chunk
    gen = GenSpec(dim=4, a_kind=a_kind, seed=3)
    key, crc = fuzz_mod._key(gen.seed), fuzz_mod._crc("kz")
    spans = {fuzz_mod._WEIGHT: range(fuzz_mod._weight_blocks(gen))}
    ks = [11, 12, 13, 14, 15, 16, 17]

    def weights(ks, crc=crc):
        out = [None] * len(ks)
        for idx, ctx in fuzz_mod._contexts(gen, *_stream(key, crc, ks, spans)[0]):
            for j, i in enumerate(idx):
                out[i] = ctx.trial(j)
        return out

    for ctx, k in zip(weights(ks), ks):
        assert _same_factors(ctx, weights([k])[0])
    # a lone weight is trial 0 of the lone id word
    assert _same_factors(gen_context(gen), weights([0], fuzz_mod._LONE)[0])


def _raw_weight_alone(spec, u, z):
    """One trial's unnormalized weight from its stream, as a matrix formula of its own."""
    n = spec.dim
    if spec.a_kind == "identity":
        return np.eye(n, dtype=np.complex128)
    if spec.a_kind == "diagonal":
        return np.diag(0.5 + 1.5 * u.ravel()[:n]).astype(np.complex128)
    g = z[: n * n].reshape(n, n)
    if spec.a_kind == "dense_psd":
        return g @ g.conj().T / n + 1e-6 * spec.scale * np.eye(n)
    d = np.zeros(n)
    d[: spec.effective_rank] = 0.5 + 1.5 * u[n * n :].ravel()[: spec.effective_rank]
    return g.conj().T @ np.diag(d) @ g


@pytest.mark.parametrize("dim", range(1, 9))
@pytest.mark.parametrize("a_kind", A_KINDS)
def test_stacked_weights_are_bitwise_each_trial_built_alone(a_kind, dim):
    # one (k, n, n) builder for the chunk; a trial alone is a chunk of one
    # and gives the matrix formula of that trial
    gen = GenSpec(dim=dim, a_kind=a_kind, scale=3.0, seed=dim)
    spans = {fuzz_mod._WEIGHT: range(fuzz_mod._weight_blocks(gen))}
    ks = range(4, 4 + _chunk_trials(dim))
    u, z = _stream(fuzz_mod._key(gen.seed), fuzz_mod._crc("kz"), ks, spans)[0]
    stack = fuzz_mod._raw_weights(gen, u, z)
    assert stack.shape == (len(ks), dim, dim) and stack.dtype == np.complex128
    for i in range(len(ks)):
        alone = fuzz_mod._raw_weights(gen, u[i : i + 1], z[i : i + 1])[0]
        formula = _raw_weight_alone(gen, u[i], z[i])
        assert stack[i].tobytes() == alone.tobytes() == formula.tobytes()


def _draw_chunk(gen, iid, ks, params, randomize_params):
    """Each trial in ``ks`` of ``iid`` as ``(context, operands, params)``, viewed from its chunk."""
    chunk = fuzz_mod._draw(gen, [iid], ks, params, randomize_params)[0]
    return [fuzz_mod._trial(chunk, i) for i in range(len(ks))]


# --------------------------------------------------------------------------
# counter-based draws


def _stream(key, crc, ks, spans):
    """The blocks ``spans`` of trials ``ks`` under the id word ``crc``, in a pass of their own."""
    return fuzz_mod._blocks(key, [(crc, ks, spans)])[0]


#: Random123's known answers for Philox4x32-10: counter, key, output.
_PHILOX_KATS = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


@pytest.mark.parametrize("ctr,key,want", _PHILOX_KATS, ids=["zeros", "ones", "pi"])
def test_philox_matches_the_published_known_answers(ctr, key, want):
    assert fuzz_mod._philox(ctr, key) == want
    # as arrays, with one word shared as an int
    words = [np.full(3, c, dtype=np.uint64) for c in ctr[:3]] + [ctr[3]]
    got = fuzz_mod._philox(words, key)
    assert all(w.dtype == np.uint64 and w.tolist() == [v] * 3 for w, v in zip(got, want))


@pytest.mark.parametrize("a_kind", ["identity", "rank_deficient"])
def test_block_streams_follow_the_documented_derivation(a_kind):
    # counter (index, trial, label, crc), key from the seed, uniforms
    # (x >> 11) 2**-53 of the little-endian uint64 pairs, derived here
    # from Python ints block by block
    gen = GenSpec(dim=3, a_kind=a_kind, seed=2**64 + 3)
    key = fuzz_mod._key(gen.seed)
    assert key == fuzz_mod._philox((1, 0, 1, 0), (3, 0))[:2]
    crc = fuzz_mod._crc("thm_2_8")
    ks = range(5, 45, 7)
    spans = {0: range(2), 4: range(3, 6)}
    got = _stream(key, crc, ks, spans)
    for label, blocks in spans.items():
        u, z = got[label]
        assert u.shape == (len(ks), len(blocks), 2) and z.shape == (len(ks), len(blocks))
        for row, k in enumerate(ks):
            for col, i in enumerate(blocks):
                w0, w1, w2, w3 = fuzz_mod._philox((i, k, label, crc), key)
                want = [((w1 << 32 | w0) >> 11) * 2.0**-53, ((w3 << 32 | w2) >> 11) * 2.0**-53]
                assert u[row, col].tolist() == want
    # a campaign's operands come from those streams: thm_2_8's X is operand 0
    ((ctx, ops, _),) = _draw_chunk(gen, "thm_2_8", [5], None, False)
    ((_, z),) = _stream(key, crc, [5], {2: range(9)}).values()
    g, proj = z[0].reshape(3, 3), ctx.range_proj
    assert ops["X"].tobytes() == (g - proj @ g @ (np.eye(3) - proj)).tobytes()


_STREAM_SEEDS = (0, 9000, 2**32 - 1, 2**32, 2**64 + 3, 2**130)
#: id words: a CRC, the largest CRC, and the lone draws' word
_ID_WORDS = (0x1234ABCD, 2**31 - 1, fuzz_mod._LONE)
#: numpy's PCG64 multiplier
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _spread_keys(n_keys):
    """``n_keys`` trial indices from 0 to about 2**32, as one uint32 array."""
    step = (2**32 - 5) // max(n_keys - 1, 1)
    return (np.arange(n_keys, dtype=np.uint64) * step).astype(np.uint32)


def _numpys_uniforms(words):
    """numpy's ``Generator.random()`` of each 64-bit word, as a stream of its own.

    A PCG64 of increment 1 stepping to the state ``x`` outputs ``x``.
    """
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    inverse = pow(_PCG64_MULT, -1, 2**128)
    out = []
    for x in words:
        state = {"state": (x - 1) * inverse % 2**128, "inc": 1}
        bits.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        out.append(gen.random())
    return out


@pytest.mark.parametrize("n_keys", [1, 32, 1000])
@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_bulk_trial_words_and_streams_are_numpys(seed, n_keys):
    # one pass over trials spread to 2**32: each block's words are Philox
    # of its counter on Python ints, and its uniforms are what numpy's
    # Generator.random() makes of those words
    key = fuzz_mod._key(seed)
    keys = _spread_keys(n_keys)
    spans = {fuzz_mod._WEIGHT: range(2), fuzz_mod._OPERAND + 3: range(5, 6)}
    for word in _ID_WORDS if n_keys < 1000 else _ID_WORDS[1:]:
        got = _stream(key, word, keys, spans)
        for label, blocks in spans.items():
            u = got[label][0]
            assert u.shape == (n_keys, len(blocks), 2)
            words = []
            for k in keys.tolist():
                for i in blocks:
                    w0, w1, w2, w3 = fuzz_mod._philox((i, k, label, word), key)
                    words += [w1 << 32 | w0, w3 << 32 | w2]
            assert u.ravel().tolist() == _numpys_uniforms(words)


def test_a_pass_of_several_requests_is_bitwise_each_request_alone():
    key = fuzz_mod._key(77)
    requests = [
        (fuzz_mod._crc("kz"), range(3), {0: range(5), 2: range(2, 4)}),
        (fuzz_mod._crc("bohr"), [9], {1: range(4), 2: range(0)}),
        (fuzz_mod._crc("kz"), [0, 40], {0: range(1)}),
    ]
    alone = [_stream(key, *request) for request in requests]
    for one, want in zip(fuzz_mod._blocks(key, requests), alone):
        assert one.keys() == want.keys()
        for (u, z), (u2, z2) in zip(one.values(), want.values()):
            assert u.shape == u2.shape and u.tobytes() == u2.tobytes()
            assert z.shape == z2.shape and z.tobytes() == z2.tobytes()


#: Ids that between them draw every kind of operand and the thm_2_16 parameters.
_EVERY_OPERAND_KIND = [
    "kz", "holder_mccarthy", "mixed_schwarz", "buz_half", "bohr", "jensen", "thm_2_16"
]


def _same_draws(one, other):
    (ctx, ops, params), (ctx2, ops2, params2) = one, other
    assert _same_factors(ctx, ctx2)
    assert repr(params) == repr(params2)
    assert ops.keys() == ops2.keys()
    for name, value in ops.items():
        assert type(value) is type(ops2[name])
        if isinstance(value, np.ndarray):
            assert value.shape == ops2[name].shape and value.tobytes() == ops2[name].tobytes()
        else:
            assert value == ops2[name]


@pytest.mark.parametrize("t_kind", T_KINDS)
@pytest.mark.parametrize("a_kind", A_KINDS)
def test_a_chunk_draws_bitwise_what_each_trial_draws_alone(a_kind, t_kind):
    gen = GenSpec(dim=3, a_kind=a_kind, t_kind=t_kind, seed=9000)
    ks = range(7, 7 + 12)
    for iid in _EVERY_OPERAND_KIND:
        chunk = _draw_chunk(gen, iid, ks, None, True)
        for k, draw in zip(ks, chunk):
            _same_draws(draw, _draw_chunk(gen, iid, [k], None, True)[0])


def test_a_unit_vector_redraws_from_the_next_blocks_of_its_stream():
    gen = GenSpec(dim=3, a_kind="rank_deficient", seed=4)
    key, crc, ks = fuzz_mod._key(gen.seed), fuzz_mod._crc("buz_half"), range(3, 8)
    ((ctx, _, _),) = _draw_chunk(gen, "buz_half", [3], None, False)
    z = _stream(key, crc, ks, {4: range(3)})[4][1].copy()
    # the first tries of trials 3 and 4 have seminorm 0: a zero, and a
    # vector in the kernel of the context
    z[0] = 0.0
    z[1] = z[1] - ctx.range_proj @ z[1]
    # two rank groups of the same weight, trials interleaved
    groups = [([0, 2, 4], stack_contexts([ctx] * 3)), ([1, 3], stack_contexts([ctx] * 2))]
    got = fuzz_mod._unit_vectors(groups, z, key, crc, ks, 4)
    # the second try takes blocks 3 to 5 of the same stream
    again = _stream(key, crc, [3, 4], {4: range(3, 6)})[4][1]
    for v, want in zip(got, np.concatenate([again, z[2:]])):
        reduced = ctx.sqrt_lam * (ctx.v_r.conj().T @ want)
        assert v.tobytes() == (want / np.sqrt(np.vdot(reduced, reduced).real)).tobytes()
        assert vec_seminorm(ctx, v) == pytest.approx(1.0, abs=1e-12)


def test_a_unit_vector_gives_up_after_256_tries(monkeypatch):
    calls = []
    real = fuzz_mod._blocks
    monkeypatch.setattr(fuzz_mod, "_blocks", lambda *a: calls.append(a) or real(*a))
    groups = rank_contexts(np.zeros((1, 2, 2)))
    with pytest.raises(DomainViolation, match="unit vector"):
        fuzz_mod._unit_vectors(groups, np.ones((1, 2), complex), (1, 2), 3, [0], 4)
    assert len(calls) == 255


def test_seeds_give_distinct_streams():
    seeds = (0, 3, 2**32, 2**64 + 3, 2**130, 2**130 + 2**64)
    keys = [fuzz_mod._key(seed) for seed in seeds]
    assert len(set(keys)) == len(seeds)
    assert keys[:3] == [(0, 0), (3, 0), (0, 1)]  # a seed below 2**64 is the key
    streams = {
        _stream(key, 7, range(4), {0: range(8)})[0][0].tobytes() for key in keys
    }
    assert len(streams) == len(seeds)


def test_normals_have_standard_moments():
    # 10**5 complex normals: E z = 0, E|z|^2 = 1, E z^2 = 0, and the real
    # parts of variance 1/2 have fourth moment 3/4, all to about 5 sigma
    ((u, z),) = _stream((12345, 678), 9, range(1000), {3: range(100)}).values()
    n = z.size
    z = z.ravel()
    assert abs(z.mean()) < 5 / np.sqrt(n)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 5 / np.sqrt(n)
    assert abs(np.mean(z * z)) < 5 * np.sqrt(2 / n)
    assert abs(np.mean(z.real**4) - 0.75) < 5 * np.sqrt(6 / n)
    assert abs(u.mean() - 0.5) < 5 * np.sqrt(1 / 12 / u.size)
    assert 0.0 <= u.min() and u.max() < 1.0


def test_log_and_turn_kernels_are_accurate():
    u = np.random.default_rng(5).integers(0, 2**53, 20000) * 2.0**-53
    x = np.concatenate([1.0 - u, [1.0, 2.0**-53, 0.5, np.sqrt(0.5)]])
    want = np.array([math.log(v) for v in x])
    assert np.all(np.abs(fuzz_mod._log(x) - want) <= np.spacing(np.abs(want)))
    t = np.concatenate([u, [0.0, 0.125, 0.25, 0.5, 0.75]])
    want = np.array([cmath.exp(2j * math.pi * v) for v in t])
    assert np.abs(fuzz_mod._turn(t) - want).max() < 2e-15


@pytest.mark.parametrize("seed", [12, 2**64 + 3, 2**130], ids=["12", "2^64+3", "2^130"])
def test_gen_operator_draws_the_lone_operand_stream(seed):
    spec = GenSpec(dim=4, a_kind="rank_deficient", t_kind="a_selfadjoint", seed=seed)
    ctx = gen_context(spec)
    ((_, z),) = _stream(fuzz_mod._key(seed), fuzz_mod._LONE, [0], {2: range(32)}).values()
    want = fuzz_mod._operators([([0], stack_contexts([ctx]))], spec, spec.t_kind, z)[0]
    assert gen_operator(ctx, spec).tobytes() == want.tobytes()


def _params_one_by_one(u, iid):
    """One trial's parameters from its seven uniforms, in scalar Python."""
    alpha = (0.6 + (3.0 - 0.6) * u[0]) * complex(fuzz_mod._turn(np.array([u[1]]))[0])
    r = (1.0, 1.25, 1.5, 2.0)[int(4.0 * u[3])]
    p = 1.3 + (4.0 - 1.3) * u[6]
    if iid == "thm_2_16":
        r = max(r, 2.0 / p, 2.0 / (p / (p - 1.0)))
    lam = 0.05 + (0.95 - 0.05) * u[5]
    return BoundParams(alpha=alpha, beta=4.0 * u[2], r=r, mu=u[4], lam=lam, p=p)


def test_draw_params_is_bitwise_the_one_by_one_draws():
    for iid in ("kz", "thm_2_16"):
        ((u, _),) = _stream((1, 2), 3, range(2000), {1: range(4)}).values()
        got = fuzz_mod._draw_params(u, iid)
        assert sorted(vars(got)) == sorted(["alpha", "beta", "r", "mu", "lam", "p", "q"])
        for i, row in enumerate(u.reshape(2000, 8).tolist()):
            want = _params_one_by_one(row, iid)
            assert repr(_trial_params(got, i)) == repr(want)
            assert got.q[i] == want.q


@pytest.mark.parametrize(
    "bad",
    [
        {"alpha": 0j},
        {"alpha": complex(math.inf, 0.0)},
        {"beta": -0.5, "r": 0.5},
        {"r": 0.99},
        {"mu": 1.5},
        {"lam": -0.1},
        {"p": 1.0},
        {"p": 1e17},  # q rounds to 1
        {"mu": math.nan},
    ],
)
def test_checked_parameter_columns_raise_what_bound_params_raises(bad):
    # trials 2 and 4 lie outside the domain; trial 2 decides the error
    base = {"alpha": 2.0 + 0j, "beta": 1.0, "r": 1.0, "mu": 0.5, "lam": 0.5, "p": 2.0}
    rows = [base, base, {**base, **bad}, base, {**base, "beta": -1.0}]
    cols = {f: np.array([row[f] for row in rows]) for f in base}
    with pytest.raises(DomainViolation) as want:
        BoundParams(**rows[2])
    with pytest.raises(DomainViolation, match=re.escape(str(want.value))):
        _checked_columns(**cols)
    good = _checked_columns(**{f: c[:2] for f, c in cols.items()})
    assert good.q.tolist() == [2.0, 2.0]


def test_draws_do_not_depend_on_numpys_simd_dispatch():
    # numpy's log, exp and power change bits with its SIMD level; the
    # draws must not, for any weight or operator kind
    script = f"""
import hashlib, numpy as np
from aradius import A_KINDS, T_KINDS, GenSpec, gen_context, gen_operator
from aradius.fuzz import _draw, _trial
h = hashlib.sha256()
for a_kind in A_KINDS:
    for t_kind in T_KINDS:
        gen = GenSpec(dim=3, a_kind=a_kind, t_kind=t_kind, seed=2**64 + 3)
        ctx = gen_context(gen)
        h.update(ctx.a.tobytes() + gen_operator(ctx, gen).tobytes())
        for iid in {_EVERY_OPERAND_KIND!r}:
            chunk = _draw(gen, [iid], range(40), None, True)[0]
            for ctx, ops, params in (_trial(chunk, i) for i in range(40)):
                h.update(ctx.a.tobytes() + repr(params).encode())
                for v in ops.values():
                    h.update(np.asarray(v).tobytes())
print(h.hexdigest())
"""
    src = str(Path(fuzz_mod.__file__).parents[1])

    def digest(disabled):
        env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": disabled}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        return out.stdout

    assert len(digest("").strip()) == 64
    assert digest("X86_V3 X86_V4") == digest("")


# four ids fill a pass at the last count, so the five distinct ids of the
# first call take two passes
@pytest.mark.parametrize("trials", [1, 2, 33, _chunk_trials(3) // 4])
@pytest.mark.parametrize(
    "a_kind,ids",
    [
        ("rank_deficient", ["kz", "buz_half", "jensen", "kz", "mixed_schwarz", "moby_a2"]),
        # no id of the call draws a matrix stream
        ("identity", ["bohr", "jensen", "bohr"]),
    ],
)
def test_pooled_campaigns_are_bytewise_one_campaign_per_id(a_kind, ids, trials):
    gen = GenSpec(dim=3, a_kind=a_kind, seed=9000)
    pooled = run_campaign(ids, gen, trials, randomize_params=True)
    alone = [run_campaign(iid, gen, trials, randomize_params=True)[0] for iid in ids]
    assert json.dumps([campaign_to_obj(r) for r in pooled]) == json.dumps(
        [campaign_to_obj(r) for r in alone]
    )


# --------------------------------------------------------------------------
# operator generation


@pytest.mark.parametrize("a_kind", ["dense_psd", "rank_deficient"])
def test_gen_operator_dense_preserves_kernel(a_kind):
    spec = GenSpec(dim=4, a_kind=a_kind, t_kind="dense", seed=17)
    ctx = gen_context(spec)
    t = gen_operator(ctx, spec)
    assert preserves_kernel(ctx, t)


def test_gen_operator_a_commuting_commutes():
    spec = GenSpec(dim=4, a_kind="rank_deficient", t_kind="a_commuting", seed=23)
    ctx = gen_context(spec)
    t = gen_operator(ctx, spec)
    assert np.linalg.norm(t @ ctx.a - ctx.a @ t) <= 1e-10 * (
        1 + np.linalg.norm(t) * np.linalg.norm(ctx.a)
    )


def test_gen_operator_a_selfadjoint_class():
    spec = GenSpec(dim=3, a_kind="rank_deficient", t_kind="a_selfadjoint", seed=29)
    ctx = gen_context(spec)
    t = gen_operator(ctx, spec)
    assert is_a_selfadjoint(ctx, t)
    assert preserves_kernel(ctx, t)


def test_gen_operator_a_positive_class():
    spec = GenSpec(dim=3, a_kind="dense_psd", t_kind="a_positive", seed=31)
    ctx = gen_context(spec)
    t = gen_operator(ctx, spec)
    assert is_a_positive(ctx, t)


def test_gen_operator_zero_scale():
    spec = GenSpec(dim=3, a_kind="dense_psd", t_kind="dense", scale=0.0, seed=1)
    ctx = gen_context(spec)
    assert np.all(gen_operator(ctx, spec) == 0)


def test_gen_operator_deterministic():
    spec = GenSpec(dim=3, a_kind="dense_psd", t_kind="dense", seed=12)
    ctx = gen_context(spec)
    assert np.array_equal(gen_operator(ctx, spec), gen_operator(ctx, spec))


# --------------------------------------------------------------------------
# campaign accounting


def test_run_campaign_rejects_zero_trials():
    with pytest.raises(DomainViolation):
        run_campaign("thm_2_10", GenSpec(dim=2), trials=0)


@pytest.mark.parametrize("trials", [True, 2.0, "3", None])
def test_run_campaign_rejects_non_integer_trials(trials):
    with pytest.raises(DomainViolation, match="trials"):
        run_campaign("thm_2_10", GenSpec(dim=2), trials=trials)


def test_run_campaign_stores_numpy_trials_as_an_int():
    (rep,) = run_campaign("jensen", GenSpec(dim=2), trials=np.int64(2))
    assert type(rep.trials) is int
    assert json.loads(json.dumps(campaign_to_obj(rep)))["trials"] == 2


def test_run_campaign_string_id_equals_singleton_list():
    gen = GenSpec(dim=2, a_kind="diagonal", seed=4)
    a = run_campaign("thm_2_10", gen, trials=5)
    b = run_campaign(["thm_2_10"], gen, trials=5)
    assert len(a) == len(b) == 1
    assert json.dumps(campaign_to_obj(a[0]), sort_keys=True) == json.dumps(
        campaign_to_obj(b[0]), sort_keys=True
    )


def test_run_campaign_takes_an_iterator_of_ids():
    gen = GenSpec(dim=2, seed=4)
    ids = ["jensen", "thm_2_10"]
    want = [campaign_to_obj(r) for r in run_campaign(ids, gen, trials=3)]
    got = [campaign_to_obj(r) for r in run_campaign(iter(ids), gen, trials=3)]
    assert json.dumps(got) == json.dumps(want)


def test_run_campaign_sound_ids_accounting():
    gen = GenSpec(dim=3, a_kind="dense_psd", seed=8)
    reports = run_campaign(["thm_2_10", "buzano_beta", "jensen"], gen, trials=25)
    assert [r.inequality_id for r in reports] == ["thm_2_10", "buzano_beta", "jensen"]
    for rep in reports:
        assert rep.trials == 25
        assert rep.violations == 0
        assert rep.skipped == 0
        assert rep.min_rel_slack is not None and rep.min_rel_slack >= -1e-8
        assert rep.mean_rel_slack is not None
        assert rep.mean_rel_slack >= rep.min_rel_slack - 1e-15
        assert rep.sharpest_case is not None
        assert rep.sharpest_case["inequality_id"] == rep.inequality_id
        assert rep.violation_cases == ()


def test_run_campaign_deterministic_bytes():
    gen = GenSpec(dim=3, a_kind="rank_deficient", seed=77)
    ids = ["kz", "college1", "mixed_schwarz", "drag"]
    one = [campaign_to_obj(r) for r in run_campaign(ids, gen, trials=6)]
    two = [campaign_to_obj(r) for r in run_campaign(ids, gen, trials=6)]
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_run_campaign_randomized_params_respects_domains():
    gen = GenSpec(dim=3, a_kind="dense_psd", seed=15)
    reports = run_campaign(
        ["thm_2_16", "thm_2_7", "mohd1"], gen, trials=20, randomize_params=True
    )
    for rep in reports:
        assert rep.violations == 0


def test_run_campaign_pointwise_lemmas_use_admissible_classes():
    # these two ids force their hypothesis class regardless of t_kind
    gen = GenSpec(dim=3, a_kind="rank_deficient", t_kind="dense", seed=21)
    reports = run_campaign(["mixed_schwarz", "holder_mccarthy"], gen, trials=15)
    for rep in reports:
        assert rep.violations == 0
        assert rep.skipped == 0


def test_run_campaign_counts_violations_and_caps_persistence(monkeypatch):
    # every id is evaluated by the stacked core; sabotage every trial
    real = fuzz_mod._evaluate_stacked

    def sabotage(iid, ctx, ops, params):
        lhs, rhs, rel_slack, hyp, inter = real(iid, ctx, ops, params)
        return rhs + 1.0, rhs, np.full_like(rel_slack, -1.0), np.ones_like(hyp), inter

    monkeypatch.setattr(fuzz_mod, "_evaluate_stacked", sabotage)
    rep = run_campaign("thm_2_10", GenSpec(dim=2, seed=2), trials=30)[0]
    assert rep.violations == 30
    assert len(rep.violation_cases) == 25  # persistence is capped
    assert rep.min_rel_slack == -1.0
    obj = campaign_to_obj(rep)
    json.dumps(obj)  # still serializable with failures attached


def test_campaign_builds_per_trial_objects_only_for_persisted_cases(monkeypatch):
    # the trials stay stacked from draw to accounting: no report, no
    # parameter object and no context per trial, only per persisted case
    built = {cls: 0 for cls in (BoundReport, BoundParams, SemiInnerContext)}
    for cls in built:
        init = cls.__init__

        def counted(self, *args, init=init, cls=cls, **kwargs):
            built[cls] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    real_case = fuzz_mod._case
    cases = []
    monkeypatch.setattr(fuzz_mod, "_case", lambda *a: cases.append(a) or real_case(*a))
    gen = GenSpec(dim=4, a_kind="rank_deficient", seed=6003)
    rep = run_campaign("buz_half", gen, 84, randomize_params=True)[0]
    assert rep.skipped == 0 and rep.violations == 0 and rep.sharpest_case is not None
    chunks = -(-84 // _chunk_trials(gen.dim))
    assert 1 <= len(cases) <= chunks
    assert built[BoundReport] == 0
    assert built[BoundParams] == len(cases)
    # one stacked context per chunk (every weight has rank 3), one per case
    assert built[SemiInnerContext] == chunks + len(cases)


def test_run_campaign_counts_skips(monkeypatch):
    real = fuzz_mod._evaluate_stacked

    def advisory_on_even(iid, ctx, ops, params):
        lhs, rhs, rel_slack, hyp, inter = real(iid, ctx, ops, params)
        trial = advisory_on_even.calls + np.arange(len(hyp))
        advisory_on_even.calls += len(hyp)
        return lhs, rhs, rel_slack, hyp & (trial % 2 == 1), inter

    advisory_on_even.calls = 0
    monkeypatch.setattr(fuzz_mod, "_evaluate_stacked", advisory_on_even)
    rep = run_campaign("buzano_beta", GenSpec(dim=2, seed=6), trials=10)[0]
    assert rep.skipped == 5
    assert rep.violations == 0
    assert rep.trials == 10


# --------------------------------------------------------------------------
# serialization and replay


def test_campaign_to_obj_field_set():
    rep = run_campaign("drag", GenSpec(dim=2, seed=19), trials=3)[0]
    obj = campaign_to_obj(rep)
    assert set(obj) == {
        "inequality_id",
        "trials",
        "violations",
        "min_rel_slack",
        "mean_rel_slack",
        "sharpest_case",
        "seed",
        "skipped",
        "violation_cases",
    }
    json.dumps(obj)


@pytest.mark.parametrize(
    "iid,a_kind",
    _REPLAY_CASES
    + [
        (iid, kind)
        for iid in registry_ids()
        for kind in ("rank_deficient", "dense_psd")
        if (iid, kind) not in _REPLAY_CASES
    ],
)
def test_replay_reproduces_persisted_case_exactly(iid, a_kind):
    # 8 trials: every id is evaluated as one batch, replayed alone
    gen = GenSpec(dim=3, a_kind=a_kind, seed=33)
    rep = run_campaign(iid, gen, trials=8, randomize_params=True)[0]
    case = json.loads(json.dumps(rep.sharpest_case))  # full wire roundtrip
    back = replay(case)
    assert back.lhs == case["lhs"]
    assert back.rhs == case["rhs"]
    assert back.hypotheses_ok == case["hypotheses_ok"]


def test_replay_of_violation_case(monkeypatch):
    # a sabotaged case still replays through the honest evaluator
    real = fuzz_mod._evaluate_stacked

    def sabotage(iid, ctx, ops, params):
        lhs, rhs, rel_slack, hyp, inter = real(iid, ctx, ops, params)
        return lhs, rhs, np.full_like(rel_slack, -1.0), hyp, inter

    monkeypatch.setattr(fuzz_mod, "_evaluate_stacked", sabotage)
    rep = run_campaign("thm_2_10", GenSpec(dim=2, seed=13), trials=2)[0]
    assert rep.violations == 2
    case = rep.violation_cases[0]
    monkeypatch.setattr(fuzz_mod, "_evaluate_stacked", real)
    back = replay(case)
    assert back.lhs == case["lhs"]
    assert back.rhs == case["rhs"]
    assert not back.violated


def test_replay_ignores_the_tol_field_of_older_cases():
    gen = GenSpec(dim=3, seed=45)
    rep = run_campaign("moby_a1", gen, trials=4, randomize_params=True)[0]
    case = json.loads(json.dumps({**rep.sharpest_case, "tol": 1e-8}))
    back = replay(case)
    assert back.lhs == case["lhs"]
    assert back.rhs == case["rhs"]
    assert back.rel_slack == case["rel_slack"]


@pytest.mark.parametrize("where", ["weight", "operand"])
def test_replay_checks_declared_matrix_shape(where):
    rep = run_campaign("moby_a1", GenSpec(dim=3, seed=44), trials=1)[0]
    case = json.loads(json.dumps(rep.sharpest_case))
    obj = case["weight"] if where == "weight" else case["operands"]["X"]
    obj["rows"] = 2
    with pytest.raises(MatrixFormatError):
        replay(case)


def test_replay_names_an_inequality_id_that_is_no_string():
    rep = run_campaign("jensen", GenSpec(dim=2, seed=44), trials=1)[0]
    case = json.loads(json.dumps(rep.sharpest_case))
    assert replay(case).lhs == case["lhs"]
    with pytest.raises(MatrixFormatError, match="'inequality_id'"):
        replay({**case, "inequality_id": ["jensen"]})


def test_sharpest_case_operands_match_registry_shapes():
    rep = run_campaign("moby_a1", GenSpec(dim=3, seed=44), trials=4)[0]
    case = rep.sharpest_case
    assert set(case["operands"]) == {"X", "Y"}
    assert set(case) == {
        "inequality_id",
        "trial",
        "seed",
        "weight",
        "operands",
        "params",
        "lhs",
        "rhs",
        "rel_slack",
        "hypotheses_ok",
    }


def _rank_mixing_raw_weight(monkeypatch):
    """Make about every third trial's weight lose one more rank, so chunks mix ranks."""
    real = fuzz_mod._raw_weights

    def mixed(spec, u, z):
        stack = real(spec, u, z)
        for a in stack:
            # about every third trial, picked by its drawn weight
            if int(1e6 * abs(a[0, 0])) % 3:
                continue
            vals, vecs = np.linalg.eigh(a)
            vals[-make_context(a).rank] = 0.0
            a[...] = (vecs * vals) @ vecs.conj().T
        return stack

    monkeypatch.setattr(fuzz_mod, "_raw_weights", mixed)


@pytest.mark.parametrize(
    "iid",
    [
        "thm_2_8",
        "kz",
        "college1",
        "prod1",
        "thm_2_16",
        "buz_general",
        "drag",
        "jensen",
        "bohr",
        "mixed_schwarz",
        "holder_mccarthy",
    ],
)
def test_chunked_campaign_matches_per_trial_loop(monkeypatch, iid):
    # bohr draws one to five values per trial, so its chunks pad ragged lists;
    # passes of 32 trials keep the per-trial loop short and still split the run
    _rank_mixing_raw_weight(monkeypatch)
    gen = GenSpec(dim=4, a_kind="rank_deficient", seed=58)
    monkeypatch.setattr(fuzz_mod, "_CHUNK_ENTRIES", 32 * gen.dim**2)
    trials = _chunk_trials(gen.dim) + 5
    rep = run_campaign(iid, gen, trials, randomize_params=True)[0]
    kept = []
    ranks = set()
    for k in range(trials):
        # each trial drawn alone, a chunk of one
        ((ctx, ops, params),) = _draw_chunk(gen, iid, [k], None, True)
        ranks.add(ctx.rank)
        one = evaluate_bound(ctx, iid, ops, params)
        if one.hypotheses_ok:
            kept.append((k, one))
    assert len(ranks) > 1
    assert rep.skipped == trials - len(kept)
    k_min, sharpest = kept[0]
    slack_sum = 0.0
    for k, one in kept:
        slack_sum += one.rel_slack
        if one.rel_slack < sharpest.rel_slack:
            k_min, sharpest = k, one
    assert rep.min_rel_slack == sharpest.rel_slack
    assert rep.mean_rel_slack == slack_sum / len(kept)
    case = rep.sharpest_case
    assert case["trial"] == k_min
    assert (case["lhs"], case["rhs"]) == (sharpest.lhs, sharpest.rhs)


@pytest.mark.parametrize(
    "iid,dim,a_kind,seed,first",
    [
        ("ramadan1_cor", 4, "identity", 9076, 32),
        ("thm_beta", 4, "identity", 9076, 64),
        ("mohd1", 2, "identity", 4276, 64),
        ("ramadan1", 3, "diagonal", 4298, 32),
        ("bohr", 2, "dense_psd", 4278, 0),
    ],
)
def test_batched_reports_are_bitwise_the_single_reports(iid, dim, a_kind, seed, first):
    # chunks of criterion-1 cells with one exponent r per trial, where a
    # broadcast exponent or a masked power once made the results depend on
    # the batch (bohr also pads its value lists to the batch's widest)
    gen = GenSpec(dim=dim, a_kind=a_kind, seed=seed)
    ks = range(first, first + _chunk_trials(dim))
    draws = _draw_chunk(gen, iid, ks, None, True)
    ctxs, ops, prms = zip(*draws)
    batch = evaluate_bounds(ctxs, iid, ops, prms)
    for (ctx, operands, params), rep in zip(draws, batch):
        one = evaluate_bound(ctx, iid, operands, params)
        assert (rep.lhs, rep.rhs) == (one.lhs, one.rhs)
        assert dict(rep.intermediates) == dict(one.intermediates)


def _chunk_reports(iid, chunk):
    """Each trial's report of a drawn chunk as a campaign evaluates it, ``None`` where it raised."""
    sides, inter = fuzz_mod._evaluate_chunk(iid, chunk)
    out = []
    for i, (lhs, rhs, _, hyp) in enumerate(sides.T):
        row = {name: value[i] for name, value in inter.items()}
        out.append(None if np.isnan(hyp) else _report(iid, lhs, rhs, row, hyp, _trial_params(chunk[2], i)))
    return out


@pytest.mark.per_family
@pytest.mark.parametrize(
    "iid,dim,scale",
    [
        ("moby_a1", 2, 1e100),
        ("ramadan1", 3, 1e40),
        ("ramadan1", 2, 1e300),
        ("ramadan1", 2, 1.7e308),
        ("holder_mccarthy", 4, 1.7e308),
    ],
)
def test_campaign_skips_trials_that_overflow_and_keeps_the_rest(monkeypatch, iid, dim, scale):
    # at these scales some trials' sides overflow; one such trial used to
    # end the whole campaign.  At the largest scales the draws, the
    # reductions and A T overflow as well: those trials are skipped too,
    # with no warning.  Passes of 32 trials keep the per-trial loop short
    gen = GenSpec(dim=dim, scale=scale)
    monkeypatch.setattr(fuzz_mod, "_CHUNK_ENTRIES", 32 * dim**2)
    trials = 2 * _chunk_trials(dim)
    draws = _draw_chunk(gen, iid, range(trials), None, True)
    solo = []
    for ctx, ops, params in draws:
        try:
            solo.append(evaluate_bound(ctx, iid, ops, params))
        except DomainError:
            solo.append(None)
    raised = sum(one is None for one in solo)
    assert raised > 0
    chunked = []
    for start in range(0, trials, _chunk_trials(dim)):
        ks = range(start, start + _chunk_trials(dim))
        chunked += _chunk_reports(iid, fuzz_mod._draw(gen, [iid], ks, None, True)[0])
    assert [repr(rep) for rep in chunked] == [repr(one) for one in solo]
    kept = [one for one in solo if one is not None and one.hypotheses_ok]
    rep = run_campaign(iid, gen, trials, randomize_params=True)[0]
    assert rep.trials == trials
    assert rep.skipped == trials - len(kept)
    assert rep.min_rel_slack == (min(one.rel_slack for one in kept) if kept else None)



def _per_trial_fallback(iid, chunk):
    """:func:`fuzz._evaluate_chunk` by a reference rule: a rank group that raises is evaluated trial by trial."""
    groups, operands, cols = chunk
    k = len(cols.p)
    sides, inter = np.full((4, k), np.nan), {}

    def core(ctx, rows):  # raises where evaluate_bounds raises
        ops = {name: value[rows] for name, value in operands.items()}
        if not all(np.isfinite(value).all() for value in ops.values()):
            raise DomainError(f"{iid!r}: an operand is not finite")
        picked = SimpleNamespace(**{key: value[rows] for key, value in vars(cols).items()})
        *one, more = fuzz_mod._evaluate_stacked(iid, ctx, ops, picked)
        if not (np.isfinite(one[0]).all() and np.isfinite(one[1]).all()):
            raise DomainError(f"{iid!r}: lhs or rhs is not finite")
        sides[:, rows] = one
        for name, value in more.items():
            inter.setdefault(name, np.full(k, np.nan))[rows] = value

    for idx, ctx in groups:
        try:
            core(ctx, idx)
        except DomainError:
            for j, i in enumerate(idx):
                try:
                    core(ctx.trial(slice(j, j + 1)), [i])
                except DomainError:
                    pass
    return sides, inter


@pytest.mark.per_family
@pytest.mark.parametrize(
    "iid,dim,scale,trials",
    [
        ("thm_2_16", 3, 1e20, 512),  # a few trials raise inside the evaluation
        ("ramadan1", 3, 1e40, 300),  # some sides overflow
        ("moby_a1", 2, 1e100, 300),  # every side overflows
        ("ramadan1", 2, 1e300, 300),  # every trial raises inside the evaluation
        ("holder_mccarthy", 4, 1.7e308, 64),  # operands overflow
    ],
)
def test_raising_groups_are_halved_to_the_per_trial_report(monkeypatch, iid, dim, scale, trials):
    # one chunk each: only the trials that raise alone are skipped, a trial
    # with a non-finite operand is never evaluated, and where few trials
    # raise, halving evaluates far fewer stacks than trying each
    gen = GenSpec(dim=dim, scale=scale, seed=5)
    assert trials <= _chunk_trials(dim)
    real, sizes, finite = fuzz_mod._evaluate_stacked, [], []

    def counted(iid, ctx, ops, params):
        sizes.append(len(params.p))
        finite.append(all(np.isfinite(value).all() for value in ops.values()))
        return real(iid, ctx, ops, params)

    monkeypatch.setattr(fuzz_mod, "_evaluate_stacked", counted)
    rep = run_campaign(iid, gen, trials, randomize_params=True)[0]
    assert all(finite)
    halved, sizes[:] = len(sizes), []
    monkeypatch.setattr(fuzz_mod, "_evaluate_chunk", _per_trial_fallback)
    ref = run_campaign(iid, gen, trials, randomize_params=True)[0]
    assert rep.skipped > 0
    assert json.dumps(campaign_to_obj(rep)) == json.dumps(campaign_to_obj(ref))
    if rep.skipped < trials // 10:
        assert halved < len(sizes) // 4


def test_a_campaign_pass_of_large_matrices_stays_within_its_memory_budget():
    # a pass holds 2**13 stacked entries: two trials of 64 x 64, whose kz
    # evaluation stays under the radius grid's slice budget plus 16 MiB.
    # Passes of four trials would not
    gen = GenSpec(dim=64, a_kind="rank_deficient", t_kind="a_selfadjoint", seed=1)
    assert _chunk_trials(gen.dim) == 2
    tracemalloc.start()
    try:
        rep = run_campaign("kz", gen, 4)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.skipped == 0
    assert peak < _GRID_BYTES + 16 * 2**20