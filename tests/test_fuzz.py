"""Campaign generator and accounting tests.

The generators must hit the advertised operator classes exactly, and a
campaign must be reproducible byte for byte: reports (including every
persisted case) serialize to identical JSON across reruns, and each
persisted case replays to its stored left/right sides.
"""

import dataclasses
import json

import numpy as np
import pytest

import aradius.fuzz as fuzz_mod
from aradius import (
    A_KINDS,
    T_KINDS,
    BoundParams,
    DomainError,
    DomainViolation,
    GenSpec,
    campaign_to_obj,
    evaluate_bound,
    gen_context,
    gen_operator,
    is_a_positive,
    is_a_selfadjoint,
    make_context,
    preserves_kernel,
    registry_entry,
    registry_ids,
    replay,
    run_campaign,
)
from aradius.matio import MatrixFormatError

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
        {"rank": 0},
        {"rank": 4, "dim": 3},
    ],
)
def test_genspec_rejects_bad_fields(kwargs):
    with pytest.raises(DomainViolation):
        GenSpec(**kwargs)


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
    entry = registry_entry("buz_half")
    draws = fuzz_mod._draw_chunk(gen, entry, "buz_half", range(5), None, True)
    for ctx in [gen_context(gen)] + [ctx for ctx, _, _ in draws]:
        assert _same_factors(ctx, eye)


@pytest.mark.parametrize("a_kind", A_KINDS)
def test_a_chunk_of_weights_is_bitwise_each_weight_drawn_alone(a_kind):
    # one normalizing SVD and one eigensolve over the chunk
    gen = GenSpec(dim=4, a_kind=a_kind, seed=3)
    seeds = [11, 12, 13, 14, 15, 16, 17]
    for ctx, seed in zip(fuzz_mod._contexts(gen, seeds), seeds):
        assert _same_factors(ctx, gen_context(dataclasses.replace(gen, seed=seed)))


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


def test_run_campaign_string_id_equals_singleton_list():
    gen = GenSpec(dim=2, a_kind="diagonal", seed=4)
    a = run_campaign("thm_2_10", gen, trials=5)
    b = run_campaign(["thm_2_10"], gen, trials=5)
    assert len(a) == len(b) == 1
    assert json.dumps(campaign_to_obj(a[0]), sort_keys=True) == json.dumps(
        campaign_to_obj(b[0]), sort_keys=True
    )


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
    # every id is evaluated in batches; sabotage every report
    real = fuzz_mod.evaluate_bounds

    def sabotage(ctxs, iid, operands, params):
        return [
            dataclasses.replace(
                rep, lhs=rep.rhs + 1.0, slack=-1.0, rel_slack=-1.0, hypotheses_ok=True
            )
            for rep in real(ctxs, iid, operands, params)
        ]

    monkeypatch.setattr(fuzz_mod, "evaluate_bounds", sabotage)
    rep = run_campaign("thm_2_10", GenSpec(dim=2, seed=2), trials=30)[0]
    assert rep.violations == 30
    assert len(rep.violation_cases) == 25  # persistence is capped
    assert rep.min_rel_slack == -1.0
    obj = campaign_to_obj(rep)
    json.dumps(obj)  # still serializable with failures attached


def test_run_campaign_counts_skips(monkeypatch):
    real = fuzz_mod.evaluate_bounds

    def advisory_on_even(ctxs, iid, operands, params):
        reports = []
        for rep in real(ctxs, iid, operands, params):
            trial_is_even = advisory_on_even.calls % 2 == 0
            advisory_on_even.calls += 1
            if trial_is_even:
                rep = dataclasses.replace(rep, hypotheses_ok=False)
            reports.append(rep)
        return reports

    advisory_on_even.calls = 0
    monkeypatch.setattr(fuzz_mod, "evaluate_bounds", advisory_on_even)
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
    real = fuzz_mod.evaluate_bounds

    def sabotage(ctxs, iid, operands, params):
        return [
            dataclasses.replace(rep, rel_slack=-1.0)
            for rep in real(ctxs, iid, operands, params)
        ]

    monkeypatch.setattr(fuzz_mod, "evaluate_bounds", sabotage)
    rep = run_campaign("thm_2_10", GenSpec(dim=2, seed=13), trials=2)[0]
    assert rep.violations == 2
    case = rep.violation_cases[0]
    monkeypatch.setattr(fuzz_mod, "evaluate_bounds", real)
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
    """Make every third trial's weight lose one more rank, so chunks mix ranks."""
    real = fuzz_mod._raw_weight

    def mixed(spec, seed):
        a = real(spec, seed)
        if seed % 3:
            return a
        vals, vecs = np.linalg.eigh(a)
        vals[-make_context(a).rank] = 0.0
        return (vecs * vals) @ vecs.conj().T

    monkeypatch.setattr(fuzz_mod, "_raw_weight", mixed)


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
    # bohr draws one to five values per trial, so its chunks pad ragged lists
    _rank_mixing_raw_weight(monkeypatch)
    gen = GenSpec(dim=4, a_kind="rank_deficient", seed=58)
    trials = fuzz_mod.MAX_BATCH + 5
    rep = run_campaign(iid, gen, trials, randomize_params=True)[0]
    entry = registry_entry(iid)
    kept = []
    ranks = set()
    for k in range(trials):
        # each trial drawn alone, a chunk of one
        ((ctx, ops, params),) = fuzz_mod._draw_chunk(gen, entry, iid, [k], None, True)
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
    entry = registry_entry(iid)
    ks = range(first, first + fuzz_mod.MAX_BATCH)
    draws = fuzz_mod._draw_chunk(gen, entry, iid, ks, None, True)
    ctxs, ops, prms = zip(*draws)
    batch = fuzz_mod.evaluate_bounds(ctxs, iid, ops, prms)
    for (ctx, operands, params), rep in zip(draws, batch):
        one = evaluate_bound(ctx, iid, operands, params)
        assert (rep.lhs, rep.rhs) == (one.lhs, one.rhs)
        assert dict(rep.intermediates) == dict(one.intermediates)


@pytest.mark.parametrize(
    "iid,dim,scale",
    [("moby_a1", 2, 1e100), ("ramadan1", 3, 1e40)],
)
def test_campaign_skips_trials_that_overflow_and_keeps_the_rest(iid, dim, scale):
    # at these scales some trials' sides overflow; one such trial used to
    # end the whole campaign
    gen = GenSpec(dim=dim, scale=scale)
    trials = 2 * fuzz_mod.MAX_BATCH
    entry = registry_entry(iid)
    draws = fuzz_mod._draw_chunk(gen, entry, iid, range(trials), None, True)
    solo = []
    for ctx, ops, params in draws:
        try:
            solo.append(evaluate_bound(ctx, iid, ops, params))
        except DomainError:
            solo.append(None)
    raised = sum(one is None for one in solo)
    assert raised > 0
    chunked = []
    for start in range(0, trials, fuzz_mod.MAX_BATCH):
        chunked += fuzz_mod._evaluate_chunk(iid, draws[start : start + fuzz_mod.MAX_BATCH])
    assert [repr(rep) for rep in chunked] == [repr(one) for one in solo]
    kept = [one for one in solo if one is not None and one.hypotheses_ok]
    rep = run_campaign(iid, gen, trials, randomize_params=True)[0]
    assert rep.trials == trials
    assert rep.skipped == trials - len(kept)
    assert rep.min_rel_slack == (min(one.rel_slack for one in kept) if kept else None)
