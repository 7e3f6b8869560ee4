"""Release gate: nine numbered end-to-end criteria.

Each test is one criterion; the terminal summary prints one PASS/FAIL
line per criterion (see ``conftest.pytest_terminal_summary``).  These
are the binding checks — tolerances and trial counts here are fixed,
not tunable defaults.
"""

import json
import time

import numpy as np
import pytest

from aradius import (
    A_KINDS,
    BlockSpec,
    BoundParams,
    EllipticSpec,
    GenSpec,
    a_numerical_radius,
    a_numerical_radius_lower,
    assemble,
    assemble_fd,
    campaign_to_obj,
    check_matrix_bound,
    check_vector_lemma,
    consistency_order,
    dsum_context,
    evaluate_bound,
    make_context,
    op_seminorm,
    optimize_refined_alpha_bound,
    preconditioner_report,
    reduce,
    registry_ids,
    replay,
    run_campaign,
    vec_seminorm,
)
from aradius.audit import audit_rows, format_audit_table

from conftest import cgauss, oracle_radius, oracle_radius_grid, random_context

VECTOR_IDS = (
    "buz_general",
    "buz_half",
    "mix_al_be",
    "buzano_beta",
    "ramadan_kareem",
    "buz_beta",
    "buz_beta_pow",
    "modified_buzano",
    "drag",
)


def test_criterion_1_master_soundness():
    # 1000+ hypothesis-respecting trials per registry id across dims 2-4
    # and all four weight kinds; zero violations at rel_slack >= -1e-8,
    # in under two minutes.
    ids = list(registry_ids())
    combos = [(d, kind) for d in (2, 3, 4) for kind in A_KINDS]
    per_combo = 84  # 12 combos -> 1008 trials per id
    start = time.perf_counter()
    totals = {iid: {"trials": 0, "violations": 0, "min": None} for iid in ids}
    for j, (dim, kind) in enumerate(combos):
        gen = GenSpec(dim=dim, a_kind=kind, seed=9000 + 17 * dim + j)
        for rep in run_campaign(ids, gen, per_combo, randomize_params=True):
            box = totals[rep.inequality_id]
            box["trials"] += rep.trials
            box["violations"] += rep.violations
            if rep.min_rel_slack is not None:
                box["min"] = (
                    rep.min_rel_slack
                    if box["min"] is None
                    else min(box["min"], rep.min_rel_slack)
                )
    elapsed = time.perf_counter() - start
    for iid, box in totals.items():
        assert box["trials"] == 1008, iid
        assert box["violations"] == 0, iid
        assert box["min"] is not None and box["min"] >= -1e-8, (iid, box["min"])
    assert elapsed < 120.0, f"campaign took {elapsed:.1f}s"


def test_criterion_2_diagonal_sharpness():
    a = np.diag([1.0, 2.0]).astype(complex)
    x = np.diag([1.0, 2.0]).astype(complex)
    y = np.diag([2.0, 1.0]).astype(complex)
    ctx = make_context(a)
    assert abs(op_seminorm(ctx, x) - 2.0) <= 1e-10
    assert abs(op_seminorm(ctx, y) - 2.0) <= 1e-10
    lam_star, bound = optimize_refined_alpha_bound(ctx, x, y)
    assert abs(lam_star - 0.5) <= 1e-10
    assert abs(bound - 2.0) <= 1e-10
    ctx2 = dsum_context(ctx, 2)
    block = assemble(BlockSpec.antidiag(x, y))
    w = a_numerical_radius(ctx2, block, 1e-10)
    assert w <= 2.0 + 1e-8
    # two independent oracles agree on the radius itself
    tilde = reduce(ctx2, block)
    w_oracle = oracle_radius(tilde)
    assert abs(w - w_oracle) <= 1e-6
    assert abs(w - 1.5) <= 1e-6 and abs(w_oracle - 1.5) <= 1e-6
    # the reported exact value 2 is audited; the recomputed 1.5 is on record
    rows = [
        r
        for r in audit_rows()
        if r["example"] == "diagonal" and r["quantity"] == "block radius"
    ]
    assert len(rows) == 1
    assert rows[0]["claimed"] == "2"
    assert float(rows[0]["computed"]) == pytest.approx(1.5, abs=1e-6)
    assert rows[0]["agrees"] is False


def test_criterion_3_moby_audit():
    j = np.ones((2, 2), dtype=complex)
    x = np.array([[2.0, 1.0], [-1.0, 2.0]], dtype=complex)
    y = np.array([[2.0, 3.0], [1.0, -1.0]], dtype=complex)
    ctx = make_context(j)
    assert np.allclose(ctx.a_pinv, 0.25 * j, atol=1e-12)
    rep = check_matrix_bound(
        ctx, "moby_a1", {"X": x, "Y": y}, BoundParams(alpha=2.0, beta=1.0)
    )
    assert rep.intermediates["delta_1"] == 0.75
    assert rep.intermediates["delta_2"] == 0.25
    assert rep.slack >= 0.0
    # reported arithmetic is tabulated for comparison only
    print(
        f"reported rhs 97.214 vs computed {rep.rhs:.4f}; "
        f"reported lhs 76.558 vs computed {rep.lhs:.4f}"
    )
    table = format_audit_table()
    assert "97.214" in table
    assert "2.958" in table  # reported block radius (76.558 ** 0.25)
    moby_rows = [r for r in audit_rows() if r["example"] == "rank_one_weight"]
    assert len(moby_rows) >= 12  # every quantity recomputed
    assert any(r["quantity"] == "slack nonnegative" and r["agrees"] for r in moby_rows)


def test_criterion_4_seminorm_radius_equivalence():
    rng = np.random.default_rng(401)
    for k in range(500):
        n = int(rng.integers(2, 5))
        rank = int(rng.integers(1, n + 1)) if k % 3 == 0 else None
        ctx = random_context(rng, n, rank=rank)
        t = cgauss(rng, n, n)
        s = op_seminorm(ctx, t)
        w = a_numerical_radius(ctx, t)
        tol = 1e-6 * max(1.0, s)
        assert 0.5 * s - tol <= w <= s + tol


def test_criterion_5_oracle_agreement():
    rng = np.random.default_rng(501)
    for k in range(200):
        n = int(rng.integers(2, 5))
        rank = int(rng.integers(1, n + 1)) if k % 4 == 0 else None
        ctx = random_context(rng, n, rank=rank)
        t = cgauss(rng, n, n)
        w = a_numerical_radius(ctx, t)
        lo = a_numerical_radius_lower(ctx, t, samples=10000, seed=k)
        assert w >= lo - 1e-6
    # classical weight: a third, direct computation must agree
    eye_ctx = make_context(np.eye(3))
    for _ in range(60):
        t = cgauss(rng, 3, 3)
        w = a_numerical_radius(eye_ctx, t)
        third = oracle_radius_grid(t)
        assert abs(w - third) <= 1e-6 * max(1.0, w)


def test_criterion_6_vector_lemma_suite():
    combos = [
        (2, "identity"),
        (3, "diagonal"),
        (3, "dense_psd"),
        (4, "rank_deficient"),
    ]
    per_combo = 2500  # 4 combos -> 1e4 trials per id
    for j, (dim, kind) in enumerate(combos):
        gen = GenSpec(dim=dim, a_kind=kind, seed=6000 + j)
        reports = run_campaign(
            list(VECTOR_IDS), gen, per_combo, randomize_params=True
        )
        for rep in reports:
            assert rep.violations == 0, rep.inequality_id
            assert rep.min_rel_slack is not None
            assert rep.min_rel_slack >= -1e-8
    # equality detection for the half bound with b = a.  When a carries no
    # weight-orthogonal component against e (a = c e modulo ker A), both
    # sides collapse to |c|^2; a pure kernel vector is the degenerate case
    # where additionally <a, e>_A = 0.
    rng = np.random.default_rng(602)
    weights = [
        np.eye(3, dtype=complex),
        np.diag([1.0, 2.0, 3.0]).astype(complex),
        np.diag([1.0, 1.0, 0.0]).astype(complex),
    ]
    for a_mat in weights:
        ctx = make_context(a_mat)
        for _ in range(25):
            e = cgauss(rng, 3)
            e = ctx.range_proj @ e
            e = e / vec_seminorm(ctx, e)
            kern = (np.eye(3) - ctx.range_proj) @ cgauss(rng, 3)
            c = complex(cgauss(rng, 1)[0]) * 2.0
            aligned = c * e + kern
            rep = check_vector_lemma(ctx, "buz_half", aligned, aligned, e)
            assert abs(rep.slack) <= 1e-9
            degenerate = check_vector_lemma(ctx, "buz_half", kern, kern, e)
            assert abs(degenerate.slack) <= 1e-9
            assert degenerate.intermediates["seminorm_a"] <= 1e-9


def test_criterion_7_special_case_consistency():
    rng = np.random.default_rng(701)
    # the power-pair corollary is the same bound as the theorem it derives from
    for _ in range(100):
        ctx = random_context(rng, 3)
        ops = {"X": cgauss(rng, 3, 3), "Y": cgauss(rng, 3, 3)}
        params = BoundParams(
            r=float(rng.choice([1.0, 1.5, 2.0])), lam=float(rng.uniform(0.1, 0.9))
        )
        rep_a = evaluate_bound(ctx, "cor_2_11", ops, params, None)
        rep_b = evaluate_bound(ctx, "thm_2_10", ops, params, None)
        assert abs(rep_a.lhs - rep_b.lhs) <= 1e-10
        assert abs(rep_a.rhs - rep_b.rhs) <= 1e-10
    # the two-parameter vector bound at alpha = 2 is the beta-only bound
    for _ in range(60):
        ctx = random_context(rng, 3)
        a_vec, b_vec = cgauss(rng, 3), cgauss(rng, 3)
        e = cgauss(rng, 3)
        e = ctx.range_proj @ e
        e = e / vec_seminorm(ctx, e)
        be = float(rng.uniform(0.0, 4.0))
        rep_a = check_vector_lemma(
            ctx, "mix_al_be", a_vec, b_vec, e, BoundParams(alpha=2.0, beta=be)
        )
        rep_b = check_vector_lemma(
            ctx, "buzano_beta", a_vec, b_vec, e, BoundParams(beta=be)
        )
        assert abs(rep_a.lhs - rep_b.lhs) <= 1e-12
        assert abs(rep_a.rhs - rep_b.rhs) <= 1e-12 * max(1.0, abs(rep_b.rhs))
    # collapsing the four-operator bound onto one operator matches the
    # single-operator derived form up to the block-vs-operator scaling
    for _ in range(10):
        ctx = random_context(rng, 2)
        m = cgauss(rng, 2, 2)
        params = BoundParams(alpha=2.0, beta=1.0)
        rep_kz = evaluate_bound(
            ctx, "kz", {"F": m, "X": m, "Y": m, "K": m}, params, None
        )
        rep_col = evaluate_bound(ctx, "college1", {"M": m}, params, None)
        scale = max(1.0, abs(rep_kz.rhs))
        assert abs(rep_kz.rhs - 16.0 * rep_col.rhs) <= 1e-9 * scale
        assert abs(rep_kz.lhs - 16.0 * rep_col.lhs) <= 1e-9 * max(1.0, abs(rep_kz.lhs))


def test_criterion_8_pde_discretization():
    # constant-coefficient eigenvalues, exactly as the closed form says
    spec15 = EllipticSpec(n_points=15, coeff_a=(1.0,), coeff_c=0.0)
    t_h, _ = assemble_fd(spec15)
    got = np.linalg.eigvalsh(t_h * spec15.h**2)
    expect = np.sort(2.0 - 2.0 * np.cos(np.arange(1, 16) * np.pi / 16.0))
    assert np.max(np.abs(got - expect)) <= 1e-10
    # second-order consistency across h, h/2, h/4
    for spec in (spec15, EllipticSpec(n_points=8)):
        order = consistency_order(spec, levels=3)
        assert 1.7 <= order <= 2.3
    # contractive Jacobi iteration decays monotonically in the weighted norm
    for spec in (EllipticSpec(n_points=8), EllipticSpec(n_points=8, coeff_a=(1.0,), coeff_c=0.0)):
        rep = preconditioner_report(spec, p_kind="jacobi", iterations=25, seed=3)
        if rep.rho < 1.0:
            assert rep.monotone
        assert rep.contractive  # nonvacuous: this operator family contracts


def test_criterion_9_determinism_replay():
    ids = list(registry_ids())
    replayed = 0
    for dim, kind, seed in ((2, "dense_psd", 901), (3, "rank_deficient", 902)):
        gen = GenSpec(dim=dim, a_kind=kind, seed=seed)
        first = run_campaign(ids, gen, 6, randomize_params=True)
        second = run_campaign(ids, gen, 6, randomize_params=True)
        blob_a = json.dumps([campaign_to_obj(r) for r in first], sort_keys=True)
        blob_b = json.dumps([campaign_to_obj(r) for r in second], sort_keys=True)
        assert blob_a == blob_b  # byte-identical reruns
        for rep in first:
            case = rep.sharpest_case
            if case is None:
                continue
            case = json.loads(json.dumps(case))
            back = replay(case)
            assert abs(back.lhs - case["lhs"]) <= 1e-12
            assert abs(back.rhs - case["rhs"]) <= 1e-12
            replayed += 1
    assert replayed >= 60
