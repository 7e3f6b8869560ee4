"""Bound registry: parameter domains, checkers, optimizers, consistency."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aradius import (
    A_KINDS,
    T_KINDS,
    BoundParams,
    DomainError,
    DomainViolation,
    NotAPositive,
    NotUnitVector,
    ParamGrid,
    UnknownId,
    a_adjoint,
    a_numerical_radius,
    check_holder_mccarthy,
    check_matrix_bound,
    check_mixed_schwarz,
    check_product_bound,
    check_scalar_lemma,
    check_single_operator_bound,
    check_vector_lemma,
    classical_numerical_radius,
    evaluate_bound,
    gen_context,
    gen_operator,
    GenSpec,
    hermitian_eig,
    is_a_positive,
    is_a_selfadjoint,
    make_context,
    op_seminorm,
    optimize_params,
    optimize_refined_alpha_bound,
    preserves_kernel,
    registry_entry,
    registry_ids,
    semi_inner,
    vec_seminorm,
)
import aradius.fuzz as fuzz_mod
import aradius.linalg as linalg_mod
from aradius.inequalities import refined_alpha_critical_point

from conftest import a_unit_vector, cgauss, random_context

ALL_IDS = registry_ids()
MATRIX_IDS = tuple(i for i in ALL_IDS if registry_entry(i).kind == "matrix")
SINGLE_IDS = tuple(i for i in ALL_IDS if registry_entry(i).kind == "single")
PRODUCT_IDS = tuple(i for i in ALL_IDS if registry_entry(i).kind == "product")
VECTOR_IDS = tuple(i for i in ALL_IDS if registry_entry(i).kind == "vector")


# --------------------------------------------------------------------------
# parameters and registry plumbing


def test_registry_lists_all_kinds():
    assert len(ALL_IDS) == 36
    assert set(("jensen", "bohr")) <= set(ALL_IDS)
    assert len(VECTOR_IDS) == 9
    assert len(MATRIX_IDS) == 12
    assert len(SINGLE_IDS) == 6
    assert len(PRODUCT_IDS) == 5


def test_registry_entry_unknown_id():
    with pytest.raises(UnknownId):
        registry_entry("no_such_bound")


def test_params_defaults_and_conjugate_exponent():
    p = BoundParams()
    assert p.q == pytest.approx(2.0)
    p3 = BoundParams(p=3.0)
    assert p3.q == pytest.approx(1.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": 0.0},
        {"beta": -0.1},
        {"r": 0.5},
        {"mu": 1.5},
        {"lam": -0.2},
        {"p": 1.0},
        {"alpha": math.nan},
        {"alpha": math.inf},
        {"beta": math.inf},
        {"r": math.inf},
    ],
)
def test_params_domain_violations(kwargs):
    with pytest.raises(DomainViolation):
        BoundParams(**kwargs)


# --------------------------------------------------------------------------
# scalar lemmas


def test_jensen_chain_hand_values():
    rep = check_scalar_lemma("jensen", [1.0, 4.0], BoundParams(lam=0.5, r=2.0))
    assert rep.lhs == pytest.approx(2.0)  # geometric mean
    assert rep.intermediates["arithmetic_mean"] == pytest.approx(2.5)
    assert rep.rhs == pytest.approx(np.sqrt(8.5))
    assert rep.slack >= 0.0


def test_jensen_equality_at_equal_inputs():
    rep = check_scalar_lemma("jensen", [3.0, 3.0], BoundParams(lam=0.3, r=1.7))
    assert abs(rep.slack) < 1e-12


def test_jensen_rejects_bad_inputs():
    with pytest.raises(DomainViolation):
        check_scalar_lemma("jensen", [1.0])
    with pytest.raises(DomainViolation):
        check_scalar_lemma("jensen", [1.0, -2.0])


@pytest.mark.parametrize("iid", ["jensen", "bohr"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_scalar_lemmas_reject_non_finite_values(iid, bad):
    with pytest.raises(DomainViolation):
        check_scalar_lemma(iid, [bad, 1.0])


@pytest.mark.per_family
def test_overflowing_sides_raise_naming_the_id():
    # Finite inputs whose lhs and rhs overflow to inf would give a NaN
    # slack that counts as satisfied.
    big = 1e100 * np.eye(2)
    ctx = make_context(np.diag([1.0, 2.0]))
    with pytest.raises(DomainViolation, match="moby_a1"):
        check_matrix_bound(ctx, "moby_a1", {"X": big, "Y": big})
    with pytest.raises(DomainViolation, match="bohr"):
        check_scalar_lemma("bohr", [1e200, 1e200], BoundParams(r=2.0))


def test_bohr_hand_value():
    rep = check_scalar_lemma("bohr", [1.0, 2.0, 3.0], BoundParams(r=2.0))
    assert rep.lhs == pytest.approx(36.0)
    assert rep.rhs == pytest.approx(3.0 * 14.0)


@given(
    st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=6),
    st.floats(min_value=1.0, max_value=4.0),
)
def test_bohr_property(values, r):
    rep = check_scalar_lemma("bohr", values, BoundParams(r=r))
    assert rep.rel_slack >= -1e-10


@given(
    st.floats(min_value=0.01, max_value=20.0),
    st.floats(min_value=0.01, max_value=20.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=5.0),
)
def test_jensen_property(a, b, lam, r):
    rep = check_scalar_lemma("jensen", [a, b], BoundParams(lam=lam, r=r))
    assert rep.rel_slack >= -1e-10
    assert rep.intermediates["slack_left"] >= -1e-10
    assert rep.intermediates["slack_right"] >= -1e-10


# --------------------------------------------------------------------------
# vector lemmas


def _vector_triple(rng, ctx):
    a = cgauss(rng, ctx.dim)
    b = cgauss(rng, ctx.dim)
    e = a_unit_vector(ctx, rng)
    return a, b, e


@pytest.mark.parametrize("iid", VECTOR_IDS)
def test_vector_lemmas_hold_on_randoms(iid, rng):
    for trial in range(40):
        n = 2 + trial % 3
        ctx = random_context(rng, n, rank=max(1, n - trial % 2))
        a, b, e = _vector_triple(rng, ctx)
        params = BoundParams(
            alpha=complex(rng.uniform(0.7, 3.0)),
            beta=rng.uniform(0.0, 4.0),
            r=1.0 + rng.uniform(0.0, 2.0),
        )
        rep = check_vector_lemma(ctx, iid, a, b, e, params)
        assert rep.rel_slack >= -1e-8, (iid, trial)


def test_vector_lemma_requires_unit_vector(rng):
    ctx = random_context(rng, 3)
    a, b, e = _vector_triple(rng, ctx)
    with pytest.raises(NotUnitVector):
        check_vector_lemma(ctx, "buz_general", a, b, 2.0 * e)


def test_vector_lemma_unknown_id(rng):
    ctx = random_context(rng, 3)
    a, b, e = _vector_triple(rng, ctx)
    with pytest.raises(UnknownId):
        check_vector_lemma(ctx, "thm_2_7", a, b, e)


def test_buz_half_equality_on_aligned_vectors(rng):
    # slack collapses when both vectors sit on the reference direction
    # (a kernel component is invisible to every term)
    for _ in range(25):
        ctx = random_context(rng, 3, rank=2)
        e = a_unit_vector(ctx, rng)
        kernel = (np.eye(3) - ctx.range_proj) @ cgauss(rng, 3)
        c = complex(cgauss(rng, 1)[0])
        a = c * e + kernel
        rep = check_vector_lemma(ctx, "buz_half", a, a, e)
        assert rep.slack <= 1e-9
        assert rep.slack >= -1e-9


# --------------------------------------------------------------------------
# pointwise operator lemmas


def test_mixed_schwarz_on_commuting_operand(rng):
    spec = GenSpec(dim=3, a_kind="dense_psd", t_kind="a_commuting", seed=11)
    ctx = gen_context(spec)
    t = gen_operator(ctx, spec)
    x = a_unit_vector(ctx, rng)
    y = a_unit_vector(ctx, rng)
    rep = check_mixed_schwarz(ctx, t, x, y, lam=0.35)
    assert rep.hypotheses_ok
    assert rep.rel_slack >= -1e-8


def test_mixed_schwarz_flags_noncommuting(rng):
    ctx = random_context(rng, 3)
    t = cgauss(rng, 3, 3)
    x = a_unit_vector(ctx, rng)
    y = a_unit_vector(ctx, rng)
    rep = check_mixed_schwarz(ctx, t, x, y)
    assert not rep.hypotheses_ok
    assert not rep.violated


def test_holder_mccarthy_branches(rng):
    spec = GenSpec(dim=3, a_kind="rank_deficient", t_kind="a_positive", seed=4)
    ctx = gen_context(spec)
    t = gen_operator(ctx, spec)
    x = a_unit_vector(ctx, rng)
    for r in (0.0, 0.5, 1.0, 2.0, 3.5):
        rep = check_holder_mccarthy(ctx, t, x, r)
        assert rep.rel_slack >= -1e-8, r
    assert abs(check_holder_mccarthy(ctx, t, x, 1.0).slack) < 1e-10


def test_holder_mccarthy_rejects_nonpositive(rng):
    ctx = random_context(rng, 3)
    t = cgauss(rng, 3, 3)
    x = a_unit_vector(ctx, rng)
    with pytest.raises(NotAPositive):
        check_holder_mccarthy(ctx, t, x, 2.0)
    with pytest.raises(DomainViolation):
        check_holder_mccarthy(ctx, np.eye(3), x, -1.0)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_holder_mccarthy_rejects_non_finite_r(rng, r):
    ctx = random_context(rng, 3)
    x = a_unit_vector(ctx, rng)
    with pytest.raises(DomainViolation):
        check_holder_mccarthy(ctx, np.eye(3), x, r)


# --------------------------------------------------------------------------
# operator bounds: degenerate and pinned cases


@pytest.mark.parametrize("iid", MATRIX_IDS)
def test_matrix_bounds_vanish_at_zero(iid, identity_ctx):
    zero = np.zeros((3, 3))
    ops = {k: zero for k in registry_entry(iid).operands}
    params = BoundParams(r=2.0) if iid == "thm_2_16" else BoundParams()
    rep = check_matrix_bound(identity_ctx, iid, ops, params)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("iid", SINGLE_IDS)
def test_single_bounds_vanish_at_zero(iid, identity_ctx):
    rep = check_single_operator_bound(
        identity_ctx, iid, np.zeros((3, 3)), BoundParams()
    )
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("iid", PRODUCT_IDS)
def test_product_bounds_vanish_at_zero(iid, identity_ctx):
    zero = np.zeros((3, 3))
    ops = {k: zero for k in registry_entry(iid).operands}
    rep = check_product_bound(identity_ctx, iid, ops, BoundParams())
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("iid", ["prod1", "prod2"])
def test_product_radius_is_the_radius_of_the_assembled_product(iid, rng):
    # T = [[0, T1], [T2, 0]] and S = [[0, S1], [S2, 0]] give S* T =
    # diag(S2* T2, S1* T1), whose radius is the larger of its blocks' radii
    ctx = make_context(np.eye(3))
    zero = np.zeros((3, 3))
    for _ in range(5):
        ops = {name: cgauss(rng, 3, 3) for name in registry_entry(iid).operands}
        t = np.block([[zero, ops["T1"]], [ops["T2"], zero]])
        s = np.block([[zero, ops["S1"]], [ops["S2"], zero]])
        whole = classical_numerical_radius(s.conj().T @ t)
        rep = check_product_bound(ctx, iid, ops, BoundParams())
        assert rep.intermediates["radius_product"] == pytest.approx(whole, rel=1e-12)


@pytest.mark.per_family
def test_a_reduction_that_overflows_raises_domain_violation():
    # the blocks are finite, but A^(1/2) X (A^(1/2))^+ doubles an entry
    # near the largest float
    ctx = make_context(np.diag([4.0, 1.0]))
    x = np.array([[0.0, 1.5e308], [0.0, 0.0]])
    with pytest.raises(DomainViolation, match="reduced operand"):
        check_matrix_bound(ctx, "ramadan1", {"X": x, "Y": x}, BoundParams())


@pytest.mark.parametrize("iid", MATRIX_IDS + SINGLE_IDS + PRODUCT_IDS)
def test_identity_configuration_is_equality(iid, identity_ctx):
    """Identity blocks over the identity weight saturate every bound.

    This pins every constant in every right side at once: any
    transcription slip shows up as nonzero slack here.
    """
    eye = np.eye(3)
    entry = registry_entry(iid)
    ops = {k: eye for k in entry.operands}
    params = BoundParams(r=2.0) if iid == "thm_2_16" else BoundParams()
    rep = evaluate_bound(identity_ctx, iid, ops, params)
    assert rep.hypotheses_ok
    assert abs(rep.slack) < 1e-9, (iid, rep.lhs, rep.rhs)


def test_moby_a1_coefficients_match_hand_values(identity_ctx):
    # delta_1 = (2(b+1)max(1,|a-1|^2) + 2b) / (|a|^2 (b+1)), delta_2 = 2/(|a|^2 (b+1))
    x = np.eye(3)
    rep = check_matrix_bound(
        identity_ctx, "moby_a1", {"X": x, "Y": x}, BoundParams(alpha=2.0, beta=1.0)
    )
    assert rep.intermediates["delta_1"] == pytest.approx(0.75, abs=1e-15)
    assert rep.intermediates["delta_2"] == pytest.approx(0.25, abs=1e-15)


def test_thm_2_8_diagonal_example(diag_ctx):
    x = np.diag([1.0, 2.0])
    y = np.diag([2.0, 1.0])
    rep = check_matrix_bound(diag_ctx, "thm_2_8", {"X": x, "Y": y}, BoundParams())
    assert rep.rhs == pytest.approx(2.0, abs=1e-10)
    assert rep.lhs <= 2.0 + 1e-8
    assert rep.intermediates["lam_star"] == pytest.approx(0.5, abs=1e-10)
    assert rep.intermediates["rhs_as_displayed"] == pytest.approx(2.0, abs=1e-10)


def test_thm_2_7_reduces_to_half_sum_at_center(rng):
    ctx = random_context(rng, 3)
    x, y = cgauss(rng, 3, 3), cgauss(rng, 3, 3)
    rep = check_matrix_bound(ctx, "thm_2_7", {"X": x, "Y": y}, BoundParams(lam=0.5))
    assert rep.rhs == pytest.approx(
        0.5 * (op_seminorm(ctx, x) + op_seminorm(ctx, y)), abs=1e-9
    )
    assert rep.rhs == pytest.approx(rep.intermediates["rhs_as_displayed"], abs=1e-9)


@pytest.mark.per_family
@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9, 1e-12])
def test_hypothesis_verdicts_do_not_depend_on_scale(scale):
    ctx = make_context(np.diag([1.0, 0.0]))
    leak = scale * np.array([[0.0, 1.0], [0.0, 0.0]])  # maps ker(A) onto ran(A)
    ops = {"X": leak, "Y": scale * np.eye(2)}
    assert not check_matrix_bound(ctx, "moby_a1", ops, BoundParams()).hypotheses_ok
    weight = make_context(np.diag([1.0, 2.0]))
    x = y = np.array([1.0, 0.0])
    swap = scale * np.array([[0.0, 1.0], [1.0, 0.0]])  # does not commute with A
    assert not check_mixed_schwarz(weight, swap, x, y).hypotheses_ok
    assert check_mixed_schwarz(weight, scale * np.diag([3.0, 5.0]), x, y).hypotheses_ok


@pytest.mark.per_family
@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_commutator_hypothesis_holds_its_verdict_at_extreme_scales(scale):
    # unscaled, the random T's commutator norm underflows to 0 at 1e-200
    # and the commuting T's overflows to inf at 1e200
    rng = np.random.default_rng(31)
    g = rng.standard_normal((3, 3))
    a = g @ g.T + np.eye(3)
    ctx = make_context(a)
    x = y = np.array([1.0, 0.0, 0.0])
    dense = cgauss(rng, 3, 3)
    rep = check_mixed_schwarz(ctx, scale * dense, x, y)
    assert not rep.hypotheses_ok
    assert rep.intermediates["commutator"] == pytest.approx(
        scale * np.linalg.norm(dense @ ctx.a - ctx.a @ dense), rel=1e-14
    )
    assert check_mixed_schwarz(ctx, scale * (a @ a + a), x, y).hypotheses_ok


def test_commutator_intermediate_is_the_unscaled_norm_at_ordinary_scales(rng):
    ctx = random_context(rng, 4)
    for t in (cgauss(rng, 4, 4), 3.0 * ctx.a @ ctx.a + 0.25 * ctx.a):
        rep = check_mixed_schwarz(ctx, t, np.eye(4)[0], np.eye(4)[1])
        assert rep.intermediates["commutator"] == np.linalg.norm(t @ ctx.a - ctx.a @ t)


#: The powers of two of the scaling sweep, and the degree of each operator
#: id's sides in its matrix operands at the default parameters (``None``:
#: holder_mccarthy's is its operand ``r``).
POW2_KS = (1, -1, 64, -64, 500, -500, 1000, -1000)
OPERATOR_DEGREES = {
    **dict.fromkeys(("thm_2_7", "thm_2_8", "thm_2_10", "cor_2_11", "rem_2_12"), 1),
    **dict.fromkeys(("moby_a1", "ramadan1", "thm_beta", "thm_2_16", "kz", "modified_kz"), 4),
    "thm_alpha": 2,
    **dict.fromkeys(("moby_a2", "ramadan1_cor", "mohd1", "college1", "modified_kz_cor"), 4),
    "alpha_cor": 2,
    **dict.fromkeys(("prod1", "prod2", "cor_prod", "cor_prod_a"), 8),
    "power_2r": 4,
    "mixed_schwarz": 1,
    "holder_mccarthy": None,
}


def _power_of_two_verdicts(k, monkeypatch):
    """Every structural verdict on fixed inputs whose operators (and weights) are scaled by ``2**k``.

    A verdict that raises a :class:`DomainError` reads as the error's name.
    """
    rng = np.random.default_rng(2024)
    s = 2.0**k

    def verdict(fn, *args):
        try:
            out = fn(*args)
        except DomainError as exc:
            return type(exc).__name__
        return out.tolist() if isinstance(out, np.ndarray) else out

    out = {}
    for name, ctx in (("deficient", random_context(rng, 3, rank=2)), ("full", random_context(rng, 3))):
        ts = np.stack(
            [gen_operator(ctx, GenSpec(dim=3, t_kind=kind, seed=5)) for kind in T_KINDS]
            + [cgauss(rng, 3, 3)]  # maps ker A out of itself for the deficient weight
        )
        out[name, "selfadjoint"] = verdict(is_a_selfadjoint, ctx, s * ts)
        out[name, "positive"] = verdict(is_a_positive, ctx, s * ts)
        out[name, "kernel"] = verdict(preserves_kernel, ctx, s * ts)
        commutes = registry_entry("mixed_schwarz").check
        out[name, "commutes"] = verdict(lambda t: commutes(ctx, {"T": t})[0], s * ts)
        out[name, "rank"] = verdict(lambda a: make_context(a).rank, s * ctx.a)
    g = cgauss(rng, 3, 3)
    q = np.linalg.qr(cgauss(rng, 3, 3))[0]
    kernel_inputs = np.stack(
        [g + g.conj().T, (q * cgauss(rng, 3)) @ q.conj().T, g, g.real, np.zeros((3, 3))]
    )
    for i, m in enumerate(kernel_inputs):
        out["hermitian_eig", i] = verdict(lambda m: hermitian_eig(m).eigenvalues.shape, s * m)
        out["make_context", i] = verdict(lambda a: make_context(a).rank, s * (m @ m.conj().T))
        out["make_context", i, "raw"] = verdict(lambda a: make_context(a).rank, s * m)
    # the kernel's Hermitian and normal short-circuits, as the kernel takes them
    classes = []

    def spy(real):
        def record(*args):
            out = real(*args)
            classes.append(out[1].tolist())
            return out

        return record

    with monkeypatch.context() as patch:
        for name in ("_hermitian_part", "_commutator"):
            patch.setattr(linalg_mod, name, spy(getattr(linalg_mod, name)))
        classical_numerical_radius(s * kernel_inputs)
    out["kernel classes"] = classes
    return out


@pytest.mark.per_family
@pytest.mark.parametrize("k", POW2_KS)
def test_verdicts_survive_power_of_two_scaling(monkeypatch, k):
    # each verdict at 2**k is the one at k = 0, or a named DomainError (read
    # as its name); the suite turns any warning into a failure
    base, scaled = _power_of_two_verdicts(0, monkeypatch), _power_of_two_verdicts(k, monkeypatch)
    assert base.keys() == scaled.keys()
    for key, value in scaled.items():
        assert value == base[key] or isinstance(value, str), (key, value, base[key])
    assert base["kernel classes"] == [[True, False, False, False, True], [True, False, False]]


def _times_pow2(x: float, e: Fraction) -> float | None:
    """``x * 2**e``, exact for an integer ``e``; ``None`` where it is not a normal float."""
    n = math.floor(e)
    y = x * 2.0 ** float(e - n)
    return math.ldexp(y, n) if -1021 < math.frexp(y)[1] + n < 1024 else None


@pytest.mark.per_family
@pytest.mark.parametrize("k", POW2_KS)
def test_operator_sides_follow_power_of_two_scaling(k):
    # scaling every matrix operand by 2**k scales each side by 2**(k d):
    # wherever both scaled sides are normal floats, to 1e-14 relative, with
    # the same hypothesis verdict; a DomainError only where one would not be
    for a_kind in ("dense_psd", "rank_deficient"):
        gen = GenSpec(dim=3, a_kind=a_kind, seed=7)
        for iid, degree in OPERATOR_DEGREES.items():
            chunk = fuzz_mod._draw(gen, [iid], range(2), None, False)[0]
            for i in range(2):
                ctx, ops, params = fuzz_mod._trial(chunk, i)
                base = evaluate_bound(ctx, iid, ops, params)
                e = k * Fraction(ops["r"] if degree is None else degree)
                want = [_times_pow2(side, e) for side in (base.lhs, base.rhs)]
                scaled = {n: v * 2.0**k if n[0].isupper() else v for n, v in ops.items()}
                try:
                    rep = evaluate_bound(ctx, iid, scaled, params)
                except DomainError:
                    assert None in want, (iid, i)
                    continue
                assert rep.hypotheses_ok == base.hypotheses_ok, (iid, i)
                for got, expected in zip((rep.lhs, rep.rhs), want):
                    if expected is not None:
                        assert got == pytest.approx(expected, rel=1e-14, abs=0.0), (iid, i)


# --------------------------------------------------------------------------
# cross-id consistency


def _random_pair(rng, n=3, rank=None):
    ctx = random_context(rng, n, rank)
    return ctx, cgauss(rng, n, n), cgauss(rng, n, n)


def test_cor_2_11_is_power_instance_of_thm_2_10(rng):
    for _ in range(20):
        ctx, x, y = _random_pair(rng)
        params = BoundParams(r=1.0 + rng.uniform(0.0, 1.5), lam=rng.uniform(0.1, 0.9))
        rep_c = check_matrix_bound(ctx, "cor_2_11", {"X": x, "Y": y}, params)
        rep_t = check_matrix_bound(ctx, "thm_2_10", {"X": x, "Y": y}, params)
        assert rep_c.rhs == pytest.approx(rep_t.rhs, abs=1e-10 * (1 + rep_t.rhs))
        assert rep_c.lhs == pytest.approx(rep_t.lhs, abs=1e-10 * (1 + rep_t.lhs))


def test_rem_2_12_is_midpoint_instance(rng):
    ctx, x, y = _random_pair(rng)
    rep_r = check_matrix_bound(ctx, "rem_2_12", {"X": x, "Y": y}, BoundParams())
    rep_t = check_matrix_bound(
        ctx, "thm_2_10", {"X": x, "Y": y}, BoundParams(r=1.0, lam=0.5)
    )
    assert rep_r.rhs == pytest.approx(rep_t.rhs, abs=1e-10 * (1 + rep_t.rhs))


#: Each block theorem, with the corollary it gives at equal blocks.
COROLLARIES = [
    ("moby_a1", "moby_a2"),
    ("ramadan1", "ramadan1_cor"),
    ("thm_beta", "mohd1"),
    ("thm_alpha", "alpha_cor"),
    ("prod1", "cor_prod"),
    ("prod2", "cor_prod_a"),
]
EQUAL_BLOCKS = {"X": "M", "Y": "M", "T1": "F", "T2": "F", "S1": "K", "S2": "K"}


@pytest.mark.parametrize("block_id, cor_id", COROLLARIES)
def test_corollary_is_its_block_theorem_at_equal_blocks(block_id, cor_id, rng):
    # [[0, M], [M, 0]] has the radius of M, and S* T for T = [[0, F], [F, 0]],
    # S = [[0, K], [K, 0]] is diag(K* F, K* F): the right sides coincide term
    # by term, the left sides up to rounding in the radius
    for a_kind in A_KINDS:
        for _ in range(10):
            spec = GenSpec(dim=3, a_kind=a_kind, seed=int(rng.integers(2**31)))
            ctx = gen_context(spec)
            ops = {
                name: gen_operator(ctx, replace(spec, seed=spec.seed + j))
                for j, name in enumerate(registry_entry(cor_id).operands, 1)
            }
            blocks = {b: ops[EQUAL_BLOCKS[b]] for b in registry_entry(block_id).operands}
            params = BoundParams(
                alpha=rng.uniform(0.6, 3.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)),
                beta=rng.uniform(0.0, 4.0),
                r=float(rng.choice([1.0, 1.25, 1.5, 2.0])),
            )
            rep_b = evaluate_bound(ctx, block_id, blocks, params)
            rep_c = evaluate_bound(ctx, cor_id, ops, params)
            assert rep_b.rhs == rep_c.rhs
            assert rep_b.lhs == pytest.approx(rep_c.lhs, rel=1e-12, abs=0.0)


def test_mix_al_be_alpha_two_matches_buzano_beta(rng):
    for _ in range(20):
        ctx = random_context(rng, 3)
        a, b, e = _vector_triple(rng, ctx)
        beta = rng.uniform(0.0, 3.0)
        rep_m = check_vector_lemma(
            ctx, "mix_al_be", a, b, e, BoundParams(alpha=2.0, beta=beta)
        )
        rep_b = check_vector_lemma(ctx, "buzano_beta", a, b, e, BoundParams(beta=beta))
        assert rep_m.rhs == pytest.approx(rep_b.rhs, abs=1e-12 * (1 + rep_b.rhs))
        assert rep_m.lhs == pytest.approx(rep_b.lhs, abs=1e-12 * (1 + rep_b.lhs))


def test_buz_beta_alpha_two_matches_ramadan_kareem(rng):
    for _ in range(20):
        ctx = random_context(rng, 3)
        a, b, e = _vector_triple(rng, ctx)
        beta = rng.uniform(0.0, 3.0)
        rep_r = check_vector_lemma(
            ctx, "ramadan_kareem", a, b, e, BoundParams(alpha=2.0, beta=beta)
        )
        rep_b = check_vector_lemma(ctx, "buz_beta", a, b, e, BoundParams(beta=beta))
        assert rep_b.rhs == pytest.approx(rep_r.rhs, abs=1e-12 * (1 + rep_r.rhs))


def test_kz_collapse_matches_college1_scaled(rng):
    # with all four blocks equal the full-matrix bound is exactly 16x the
    # single-operator corollary (both sides quartic in the doubled block);
    # modified_kz and modified_kz_cor are the same collapse at any mu
    for block_id, single_id in (("kz", "college1"), ("modified_kz", "modified_kz_cor")):
        for _ in range(10):
            ctx = random_context(rng, 3)
            m = cgauss(rng, 3, 3)
            params = BoundParams(
                alpha=2.0, beta=rng.uniform(0.0, 3.0), mu=rng.uniform(0.0, 1.0)
            )
            rep_kz = check_matrix_bound(
                ctx, block_id, {"F": m, "X": m, "Y": m, "K": m}, params
            )
            rep_c1 = check_single_operator_bound(ctx, single_id, m, params)
            assert rep_kz.rhs == pytest.approx(
                16.0 * rep_c1.rhs, abs=1e-9 * (1 + rep_kz.rhs)
            )
            assert rep_kz.lhs == pytest.approx(
                16.0 * rep_c1.lhs, abs=1e-9 * (1 + rep_kz.lhs)
            )


def test_collapsed_kz_right_sides_are_their_displays_exactly(rng):
    # the one-operator kz sides are the block's coefficients times 1/16, a
    # power of two, so they equal the corollaries as written to the last bit
    for _ in range(20):
        ctx = random_context(rng, int(rng.integers(2, 5)))
        m = cgauss(rng, ctx.dim, ctx.dim) * 10.0 ** rng.uniform(-3.0, 3.0)
        alpha = rng.uniform(0.6, 3.0) * np.exp(2j * np.pi * rng.uniform())
        params = BoundParams(alpha=alpha, beta=rng.uniform(0.0, 4.0), mu=rng.uniform())
        rep = check_single_operator_bound(ctx, "college1", m, params)
        i = rep.intermediates
        quart, quad, w_sq = i["norm_quartic"], i["norm_quad"], i["radius_sq"]
        assert rep.rhs == (
            (1.0 + 2.0 * i["chi_1"]) / 8.0 * quart
            + 0.25 * i["chi_2"] * quad * w_sq
            + 0.25 * (w_sq * w_sq)
        )
        rep = check_single_operator_bound(ctx, "modified_kz_cor", m, params)
        i, mu = rep.intermediates, params.mu
        assert rep.rhs == (
            (1.0 + i["chi_1"] + i["chi_3"]) / 8.0 * quart
            + (i["chi_2"] + mu * i["chi_4"]) / 8.0 * quad * w_sq
            + (1.0 + (1.0 - mu) * i["chi_4"]) / 4.0 * (w_sq * w_sq)
        )


def test_moby_a2_refines_quarter_bound(rng):
    # the alpha=2 single-operator right side never exceeds the plain
    # quarter-norm-squared form
    for _ in range(25):
        ctx = random_context(rng, 3)
        m = cgauss(rng, 3, 3)
        rep = check_single_operator_bound(
            ctx, "moby_a2", m, BoundParams(alpha=2.0, beta=1.0)
        )
        gram_sum = op_seminorm(
            ctx, a_adjoint(ctx, m) @ m + m @ a_adjoint(ctx, m)
        )
        assert rep.rhs <= 0.25 * gram_sum**2 + 1e-8 * (1 + gram_sum**2)


def test_alpha_cor_refines_half_norm_bound(rng):
    # at alpha=2, r=1 the right side sits below the plain half-norm form
    # (1/2)||M#M + MM#||, which itself dominates the squared radius
    for _ in range(25):
        ctx = random_context(rng, 3)
        m = cgauss(rng, 3, 3)
        rep = check_single_operator_bound(ctx, "alpha_cor", m, BoundParams(alpha=2.0))
        adj = a_adjoint(ctx, m)
        half_norm = 0.5 * op_seminorm(ctx, adj @ m + m @ adj)
        assert rep.lhs <= rep.rhs + 1e-9
        assert rep.rhs <= half_norm + 1e-9 * (1 + half_norm)
        w_sq = a_numerical_radius(ctx, m) ** 2
        assert w_sq <= half_norm + 1e-7 * (1 + half_norm)


def test_mohd1_beta_monotone_toward_limit(rng):
    # the beta derivative of the right side has one sign per operator
    # (n_r^2/8 vs w(M^2)^{2r}/2), so the curve is monotone either way and
    # flattens onto the quarter-square limit as beta grows
    for _ in range(10):
        ctx = random_context(rng, 3)
        m = cgauss(rng, 3, 3)
        reps = [
            check_single_operator_bound(ctx, "mohd1", m, BoundParams(beta=b))
            for b in (0.0, 1.0, 5.0)
        ]
        diffs = [reps[i + 1].rhs - reps[i].rhs for i in range(2)]
        assert min(diffs) >= -1e-10 or max(diffs) <= 1e-10
        limit = reps[-1].intermediates["limit_bound"]
        big = check_single_operator_bound(ctx, "mohd1", m, BoundParams(beta=1e9))
        assert big.rhs == pytest.approx(limit, rel=1e-6)
        for rep in reps:
            assert rep.lhs <= rep.rhs + 1e-8 * (1 + rep.rhs)


def test_power_2r_classical_instance(rng):
    # K = I over the identity weight: w(F) bounded via the Gram mean
    ctx = make_context(np.eye(3))
    for _ in range(10):
        f = cgauss(rng, 3, 3)
        rep = check_product_bound(
            ctx, "power_2r", {"F": f, "K": np.eye(3)}, BoundParams(r=1.0)
        )
        w = a_numerical_radius(ctx, f)
        assert rep.lhs == pytest.approx(w**2, abs=1e-8 * (1 + w**2))
        gram = f.conj().T @ f
        direct = 0.5 * np.linalg.norm(gram @ gram + np.eye(3), 2)
        assert rep.rhs == pytest.approx(direct, abs=1e-9 * (1 + direct))
        assert w**2 <= direct + 1e-8


# --------------------------------------------------------------------------
# fuzz-grade soundness (small, randomized; the big campaign lives in
# test_acceptance)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_operator_bounds_sound_on_random_draws(seed):
    rng = np.random.default_rng(seed)
    iid = str(rng.choice(MATRIX_IDS + SINGLE_IDS + PRODUCT_IDS))
    spec = GenSpec(
        dim=int(rng.integers(2, 5)),
        a_kind=str(rng.choice(("identity", "diagonal", "dense_psd", "rank_deficient"))),
        seed=seed,
    )
    ctx = gen_context(spec)
    entry = registry_entry(iid)
    ops = {k: gen_operator(ctx, spec) for k in entry.operands}
    params = BoundParams(r=2.0) if iid == "thm_2_16" else BoundParams()
    rep = evaluate_bound(ctx, iid, ops, params)
    if rep.hypotheses_ok:
        assert rep.rel_slack >= -1e-8, iid


# --------------------------------------------------------------------------
# optimizers


def test_optimizer_equal_norms_pinned(diag_ctx):
    lam, bound = optimize_refined_alpha_bound(
        diag_ctx, np.diag([1.0, 2.0]), np.diag([2.0, 1.0])
    )
    assert lam == 0.5
    assert bound == pytest.approx(2.0, abs=1e-12)


def test_optimizer_flat_at_unit_norms(identity_ctx):
    u, _ = np.linalg.qr(cgauss(np.random.default_rng(3), 3, 3))
    lam, bound = optimize_refined_alpha_bound(identity_ctx, u, u)
    assert bound == pytest.approx(1.0, abs=1e-10)


def test_optimizer_beats_dense_grid(rng):
    for _ in range(15):
        ctx = random_context(rng, 3)
        x, y = cgauss(rng, 3, 3), cgauss(rng, 3, 3)
        lam, bound = optimize_refined_alpha_bound(ctx, x, y)
        u = op_seminorm(ctx, x)
        v = op_seminorm(ctx, a_adjoint(ctx, y))
        grid = np.linspace(0.0, 1.0, 10_001)
        f = 0.5 * (u ** (2 * grid) + v ** (2 * (1 - grid)))
        assert bound <= float(np.min(f)) + 1e-9
        assert 0.0 <= lam <= 1.0


def test_optimizer_zero_operand_endpoint(identity_ctx):
    lam, bound = optimize_refined_alpha_bound(
        identity_ctx, np.zeros((3, 3)), np.eye(3)
    )
    assert bound <= 0.5 + 1e-12


def test_optimizer_is_the_dense_grid_minimum(identity_ctx, rng):
    # norms on both sides of 1, ties and norms of exactly 1: the closed-form
    # candidate compared against both endpoints is never above a dense
    # grid; a zero norm makes 0^(2t) jump at t = 0, so the better endpoint
    # is taken
    u = 10.0 ** rng.uniform(-3.0, 3.0, 60)
    v = 10.0 ** rng.uniform(-3.0, 3.0, 60)
    u[:5] = 0.0
    v[5:10] = 0.0
    v[10:15] = u[10:15]
    u[15:20] = 1.0
    grid = np.linspace(0.0, 1.0, 20_001)
    eye = np.eye(3)
    for a, b in zip(u, v):
        lam, bound = optimize_refined_alpha_bound(identity_ctx, a * eye, b * eye)
        f = 0.5 * (a ** (2 * grid) + b ** (2 * (1 - grid)))
        assert 0.0 <= lam <= 1.0
        if a == 0.0 or b == 0.0:
            assert bound == min(f[0], f[-1])
        else:
            assert bound <= float(np.min(f)) * (1.0 + 1e-12)
        assert bound == pytest.approx(0.5 * (a ** (2 * lam) + b ** (2 * (1 - lam))), rel=1e-14)


def test_critical_point_formula_cross_check(rng):
    # for norms above one the closed-form stationary point agrees with
    # golden section whenever it falls inside the unit interval
    for _ in range(25):
        u = float(rng.uniform(1.05, 4.0))
        v = float(rng.uniform(1.05, 4.0))
        t0 = refined_alpha_critical_point(u, v)
        if not 0.0 < t0 < 1.0:
            continue
        grid = np.linspace(0.0, 1.0, 200_001)
        f = 0.5 * (u ** (2 * grid) + v ** (2 * (1 - grid)))
        t_grid = float(grid[np.argmin(f)])
        assert t0 == pytest.approx(t_grid, abs=1e-4)


def test_optimizer_equal_norm_shortcut_is_relative(identity_ctx):
    # distinct norms far below 1 are no tie: the minimum is the dense grid's
    # (the shortcut would give t = 1/2 and 1.5 s); equal ones pin t = 1/2
    # at any scale
    eye = np.eye(3)
    s = 2.0**-66
    lam, bound = optimize_refined_alpha_bound(identity_ctx, s * eye, 2.0 * s * eye)
    grid = np.linspace(0.0, 1.0, 200_001)
    f = 0.5 * (s ** (2 * grid) + (2.0 * s) ** (2 * (1 - grid)))
    assert lam == pytest.approx(float(grid[np.argmin(f)]), abs=1e-4)
    assert bound == pytest.approx(float(np.min(f)), rel=1e-9)
    for scale in (1e-300, 2.0**-66, 1.0, 2.0**66, 1e300):
        u = op_seminorm(identity_ctx, scale * eye)
        assert optimize_refined_alpha_bound(identity_ctx, scale * eye, scale * eye) == (0.5, u)


def test_optimize_params_single_point_matches_direct(rng):
    ctx, x, y = _random_pair(rng)
    grid = ParamGrid(lams=(0.4,))
    rep = optimize_params(ctx, "thm_2_7", {"X": x, "Y": y}, grid)
    direct = check_matrix_bound(ctx, "thm_2_7", {"X": x, "Y": y}, BoundParams(lam=0.4))
    assert rep.rhs == pytest.approx(direct.rhs, abs=1e-12)


def test_optimize_params_is_the_per_combination_loop(rng):
    # 36 combinations, so more than one batch; a repeated beta makes ties
    ctx, x, y = _random_pair(rng, rank=2)
    ops = {"X": x, "Y": y}
    betas = (0.0, 0.5, 0.5, 1.0, 2.0, 4.0)
    rs = (1.0, 1.25, 1.5, 1.75, 2.0, 3.0)
    got = optimize_params(ctx, "ramadan1", ops, ParamGrid(betas=betas, rs=rs))
    best = None
    for beta in betas:
        for r in rs:
            rep = check_matrix_bound(ctx, "ramadan1", ops, BoundParams(beta=beta, r=r))
            if best is None or rep.rhs < best.rhs:
                best = rep
    assert got == best
    assert got.rhs == best.rhs and dict(got.intermediates) == dict(best.intermediates)


def test_optimize_params_matches_optimizer_on_equal_norms(diag_ctx):
    x = np.diag([1.0, 2.0])
    y = np.diag([2.0, 1.0])
    grid = ParamGrid(lams=tuple(np.linspace(0.0, 1.0, 21)))
    rep = optimize_params(diag_ctx, "thm_2_8", {"X": x, "Y": y}, grid)
    lam, bound = optimize_refined_alpha_bound(diag_ctx, x, y)
    assert rep.rhs == pytest.approx(bound, abs=1e-8)


def test_optimize_params_sweeps_lam_for_thm_2_7(rng):
    ctx, x, y = _random_pair(rng)
    grid = ParamGrid(lams=(0.1, 0.3, 0.5, 0.7, 0.9))
    rep = optimize_params(ctx, "thm_2_7", {"X": x, "Y": y}, grid)
    rhss = [
        check_matrix_bound(ctx, "thm_2_7", {"X": x, "Y": y}, BoundParams(lam=l)).rhs
        for l in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
    assert rep.rhs == pytest.approx(min(rhss), abs=1e-12)


def test_optimize_params_mohd1_endpoints(rng):
    ctx = random_context(rng, 3)
    m = cgauss(rng, 3, 3)
    betas = (0.0, 1.0, 2.0, 5.0)
    rep = optimize_params(ctx, "mohd1", {"M": m}, ParamGrid(betas=betas))
    # the right side is monotone in beta, so the winner is an endpoint and
    # matches the smallest direct evaluation
    assert rep.params.beta in (betas[0], betas[-1])
    direct = min(
        check_single_operator_bound(ctx, "mohd1", m, BoundParams(beta=b)).rhs
        for b in betas
    )
    assert rep.rhs == pytest.approx(direct, abs=1e-12)


def test_optimize_params_rejects_non_operator_ids(rng):
    ctx = random_context(rng, 3)
    with pytest.raises((DomainViolation, UnknownId)):
        optimize_params(ctx, "jensen", {}, ParamGrid())


# --------------------------------------------------------------------------
# dispatcher


def test_evaluate_bound_scalar_without_context():
    rep = evaluate_bound(None, "bohr", {"values": [1.0, 2.0]}, BoundParams(r=2.0))
    assert rep.rel_slack >= 0.0


def test_evaluate_bound_unknown_id(identity_ctx):
    with pytest.raises(UnknownId):
        evaluate_bound(identity_ctx, "not_a_bound", {}, BoundParams())


def test_evaluate_bound_missing_operand(identity_ctx):
    with pytest.raises(DomainViolation):
        evaluate_bound(identity_ctx, "thm_2_7", {"X": np.eye(3)}, BoundParams())


def test_evaluate_bound_dimension_mismatch(identity_ctx):
    with pytest.raises(Exception):
        evaluate_bound(
            identity_ctx,
            "thm_2_7",
            {"X": np.eye(2), "Y": np.eye(2)},
            BoundParams(),
        )


def test_thm_2_16_requires_pr_at_least_two(identity_ctx):
    ops = {"X": np.eye(3), "Y": np.eye(3)}
    with pytest.raises(DomainViolation):
        check_matrix_bound(identity_ctx, "thm_2_16", ops, BoundParams(r=1.0, p=3.0))
