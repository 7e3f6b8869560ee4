"""The four workloads of the aradius benchmark.

Each workload builds its inputs from the seed and returns a round: a fixed
list of operations that the runner repeats whole.  An operation carries a
cheap check of its own output, run after each call; ``verify`` runs the
costly checks (the independent oracle, closed forms) once, on the outputs
of the first round, and names the operations whose outputs are wrong.
Every call goes through the ``aradius`` package attributes at call time,
so the traced run can rebind them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import aradius
import oracle

#: Criterion 1's cells: dims 2-4 times the four weight kinds.
CAMPAIGN_DIMS = (2, 3, 4)
OPERATOR_KINDS = ("matrix", "single", "product", "special")
LEMMA_KINDS = ("vector", "scalar")
#: Trials per ``run_campaign`` call; one latency sample is a call over its
#: trials.  Criterion 1 makes 84 a call.  The lemmas keep that count; the
#: operator ids take 8, so that a round of all 300 calls lasts seconds,
#: not a minute.
#: ``run_campaign`` serializes each trial that is the sharpest so far,
#: about H(k)/k of k trials; traced, 8 trials a call put every layer's
#: share of the time within 0.015 of its share at 84 (see README.md).
OPERATOR_TRIALS = 8
LEMMA_TRIALS = 84
SLACK_FLOOR = -1e-8

REPLAY_DIMS = (2, 4, 8)
REPLAY_SEEDS = 3

PDE_COEFFS = (("constant", (1.0,), 0.0), ("one_plus_x2", (1.0, 0.0, 1.0), 1.0))
PDE_GRIDS = (15, 31, 63, 127)
PDE_SAMPLES = 100
PDE_ITERATIONS = 25

#: lhs = radius ** (c * r) when the flag is set, else radius ** c.
LHS_POWER = {
    "thm_2_7": (1, False),
    "thm_2_8": (1, False),
    "thm_2_10": (1, True),
    "cor_2_11": (1, True),
    "rem_2_12": (1, False),
    "moby_a1": (4, False),
    "ramadan1": (4, True),
    "thm_beta": (4, True),
    "thm_alpha": (2, True),
    "thm_2_16": (4, True),
    "kz": (4, False),
    "modified_kz": (4, False),
    "moby_a2": (4, False),
    "ramadan1_cor": (4, True),
    "mohd1": (4, True),
    "alpha_cor": (2, True),
    "college1": (4, False),
    "modified_kz_cor": (4, False),
    "prod1": (4, True),
    "prod2": (4, True),
    "cor_prod": (4, True),
    "cor_prod_a": (4, True),
    "power_2r": (2, True),
}


@dataclass(frozen=True)
class Op:
    """One operation of a round.

    ``weight`` is how many operations the call counts for (trials of a
    campaign call).  ``check`` returns an error message or ``None``;
    ``summary`` is compared across rounds, which must agree exactly.
    """

    key: str
    weight: int
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    summary: Callable[[Any], Any]


def _ids(kinds):
    return [i for i in aradius.registry_ids() if aradius.registry_entry(i).kind in kinds]


def _cells(seed):
    """Criterion 1's cell seeds, offset by the workload seed."""
    cells = []
    j = 0
    for dim in CAMPAIGN_DIMS:
        for kind in aradius.A_KINDS:
            cells.append(aradius.GenSpec(dim=dim, a_kind=kind, seed=seed + 17 * dim + j))
            j += 1
    return cells


def _cell_name(gen):
    return f"d{gen.dim}-{gen.a_kind}"


def _close(a, b, rtol, floor=1e-12):
    return abs(a - b) <= rtol * max(abs(a), abs(b), floor)


def _campaign_check(rep):
    if rep.violations:
        return f"{rep.violations} violation(s)"
    if rep.min_rel_slack is not None and rep.min_rel_slack < SLACK_FLOOR:
        return f"min relative slack {rep.min_rel_slack!r} below {SLACK_FLOOR}"
    return None


def _campaign_summary(rep):
    return (rep.violations, rep.skipped, rep.min_rel_slack, rep.mean_rel_slack)


class Campaign:
    """One trial of ``run_campaign`` per operation over criterion 1's cells."""


    def __init__(self, seed, kinds, trials):
        self.cells = _cells(seed)
        self.ids = _ids(kinds)
        self.seed = seed
        self.ops = [
            Op(
                key=f"{iid}@{_cell_name(gen)}",
                weight=trials,
                run=lambda iid=iid, gen=gen: aradius.run_campaign(
                    [iid], gen, trials, randomize_params=True
                )[0],
                check=_campaign_check,
                summary=_campaign_summary,
            )
            for gen in self.cells
            for iid in self.ids
        ]


class CampaignOperator(Campaign):
    def __init__(self, seed):
        super().__init__(seed, OPERATOR_KINDS, OPERATOR_TRIALS)

    def verify(self, outputs):
        """Recompute each sharpest case's radius (or pointwise lhs) with the oracle."""
        bad = {}
        for key, rep in outputs.items():
            if rep.sharpest_case is not None:
                err = check_case_lhs(rep.sharpest_case)
                if err:
                    bad[key] = err
        return bad


class CampaignLemma(Campaign):
    def __init__(self, seed):
        super().__init__(seed, LEMMA_KINDS, LEMMA_TRIALS)

    def verify(self, outputs):
        """The ``buz_half`` equality case ``b = a = c e + k``, ``k`` in ``ker A``."""
        bad = {}
        rng = np.random.default_rng([self.seed, 602])
        for gen in self.cells:
            ctx = aradius.gen_context(gen)
            v, _, kern = oracle.weight_split(ctx.a)
            for _ in range(5):
                e = v @ _cgauss(rng, v.shape[1])
                e = e / np.sqrt(np.vdot(e, ctx.a @ e).real)
                k = kern @ _cgauss(rng, kern.shape[1])
                a = complex(_cgauss(rng, 1)[0]) * e + k
                rep = aradius.check_vector_lemma(ctx, "buz_half", a, a, e)
                if abs(rep.slack) > 1e-9:
                    bad[f"buz_half@{_cell_name(gen)}"] = f"equality case slack {rep.slack!r}"
        return bad


class CaseReplay:
    """One ``replay()`` of a persisted sharpest case of any of the 36 ids."""

    def __init__(self, seed, out_dir: Path):
        ids = list(aradius.registry_ids())
        objs = []
        j = 0
        for s in range(REPLAY_SEEDS):
            for dim in REPLAY_DIMS:
                kind = aradius.A_KINDS[j % len(aradius.A_KINDS)]
                gen = aradius.GenSpec(dim=dim, a_kind=kind, seed=seed + 1000 * s + dim)
                reports = aradius.run_campaign(ids, gen, 1, randomize_params=True)
                objs += [aradius.campaign_to_obj(r) for r in reports]
                j += 1
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"cases-{seed}.json"
        path.write_text(json.dumps(objs), encoding="utf-8")
        cases = [
            obj["sharpest_case"]
            for obj in json.loads(path.read_text(encoding="utf-8"))
            if obj["sharpest_case"] is not None
        ]
        self.cases = {
            f"{c['inequality_id']}@{len(c['weight']['data'])}-{c['seed']}-{i}": c
            for i, c in enumerate(cases)
        }
        self.ops = [
            Op(
                key=key,
                weight=1,
                run=lambda c=c: aradius.replay(c),
                check=lambda rep, c=c: _replay_check(rep, c),
                summary=lambda rep: (rep.lhs, rep.rhs),
            )
            for key, c in self.cases.items()
        ]

    def verify(self, outputs):
        """Recompute, with the oracle, the lhs of each operator case that replayed."""
        bad = {}
        for key in outputs:
            case = self.cases[key]
            if aradius.registry_entry(case["inequality_id"]).kind in OPERATOR_KINDS:
                err = check_case_lhs(case)
                if err:
                    bad[key] = err
        return bad


def _replay_check(rep, case):
    for side in ("lhs", "rhs"):
        got, stored = getattr(rep, side), case[side]
        if abs(got - stored) > 1e-12 * max(1.0, abs(stored)):
            return f"replayed {side} {got!r} differs from stored {stored!r}"
    return None


class PdeRefinement:
    """``stability_report`` and Jacobi ``preconditioner_report`` on refined grids."""


    def __init__(self, seed):
        self.seed = seed
        self.specs = {}
        self.ops = []
        for name, coeff_a, coeff_c in PDE_COEFFS:
            for n in PDE_GRIDS:
                spec = aradius.EllipticSpec(n_points=n, coeff_a=coeff_a, coeff_c=coeff_c)
                self.specs[(name, n)] = spec
                t_h, _ = aradius.assemble_fd(spec)
                lam_min = float(np.linalg.eigvalsh(t_h)[0])
                m = np.eye(n) - t_h / np.diag(t_h)[:, None]
                rho_m = float(np.max(np.abs(np.linalg.eigvals(m))))
                self.ops.append(
                    Op(
                        key=f"stability@{name}-{n}",
                        weight=1,
                        run=lambda spec=spec: aradius.stability_report(
                            spec, samples=PDE_SAMPLES, seed=seed
                        ),
                        check=lambda rep, lam=lam_min: _stability_check(rep, lam),
                        summary=lambda rep: (rep.lhs, rep.rhs, tuple(rep.intermediates.values())),
                    )
                )
                self.ops.append(
                    Op(
                        key=f"jacobi@{name}-{n}",
                        weight=1,
                        run=lambda spec=spec: aradius.preconditioner_report(
                            spec, "jacobi", PDE_ITERATIONS, seed
                        ),
                        check=lambda rep, rho=rho_m: _jacobi_check(rep, rho),
                        summary=lambda rep: (rep.rho, rep.seminorm_m, rep.error_ratios),
                    )
                )

    def verify(self, outputs):
        """Closed-form eigenvalues of the constant problem and the consistency order."""
        bad = {}
        for (name, n), spec in self.specs.items():
            if name != "constant":
                continue
            t_h, _ = aradius.assemble_fd(spec)
            got = np.linalg.eigvalsh(t_h * spec.h**2)
            expect = np.sort(2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
            err = float(np.max(np.abs(got - expect)))
            if err > 1e-10:
                for kind in ("stability", "jacobi"):
                    bad[f"{kind}@{name}-{n}"] = f"h^2 T_h eigenvalues off by {err:.3e}"
        for name, _, _ in PDE_COEFFS:
            order = aradius.consistency_order(self.specs[(name, PDE_GRIDS[1])], levels=3)
            if not 1.7 <= order <= 2.3:
                for n in PDE_GRIDS:
                    bad[f"stability@{name}-{n}"] = f"consistency order {order!r}"
        return bad


def _stability_check(rep, lam_min):
    inter = rep.intermediates
    w = inter["radius_inverse"]
    norm = inter["seminorm_inverse"]
    if rep.lhs > rep.rhs * (1.0 + 1e-10):
        return f"sampled amplification {rep.lhs!r} above the inverse seminorm {rep.rhs!r}"
    if not (1.0 / lam_min) * (1.0 - 1e-9) <= w <= norm * (1.0 + 1e-9):
        return f"radius {w!r} outside [1/lambda_min, seminorm] = [{1.0 / lam_min!r}, {norm!r}]"
    if w < inter["radius_inverse_sampled"] * (1.0 - 1e-10):
        return f"radius {w!r} below its sampled lower bound {inter['radius_inverse_sampled']!r}"
    return None


def _jacobi_check(rep, rho_m):
    if not rho_m * (1.0 - 1e-9) <= rep.rho <= rep.seminorm_m * (1.0 + 1e-9):
        return f"radius {rep.rho!r} outside [spectral radius, seminorm] = [{rho_m!r}, {rep.seminorm_m!r}]"
    if rep.rho < 0.5 * rep.seminorm_m * (1.0 - 1e-9):
        return f"radius {rep.rho!r} below half the seminorm {rep.seminorm_m!r}"
    return None


# -- independent recomputation of a persisted case's left side ------------


def _cgauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _decode(obj):
    data = np.asarray(obj["data"], dtype=float)
    return data[..., 0] + 1j * data[..., 1]


def _antidiag(x, y):
    zero = np.zeros_like(x)
    return np.block([[zero, x], [y, zero]])


def _radius_operand(iid, a, ops):
    """The weight and ambient operator whose A-radius the lhs of ``iid`` is a power of."""
    kind = aradius.registry_entry(iid).kind
    if kind == "matrix":
        if iid in ("kz", "modified_kz"):
            block = np.block([[ops["F"], ops["X"]], [ops["Y"], ops["K"]]])
        else:
            block = _antidiag(ops["X"], ops["Y"])
        return oracle.block_diag(a), block
    if kind == "single":
        return a, ops["M"]
    if iid in ("prod1", "prod2"):
        a2 = oracle.block_diag(a)
        tt = _antidiag(ops["T1"], ops["T2"])
        ss = _antidiag(ops["S1"], ops["S2"])
        return a2, oracle.pinv_weight(a2) @ ss.conj().T @ a2 @ tt
    k_adj = oracle.pinv_weight(a) @ ops["K"].conj().T @ a
    return a, k_adj @ ops["F"]


def _pointwise_lhs(iid, a, ops):
    t = ops["T"]
    if iid == "mixed_schwarz":
        x, y = ops["x"].reshape(-1), ops["y"].reshape(-1)
        return abs(np.vdot(y, a @ t @ x))
    # holder_mccarthy: <Tx, x>_A ** r against <T^r x, x>_A, reduced to ran(A)
    x, r = ops["x"].reshape(-1), ops["r"]
    v, lam, _ = oracle.weight_split(a)
    tilde = oracle.reduce(a, t)
    vals, vecs = np.linalg.eigh(0.5 * (tilde + tilde.conj().T))
    powered_vals = np.where(vals > 0.0, np.abs(vals) ** r, 0.0)
    xr = np.sqrt(lam) * (v.conj().T @ x)
    base = max(np.vdot(xr, (vecs * vals) @ vecs.conj().T @ xr).real, 0.0)
    powered = np.vdot(xr, (vecs * powered_vals) @ vecs.conj().T @ xr).real
    return base**r if r >= 1.0 else powered


def check_case_lhs(case):
    """Error message when the case's lhs disagrees with the oracle, else ``None``.

    For radius bounds the radius ``lhs ** (1/power)`` must match the
    oracle's to 1e-6 relative, and both must lie in ``[||T~|| / 2, ||T~||]``.
    """
    iid = case["inequality_id"]
    a = _decode(case["weight"])
    ops = {
        k: (float(v) if isinstance(v, (int, float)) else _decode(v))
        for k, v in case["operands"].items()
    }
    if iid not in LHS_POWER:
        lhs = _pointwise_lhs(iid, a, ops)
        if not _close(lhs, case["lhs"], 1e-6):
            return f"lhs {case['lhs']!r} against oracle {lhs!r}"
        return None
    c, with_r = LHS_POWER[iid]
    power = c * case["params"]["r"] if with_r else c
    weight, op = _radius_operand(iid, a, ops)
    tilde = oracle.reduce(weight, op)
    w_oracle = oracle.radius(tilde)
    w_pkg = case["lhs"] ** (1.0 / power)
    if not _close(w_pkg, w_oracle, 1e-6):
        return f"radius {w_pkg!r} against oracle {w_oracle!r}"
    norm = float(np.linalg.norm(tilde, 2))
    for w in (w_pkg, w_oracle):
        if not 0.5 * norm * (1.0 - 1e-9) - 1e-12 <= w <= norm * (1.0 + 1e-9) + 1e-12:
            return f"radius {w!r} outside [norm/2, norm] with norm {norm!r}"
    return None


def build(name, seed, out_dir: Path):
    if name == "campaign-operator":
        return CampaignOperator(seed)
    if name == "campaign-lemma":
        return CampaignLemma(seed)
    if name == "case-replay":
        return CaseReplay(seed, out_dir)
    if name == "pde-refinement":
        return PdeRefinement(seed)
    raise ValueError(f"unknown workload {name!r}")
