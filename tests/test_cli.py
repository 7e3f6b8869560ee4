"""End-to-end command-line tests.

Every invocation goes through ``cli.main(argv)`` in process so exit
codes and stdout/stderr can be asserted directly; one subprocess smoke
test covers the ``python -m`` entry point.  CLI results must equal the
direct library calls on identical inputs.
"""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import aradius.cli as cli_mod
from aradius import (
    BoundParams,
    CampaignReport,
    a_abs_power,
    a_numerical_radius,
    evaluate_bound,
    make_context,
)
from aradius.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNKNOWN_ID,
    EXIT_VIOLATION,
    main,
)
from aradius.matio import complex_from_pairs, save_matrix

from conftest import cgauss

A_DIAG = np.diag([1.0, 2.0]).astype(complex)
X_DIAG = np.diag([1.0, 2.0]).astype(complex)
Y_DIAG = np.diag([2.0, 1.0]).astype(complex)


@pytest.fixture
def diag_files(tmp_path):
    paths = {}
    for name, mat in (("A", A_DIAG), ("X", X_DIAG), ("Y", Y_DIAG)):
        p = tmp_path / f"{name}.json"
        save_matrix(p, name, mat)
        paths[name] = str(p)
    return paths


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# --------------------------------------------------------------------------
# compute


def test_compute_radius_matches_library(capsys, diag_files):
    code, out = run_json(
        capsys, ["compute", "radius", diag_files["A"], diag_files["X"]]
    )
    assert code == EXIT_OK
    ctx = make_context(A_DIAG)
    assert out["value"] == pytest.approx(
        a_numerical_radius(ctx, X_DIAG), abs=1e-12
    )
    assert out["value"] == pytest.approx(2.0, abs=1e-8)
    assert out["rank"] == 2
    assert "tol" not in out


def test_compute_seminorm(capsys, diag_files):
    code, out = run_json(
        capsys, ["compute", "seminorm", diag_files["A"], diag_files["Y"]]
    )
    assert code == EXIT_OK
    assert out["value"] == pytest.approx(2.0, abs=1e-10)


def test_compute_adjoint(capsys, diag_files):
    code, out = run_json(
        capsys, ["compute", "adjoint", diag_files["A"], diag_files["Y"]]
    )
    assert code == EXIT_OK
    got = complex_from_pairs(out["matrix"]["data"])
    # diag(1,2)-adjoint of diag(2,1) is diag(2,1) itself
    assert np.allclose(got, Y_DIAG, atol=1e-12)


def test_compute_abs_power(capsys, diag_files):
    code, out = run_json(
        capsys,
        ["compute", "abs_power", diag_files["A"], diag_files["X"], "--power", "2"],
    )
    assert code == EXIT_OK
    got = complex_from_pairs(out["matrix"]["data"])
    ctx = make_context(A_DIAG)
    assert np.allclose(got, a_abs_power(ctx, X_DIAG, 2.0), atol=1e-12)


def test_compute_missing_file(tmp_path, capsys, diag_files):
    code = main(["compute", "radius", diag_files["A"], str(tmp_path / "nope.json")])
    assert code == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# check


def test_check_diagonal_example(capsys, diag_files):
    code, out = run_json(
        capsys,
        ["check", "thm_2_8", diag_files["A"], diag_files["X"], diag_files["Y"]],
    )
    assert code == EXIT_OK
    assert out["inequality_id"] == "thm_2_8"
    assert out["rhs"] == pytest.approx(2.0, abs=1e-10)
    assert out["lhs"] <= 2.0 + 1e-8
    assert out["hypotheses_ok"] is True


def test_check_matches_library(capsys, diag_files):
    code, out = run_json(
        capsys,
        [
            "check",
            "thm_2_10",
            diag_files["A"],
            diag_files["X"],
            diag_files["Y"],
            "--r",
            "2",
            "--lam",
            "0.25",
        ],
    )
    assert code == EXIT_OK
    ctx = make_context(A_DIAG)
    rep = evaluate_bound(
        ctx,
        "thm_2_10",
        {"X": X_DIAG, "Y": Y_DIAG},
        BoundParams(r=2.0, lam=0.25),
    )
    assert out["lhs"] == pytest.approx(rep.lhs, abs=1e-12)
    assert out["rhs"] == pytest.approx(rep.rhs, abs=1e-12)


def test_check_zero_operators(tmp_path, capsys, diag_files):
    z = tmp_path / "Z.json"
    save_matrix(z, "Z", np.zeros((2, 2), dtype=complex))
    code, out = run_json(
        capsys, ["check", "thm_2_8", diag_files["A"], str(z), str(z)]
    )
    assert code == EXIT_OK
    assert out["lhs"] == 0.0 and out["rhs"] == 0.0 and out["slack"] == 0.0


def test_check_scalar_values(capsys):
    code, out = run_json(
        capsys, ["check", "bohr", "--values", "1,2,3", "--r", "2"]
    )
    assert code == EXIT_OK
    assert out["lhs"] == pytest.approx(36.0)
    assert out["rhs"] == pytest.approx(42.0)


def test_check_scalar_requires_values(capsys):
    assert main(["check", "jensen"]) == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_check_bad_values_list(capsys):
    assert main(["check", "bohr", "--values", "1,zap"]) == EXIT_PARSE


def test_check_non_finite_values_are_a_domain_error(capsys):
    assert main(["check", "jensen", "--values", "nan,1"]) == EXIT_DOMAIN
    assert main(["check", "bohr", "--values", "inf,1"]) == EXIT_DOMAIN
    assert capsys.readouterr().out == ""


def test_check_wrong_operand_count(capsys, diag_files):
    code = main(["check", "thm_2_8", diag_files["A"], diag_files["X"]])
    assert code == EXIT_PARSE
    assert "operand file" in capsys.readouterr().err


def test_check_corrupt_matrix_file(tmp_path, capsys, diag_files):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["check", "thm_2_8", diag_files["A"], str(bad), diag_files["Y"]])
    assert code == EXIT_PARSE


def test_check_unknown_id_lists_registry(capsys, diag_files):
    code = main(["check", "thm_9_9", diag_files["A"]])
    assert code == EXIT_UNKNOWN_ID
    err = capsys.readouterr().err
    assert "valid ids" in err and "thm_2_10" in err


def test_check_domain_error(capsys, diag_files):
    code = main(
        [
            "check",
            "thm_2_10",
            diag_files["A"],
            diag_files["X"],
            diag_files["Y"],
            "--r",
            "0.5",
        ]
    )
    assert code == EXIT_DOMAIN


def test_check_holder_mccarthy_takes_r_operand(tmp_path, capsys):
    rng = np.random.default_rng(5)
    g = cgauss(rng, 3, 3)
    t = g @ g.conj().T / 3.0
    x = cgauss(rng, 3)
    x = x / np.linalg.norm(x)  # the lemma wants a unit vector
    a_p = tmp_path / "a.json"
    t_p = tmp_path / "t.json"
    x_p = tmp_path / "x.json"
    save_matrix(a_p, "A", np.eye(3, dtype=complex))
    save_matrix(t_p, "T", t)
    save_matrix(x_p, "x", x.reshape(-1, 1))
    code, out = run_json(
        capsys,
        ["check", "holder_mccarthy", str(a_p), str(t_p), str(x_p), "--r", "1.5"],
    )
    assert code == EXIT_OK
    assert out["hypotheses_ok"] is True
    assert out["slack"] >= -1e-10


def test_check_violation_exit_code(capsys, diag_files, monkeypatch):
    real = cli_mod.evaluate_bound

    def sabotage(ctx, iid, operands, params):
        rep = real(ctx, iid, operands, params)
        return dataclasses.replace(rep, rel_slack=-1.0, hypotheses_ok=True)

    monkeypatch.setattr(cli_mod, "evaluate_bound", sabotage)
    code = main(
        ["check", "thm_2_10", diag_files["A"], diag_files["X"], diag_files["Y"]]
    )
    assert code == EXIT_VIOLATION


# --------------------------------------------------------------------------
# fuzz


def test_fuzz_single_id(capsys):
    code, out = run_json(
        capsys, ["fuzz", "thm_2_10", "--trials", "5", "--seed", "3", "--dim", "2"]
    )
    assert code == EXIT_OK
    assert len(out) == 1
    assert out[0]["inequality_id"] == "thm_2_10"
    assert out[0]["trials"] == 5
    assert out[0]["violations"] == 0


def test_fuzz_out_file_deterministic(tmp_path, capsys):
    f1, f2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    argv = ["fuzz", "kz", "college1", "--trials", "4", "--seed", "9", "--dim", "3"]
    assert main(argv + ["--out", f1]) == EXIT_OK
    assert main(argv + ["--out", f2]) == EXIT_OK
    with open(f1, "rb") as fh1, open(f2, "rb") as fh2:
        assert fh1.read() == fh2.read()
    capsys.readouterr()  # --out keeps stdout empty of the payload
    with open(f1, encoding="utf-8") as fh:
        reports = json.load(fh)
    assert [r["inequality_id"] for r in reports] == ["kz", "college1"]


def test_fuzz_all_expands_registry(capsys):
    from aradius import registry_ids

    code, out = run_json(
        capsys, ["fuzz", "all", "--trials", "1", "--seed", "1", "--dim", "2"]
    )
    assert code == EXIT_OK
    assert [r["inequality_id"] for r in out] == list(registry_ids())
    assert all(r["violations"] == 0 for r in out)


def test_fuzz_unknown_id(capsys):
    assert main(["fuzz", "zorp", "--trials", "1"]) == EXIT_UNKNOWN_ID


def test_fuzz_bad_dim(capsys):
    assert main(["fuzz", "thm_2_10", "--dim", "0", "--trials", "1"]) == EXIT_DOMAIN


def test_fuzz_negative_seed_names_the_seed(capsys):
    assert main(["fuzz", "thm_2_10", "--seed", "-1", "--trials", "1"]) == EXIT_DOMAIN
    assert "seed must be a nonnegative integer" in capsys.readouterr().err


def test_fuzz_violation_exit_code(capsys, monkeypatch):
    def fake_run(ids, gen, trials, params=None, randomize_params=False):
        return [
            CampaignReport(
                inequality_id=ids[0],
                trials=trials,
                violations=2,
                min_rel_slack=-0.5,
                mean_rel_slack=-0.1,
                sharpest_case=None,
                seed=gen.seed,
            )
        ]

    monkeypatch.setattr(cli_mod, "run_campaign", fake_run)
    assert main(["fuzz", "thm_2_10", "--trials", "3"]) == EXIT_VIOLATION
    capsys.readouterr()


# --------------------------------------------------------------------------
# audit


def test_audit_exits_zero_and_tabulates(capsys):
    assert main(["audit"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "example" in out and "quantity" in out and "agrees" in out
    # reported arithmetic that checks out and reported arithmetic that does
    # not are both present by design
    assert "yes" in out
    assert "DISAGREES" in out
    assert "block radius" in out
    assert "delta_1" in out


def test_audit_block_radius_row_records_oracle_value():
    from aradius.audit import audit_rows

    rows = [
        r
        for r in audit_rows()
        if r["example"] == "diagonal" and r["quantity"] == "block radius"
    ]
    assert len(rows) == 1
    assert rows[0]["claimed"] == "2"
    assert float(rows[0]["computed"]) == pytest.approx(1.5, abs=1e-6)
    assert rows[0]["agrees"] is False


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "aradius", "audit"],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 0
    assert "DISAGREES" in proc.stdout
