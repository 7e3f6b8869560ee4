"""Campaign reports pinned to recorded digests.

Every trial's weight, parameters and operands are pure functions of
``(seed, id, trial, stream, index)``, so how a campaign batches its draws
must change no report.  The fixture holds, per report, a sha256 prefix of
``json.dumps`` of its ``campaign_to_obj`` (every persisted case included):
all 36 ids on dims 2 and 4 x the four weight kinds x seeds 9000 and 4242,
and the vector lemmas on one criterion-6 cell.

Two things change the last bits of a report with the CPU.  LAPACK results
differ between BLAS kernels, and numpy's bundled OpenBLAS picks its
kernels by CPU.  The digests were recorded with numpy 2.4.6 and the
OpenBLAS it bundles; another numpy release may bundle other kernels.  numpy's float64 ``log``, ``exp`` and ``power`` differ
between its SIMD dispatch levels (the draws use none of them).  So the
fixture holds one set of digests per kernel family, each a full run
recorded with numpy's dispatch matched to that family's CPUs:

- ``SkylakeX`` (AVX-512 CPUs): numpy's default dispatch;
- ``Haswell`` (AVX2 CPUs; OpenBLAS runs its ``Zen`` kernels to the same
  bits): ``NPY_DISABLE_CPU_FEATURES=X86_V4``;
- ``SandyBridge`` (AVX) and ``Prescott`` (SSE3):
  ``NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4"``.

The reports must match one set in full.  When ``OPENBLAS_CORETYPE`` names
a recorded family, that family's set; otherwise the closest set.  A
mismatch names the reports that moved against it.  The recorder draws
and evaluates every trial alone (chunks of one trial, one id per pass),
while the test runs campaigns as they batch, so a match also shows that
batching changes no report.  To record a set, run this module as a
script with both variables set for the family::

    NPY_DISABLE_CPU_FEATURES=X86_V4 OPENBLAS_CORETYPE=Haswell \
        PYTHONPATH=src python3 tests/test_draw_streams.py Haswell
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

import aradius.fuzz as fuzz
from aradius import (
    A_KINDS,
    GenSpec,
    campaign_to_obj,
    registry_entry,
    registry_ids,
    run_campaign,
)

#: every test here holds per kernel family, so CI runs them under each
pytestmark = pytest.mark.per_family

FIXTURE = Path(__file__).parent / "data" / "draw_streams.json"
GRID_DIMS = (2, 4)
GRID_SEEDS = (9000, 4242)
GRID_TRIALS = 2
#: Criterion 6's rank-deficient cell, its first three chunks and a part.
C6_CELL = GenSpec(dim=4, a_kind="rank_deficient", seed=6003)
C6_TRIALS = 100
#: numpy's ``NPY_DISABLE_CPU_FEATURES`` of each recorded kernel family.
DISPATCH = {
    "SkylakeX": "",
    "Haswell": "X86_V4",
    "SandyBridge": "X86_V3 X86_V4",
    "Prescott": "X86_V3 X86_V4",
}


def _digest(rep) -> str:
    return hashlib.sha256(json.dumps(campaign_to_obj(rep)).encode()).hexdigest()[:16]


def _digests() -> dict:
    out = {}
    ids = list(registry_ids())
    for dim in GRID_DIMS:
        for kind in A_KINDS:
            for seed in GRID_SEEDS:
                gen = GenSpec(dim=dim, a_kind=kind, seed=seed)
                for rep in run_campaign(ids, gen, GRID_TRIALS, randomize_params=True):
                    out[f"{rep.inequality_id} {dim} {kind} {seed}"] = _digest(rep)
    vector_ids = [i for i in ids if registry_entry(i).kind == "vector"]
    for rep in run_campaign(vector_ids, C6_CELL, C6_TRIALS, randomize_params=True):
        out[f"{rep.inequality_id} criterion-6"] = _digest(rep)
    return out


def test_campaign_reports_match_the_recorded_digests():
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = _digests()
    moved = {
        family: sorted(key for key, want in sets.items() if got.get(key) != want)
        for family, sets in recorded.items()
    }
    closest = os.environ.get("OPENBLAS_CORETYPE")
    if closest not in recorded:
        closest = min(moved, key=lambda family: len(moved[family]))
    assert set(got) == set(recorded[closest])
    assert not moved[closest], (
        f"reports moved against {closest} (recorded with NPY_DISABLE_CPU_FEATURES="
        f"{DISPATCH.get(closest)!r}): {moved[closest]}"
    )


@pytest.mark.parametrize("dim,a_kind", [(1, "diagonal"), (2, "rank_deficient"), (4, "dense_psd")])
def test_campaign_reports_do_not_depend_on_the_pass_budget(monkeypatch, dim, a_kind):
    # all 36 ids, every trial drawn and evaluated alone against the default
    # passes, which stack up to 2**13 / dim**2 trials: the count makes the
    # ids overflow one pass.  A SIMD tail inside a longer stack is where a
    # result would depend on its place
    ids = list(registry_ids())
    trials = fuzz._CHUNK_ENTRIES // dim**2 // len(ids) + 1
    gen = GenSpec(dim=dim, a_kind=a_kind, seed=9000 + dim)
    passes = run_campaign(ids, gen, trials, randomize_params=True)
    monkeypatch.setattr(fuzz, "_CHUNK_ENTRIES", 1)
    alone = run_campaign(ids, gen, trials, randomize_params=True)
    assert [_digest(rep) for rep in passes] == [_digest(rep) for rep in alone]


if __name__ == "__main__":
    family = sys.argv[1]
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    if disabled != DISPATCH[family].split():
        sys.exit(f"record {family} with NPY_DISABLE_CPU_FEATURES={DISPATCH[family]!r}")
    fuzz._CHUNK_ENTRIES = 1  # one trial a pass
    sets = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    sets[family] = _digests()
    FIXTURE.write_text(json.dumps(sets, indent=1, sort_keys=True) + "\n", encoding="utf-8")
