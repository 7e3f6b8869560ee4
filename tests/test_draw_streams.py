"""Campaign reports pinned to values recorded before draws were stacked.

Every trial draws its weight, parameters and operands from its own random
streams, so how a campaign batches its draws must change no report.  The
fixture holds, per report, a sha256 prefix of ``json.dumps`` of its
``campaign_to_obj`` (every persisted case included): all 36 ids on dims
2 and 4 x the four weight kinds x seeds 9000 and 4242, and the vector
lemmas on one criterion-6 cell.

LAPACK results differ in their last bits between BLAS kernels, and numpy's
bundled OpenBLAS picks its kernels by CPU.  So the fixture holds one set of
digests per kernel family, each a full run, and the reports must match
one set in full: ``SkylakeX`` (AVX-512 CPUs), ``Haswell`` (AVX2 CPUs;
OpenBLAS runs its ``Zen`` kernels to the same bits), ``SandyBridge`` (AVX)
and ``Prescott`` (SSE3).  When ``OPENBLAS_CORETYPE`` names a recorded
family, the reports must match that family's set; otherwise the closest
set.  A mismatch names the reports that moved against it.  To record a
set, run this module as a script with ``OPENBLAS_CORETYPE`` naming the
kernel family::

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python3 tests/test_draw_streams.py Haswell
"""

import hashlib
import json
import os
import sys
from pathlib import Path

from aradius import (
    A_KINDS,
    GenSpec,
    campaign_to_obj,
    registry_entry,
    registry_ids,
    run_campaign,
)

FIXTURE = Path(__file__).parent / "data" / "draw_streams.json"
GRID_DIMS = (2, 4)
GRID_SEEDS = (9000, 4242)
GRID_TRIALS = 2
#: Criterion 6's rank-deficient cell, its first three chunks and a part.
C6_CELL = GenSpec(dim=4, a_kind="rank_deficient", seed=6003)
C6_TRIALS = 100


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
    assert not moved[closest], f"reports moved against {closest}: {moved[closest]}"


if __name__ == "__main__":
    sets = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    sets[sys.argv[1]] = _digests()
    FIXTURE.write_text(json.dumps(sets, indent=1, sort_keys=True) + "\n", encoding="utf-8")
