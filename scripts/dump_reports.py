#!/usr/bin/env python3
"""Every report of all 36 registry ids on a fixed grid, as exact JSON.

The grid is dims 2-4 x the four weight kinds x the operator kinds
``dense``, ``a_selfadjoint`` and ``a_positive`` x seeds 9000 and 4242 x 8
trials with randomized parameters.  Trials are drawn and evaluated as a
campaign draws and evaluates them, one stacked chunk of 8 evaluated per
weight rank, and each trial's report is built from the entries the
stacked core gives it.  Each report is written
whole, every intermediate included, with floats as ``float.hex`` and keys
sorted; a trial whose evaluation raises is written as ``null``.  So a
``diff`` of the outputs of two source trees shows every number that moved:

    PYTHONPATH=src python3 scripts/dump_reports.py > reports.json
"""

import json
import sys

from aradius import A_KINDS, GenSpec, registry_ids
from aradius.fuzz import _draw, _evaluate_chunk
from aradius.inequalities import _report, _trial_params
from aradius.matio import report_to_obj

DIMS = (2, 3, 4)
T_KINDS = ("dense", "a_selfadjoint", "a_positive")
SEEDS = (9000, 4242)
TRIALS = 8


def _exact(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_exact(v) for v in value]
    return value


def _report_of(iid, chunk, one, j, k):
    """Trial ``k``'s report from row ``j`` of the stacked core's result ``one``."""
    lhs, rhs, _, hyp, inter = one
    row = {name: value[j] for name, value in inter.items()}
    return _report(iid, lhs[j], rhs[j], row, hyp[j], _trial_params(chunk[2], k))


def main():
    out = {}
    for iid in registry_ids():
        for dim in DIMS:
            for a_kind in A_KINDS:
                for t_kind in T_KINDS:
                    for seed in SEEDS:
                        gen = GenSpec(dim=dim, a_kind=a_kind, t_kind=t_kind, seed=seed)
                        chunk = _draw(gen, [iid], range(TRIALS), None, True)[0]
                        for idx, one in _evaluate_chunk(iid, chunk):
                            for j, k in enumerate(idx):
                                rep = one and _report_of(iid, chunk, one, j, k)
                                key = f"{iid} {dim} {a_kind} {t_kind} {seed} {k}"
                                out[key] = rep and _exact(report_to_obj(rep))
    json.dump(out, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
