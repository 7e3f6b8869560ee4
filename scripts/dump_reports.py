#!/usr/bin/env python3
"""Every report of all 36 registry ids on a fixed grid, as exact JSON.

The grid is dims 2-4 x the four weight kinds x the operator kinds
``dense``, ``a_selfadjoint`` and ``a_positive`` x seeds 9000 and 4242 x 8
trials with randomized parameters.  Trials are drawn and evaluated as a
campaign draws and evaluates them, one stacked chunk of 8 evaluated per
weight rank, and each trial's report is built from its column of the
chunk's per-trial arrays.  Each report is written whole, every
intermediate included, with floats as ``float.hex`` and keys sorted; a
trial that is not evaluated (its arrays hold NaN) is written as
``null``.  So a ``diff`` of the outputs of two source trees shows every
number that moved:

    PYTHONPATH=src python3 scripts/dump_reports.py > reports.json
"""

import json
import sys

import numpy as np

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


def main():
    out = {}
    for iid in registry_ids():
        for dim in DIMS:
            for a_kind in A_KINDS:
                for t_kind in T_KINDS:
                    for seed in SEEDS:
                        gen = GenSpec(dim=dim, a_kind=a_kind, t_kind=t_kind, seed=seed)
                        chunk = _draw(gen, [iid], range(TRIALS), None, True)[0]
                        sides, inter = _evaluate_chunk(iid, chunk)
                        for k, (lhs, rhs, _, hyp) in enumerate(sides.T):
                            rep = None
                            if not np.isnan(hyp):
                                row = {name: value[k] for name, value in inter.items()}
                                params = _trial_params(chunk[2], k)
                                rep = _exact(report_to_obj(_report(iid, lhs, rhs, row, hyp, params)))
                            out[f"{iid} {dim} {a_kind} {t_kind} {seed} {k}"] = rep
    json.dump(out, sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
