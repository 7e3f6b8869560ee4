#!/usr/bin/env python3
"""Full-registry soundness campaign across weight kinds and dimensions.

Sweeps every registered inequality over dims x weight kinds with
per-trial randomized parameters, tabulates violations and sharpest
relative slacks next to each id's wall time per trial, and optionally
writes the raw campaign reports (JSON) for later replay.  The timings are
printed only: the raw reports are the same on every run.  Exit status 1
when any violation was found.
"""

import argparse
import json
import sys
import time

from aradius import A_KINDS, GenSpec, campaign_to_obj, registry_ids, run_campaign


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials-per-combo", type=int, default=84,
                    help="trials per (dim, weight-kind) cell; 84 -> 1008/id")
    ap.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4])
    ap.add_argument("--a-kinds", nargs="+", default=list(A_KINDS),
                    choices=A_KINDS)
    ap.add_argument("--seed", type=int, default=9000)
    ap.add_argument("--fixed-params", action="store_true",
                    help="use default bound parameters instead of redrawing")
    ap.add_argument("--out", default=None, help="write raw reports here")
    return ap.parse_args()


def main():
    args = parse_args()
    ids = list(registry_ids())
    combos = [(d, kind) for d in args.dims for kind in args.a_kinds]
    totals = {iid: {"trials": 0, "violations": 0, "skipped": 0, "min": None,
                     "seconds": 0.0}
              for iid in ids}
    raw = []
    start = time.perf_counter()
    for j, (dim, kind) in enumerate(combos):
        gen = GenSpec(dim=dim, a_kind=kind, seed=args.seed + 17 * dim + j)
        for iid in ids:
            tick = time.perf_counter()
            rep = run_campaign(iid, gen, args.trials_per_combo,
                               randomize_params=not args.fixed_params)[0]
            box = totals[iid]
            box["seconds"] += time.perf_counter() - tick
            box["trials"] += rep.trials
            box["violations"] += rep.violations
            box["skipped"] += rep.skipped
            if rep.min_rel_slack is not None:
                box["min"] = (rep.min_rel_slack if box["min"] is None
                              else min(box["min"], rep.min_rel_slack))
            raw.append(campaign_to_obj(rep))
    elapsed = time.perf_counter() - start

    width = max(len(i) for i in ids)
    print(f"{'id'.ljust(width)}  trials  viol  skip  min rel slack  ms/trial")
    print("-" * (width + 48))
    for iid in ids:
        box = totals[iid]
        min_s = "n/a" if box["min"] is None else f"{box['min']:+.3e}"
        ms = 1e3 * box["seconds"] / box["trials"]
        print(f"{iid.ljust(width)}  {box['trials']:6d}  {box['violations']:4d}"
              f"  {box['skipped']:4d}  {min_s:>13}  {ms:8.3f}")
    n_viol = sum(b["violations"] for b in totals.values())
    n_trials = sum(b["trials"] for b in totals.values())
    print(f"\n{n_trials} trials over {len(combos)} cells in {elapsed:.1f}s; "
          f"{n_viol} violation(s)")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=2)
            fh.write("\n")
        print(f"raw reports written to {args.out}")
    return 1 if n_viol else 0


if __name__ == "__main__":
    sys.exit(main())
