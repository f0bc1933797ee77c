#!/usr/bin/env python3
"""Compare the three augmentation arms on one benchmark seed.

Writes one localization report per arm (summary + CDF rows, ready for a
CDF-style plot) and prints the headline numbers.

    python3 scripts/compare_augmenters.py --seed 0 --outdir reports/
"""

import argparse
from dataclasses import replace
from pathlib import Path

from fpsynth.config import build_experiment_config, load_config_file
from fpsynth.localizer import save_report
from fpsynth.pipeline import run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-c", "--config", default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default="reports")
    args = ap.parse_args()

    flat = load_config_file(args.config) if args.config else {}
    base = build_experiment_config(flat)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for arm in ("diffusion", "interpolator", "none"):
        r = run_experiment(replace(base, augmenter=arm, seed=args.seed))
        path = outdir / f"report_{arm}.csv"
        save_report(r.report, path)
        print(
            f"{arm:>12}: mean {r.report.mean_error_m:.3f} m, "
            f"median {r.report.median_error_m:.3f} m -> {path}"
        )


if __name__ == "__main__":
    main()
