#!/usr/bin/env python3
"""Emit the three datasets for the four reference figures at p = 0.4, N = 100.

Runs the CLI end to end and writes plot-ready CSVs plus manifests:

  fig1_pmf_pos.csv   loss pmf at rho = +0.26  (two peaks, dominant at low loss)
  fig1_pmf_neg.csv   loss pmf at rho = -0.26  (two peaks, dominant at high loss)
  fig2to4_scan.csv   VaR(99%), mode, and mode probability vs rho
                     (201 points, margin 1e-3; rho_star in the footer)

Plot recipe (matplotlib):

    import numpy as np, matplotlib.pyplot as plt
    pos = np.loadtxt("out/fig1_pmf_pos.csv", delimiter=",", skiprows=1)
    scan = np.loadtxt("out/fig2to4_scan.csv", delimiter=",", skiprows=1,
                      comments="#")
    plt.bar(pos[:, 0], pos[:, 1]); plt.show()          # figure 1
    plt.plot(scan[:, 0], scan[:, 1]); plt.show()       # figure 2: VaR vs rho
    plt.step(scan[:, 0], scan[:, 2]); plt.show()       # figure 3: mode vs rho
    plt.plot(scan[:, 0], scan[:, 3]); plt.show()       # figure 4: mode prob
"""

import argparse
import sys
from pathlib import Path

from dandelion_risk.cli import main as cli_main


def run(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = [
        ["pmf", "--p", "0.4", "--rho", "0.26", "--n", "100",
         "--format", "csv", "--output", str(outdir / "fig1_pmf_pos.csv")],
        ["pmf", "--p", "0.4", "--rho", "-0.26", "--n", "100",
         "--format", "csv", "--output", str(outdir / "fig1_pmf_neg.csv")],
        ["scan", "--p", "0.4", "--n", "100", "--points", "201",
         "--margin", "1e-3", "--level", "0.99",
         "--format", "csv", "--output", str(outdir / "fig2to4_scan.csv")],
    ]
    for argv in jobs:
        code = cli_main(argv)
        if code != 0:
            print(f"command failed ({code}): {argv}", file=sys.stderr)
            return code

    footer = [
        line for line in (outdir / "fig2to4_scan.csv").read_text().splitlines()
        if line.startswith("#")
    ]
    print(f"wrote 3 datasets to {outdir}/")
    for line in footer:
        print(f"scan {line.lstrip('# ')}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("out"),
                        help="Directory for the CSV files (default: ./out)")
    args = parser.parse_args()
    raise SystemExit(run(args.outdir))
