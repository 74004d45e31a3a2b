#!/usr/bin/env python3
"""Primary-resonance frequency response and jump (fold) diagrams.

Sweeps the detuning for a ladder of fractional orders at fixed E_r and
forcing, writing per-point root sets and the located fold boundaries, then
repeats the sweep over E_r at fixed order to show the resonance peak
dropping as the fractional element stiffens the damping path.

Usage: python scripts/resonance_sweeps.py [outdir]
"""

import math
import sys
from pathlib import Path

import numpy as np

from fracbeam import MmsParams, frequency_sweep

BASE = MmsParams(omega0=math.sqrt(1.24), c_l=1.24, c_nl=1.24, k_nl=1.24,
                 e_r=0.3, alpha=0.4, f=1.0)
DELTAS = np.linspace(-1.0, 4.0, 1001)


def dump_branch(branch, path):
    lines = ["delta,n_roots,a1,a2,a3,stable1,stable2,stable3"]
    for d, roots in zip(branch.deltas, branch.root_sets):
        amps = [f"{r.amp:.10g}" for r in roots] + [""] * (3 - len(roots))
        stab = [str(int(r.stable)) for r in roots] + [""] * (3 - len(roots))
        lines.append(f"{d:.10g},{len(roots)}," + ",".join(amps + stab))
    path.write_text("\n".join(lines) + "\n")


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    outdir.mkdir(parents=True, exist_ok=True)

    fold_rows = ["alpha,fold_lo,fold_hi,width"]
    for alpha in (0.4, 0.5, 0.6, 0.7):
        branch = frequency_sweep(BASE, DELTAS, alpha=alpha)
        path = outdir / f"response_alpha{alpha:.1f}.csv"
        dump_branch(branch, path)
        if len(branch.bifurcations) >= 2:
            lo, hi = branch.bifurcations[0], branch.bifurcations[-1]
            fold_rows.append(f"{alpha},{lo:.10g},{hi:.10g},{hi - lo:.10g}")
            print(f"alpha={alpha}: fold on [{lo:.4f}, {hi:.4f}] -> {path}")
        else:
            fold_rows.append(f"{alpha},,,0")
            print(f"alpha={alpha}: single-valued response -> {path}")
    (outdir / "fold_boundaries.csv").write_text("\n".join(fold_rows) + "\n")

    peak_rows = ["er,peak_amp"]
    for er in np.arange(0.1, 1.01, 0.1):
        branch = frequency_sweep(BASE, DELTAS, e_r=float(er), f=0.5)
        peak = np.nanmax(branch.amp)
        peak_rows.append(f"{er:.1f},{peak:.10g}")
    (outdir / "peak_vs_er.csv").write_text("\n".join(peak_rows) + "\n")
    print(f"peak amplitude vs E_r -> {outdir / 'peak_vs_er.csv'}")


if __name__ == "__main__":
    main()
