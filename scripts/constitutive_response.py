#!/usr/bin/env python3
"""Constitutive response of the fractional Kelvin-Voigt element.

Produces two tables: storage/loss moduli and tangent loss against the
fractional order at the cantilever's first natural frequency, and the
stress-time response under a slow ramp (rate 1/24 up to t = 2.5) followed by
a hold, for a ladder of fractional orders.

Usage: python scripts/constitutive_response.py [outdir]
"""

import sys
from pathlib import Path

import numpy as np

from fracbeam import (
    MaterialParams,
    complex_modulus,
    ramp_hold_stress,
    tangent_loss,
)

OMEGA0 = 3.5160152685  # first clamped-free natural frequency
RATE, T_RAMP, T_END = 1 / 24, 2.5, 6.0


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    outdir.mkdir(parents=True, exist_ok=True)

    rows = ["alpha,storage,loss,tan_delta"]
    for alpha in np.linspace(0.05, 0.95, 91):
        mat = MaterialParams(1.0, 1.0, float(alpha))
        g1, g2 = complex_modulus(mat, OMEGA0)
        rows.append(f"{alpha:.4f},{g1:.10g},{g2:.10g},{tangent_loss(mat, OMEGA0):.10g}")
    (outdir / "tangent_loss_vs_alpha.csv").write_text("\n".join(rows) + "\n")
    print(f"tangent loss sweep -> {outdir / 'tangent_loss_vs_alpha.csv'}")

    t = np.linspace(0.0, T_END, 1201)
    cols = [t]
    names = ["t"]
    for alpha in (0.3, 0.5, 0.7, 0.9):
        mat = MaterialParams(1.0, 1.0, alpha)
        cols.append(ramp_hold_stress(mat, RATE, T_RAMP, t))
        names.append(f"stress_a{alpha:.1f}")
    np.savetxt(outdir / "ramp_hold_stress.csv", np.column_stack(cols),
               delimiter=",", header=",".join(names), comments="")
    print(f"ramp-hold stress curves -> {outdir / 'ramp_hold_stress.csv'}")


if __name__ == "__main__":
    main()
