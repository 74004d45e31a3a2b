"""The benchmark's four job mixes, generated from a seed.

A workload is a list of ``fracbeam`` CLI jobs run back to back by one client
(a closed loop).  The seed jitters parameter values inside the ranges stated
below and never changes a size (step counts, grid counts, resolutions), so
every seed does the same amount of work.  Why each workload exists is in
NOTES.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# first natural frequencies w0 = sqrt(K_l / M_t) of the two published tip
# cases; the forced jobs drive within +-10% of them
OMEGA0 = {"no-tip": 3.5160152685, "tip-mass": 1.1140820772}


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    params: dict = field(default_factory=dict)
    fmt: str = "csv"

    def argv(self, output: str) -> list:
        # repr keeps every float digit, so the CLI parses back the exact value
        flags = [f"--{key.replace('_', '-')}={repr(val) if isinstance(val, float) else val}"
                 for key, val in self.params.items()]
        return [self.command] + flags + ["--format", self.fmt, "--output", output]


def _jit(rng, value, spread):
    return value + rng.uniform(-spread, spread)


def free_decay(rng):
    """Linear fractional free decay: O(N^2) L1 history plus CSV formatting."""
    jobs = []
    ladder = [(0.3, 32_000), (0.5, 24_000), (0.7, 20_000), (0.5, 16_000), (1.0, 32_000)]
    for k, (alpha, n) in enumerate(ladder):
        dt = 0.01
        jobs.append(Job(f"linear-{k}", "simulate", {
            "model": "linear",
            "alpha": alpha if alpha == 1.0 else _jit(rng, alpha, 0.03),
            "er": _jit(rng, 0.1, 0.01), "c": 1.24, "k": 1.24,
            "q0": _jit(rng, 1.0, 0.2), "v0": _jit(rng, 0.0, 0.1),
            "dt": dt, "t_final": n * dt,
        }))
    return jobs


def forced_nonlinear(rng):
    """Short base-excited nonlinear runs near resonance: Newton stepping dominates."""
    jobs = []
    alphas = (0.3, 0.5, 0.7, 1.0)
    for case in ("no-tip", "tip-mass"):
        for k in range(9):
            ratio = 0.9 + 0.2 * k / 8.0
            jobs.append(Job(f"{case}-{k}", "simulate", {
                "model": "nonlinear", "case": case,
                "alpha": alphas[k % 4] if k % 4 == 3 else _jit(rng, alphas[k % 4], 0.03),
                "er": _jit(rng, 0.1, 0.01),
                "q0": 0.0, "v0": 0.0,
                "base_amp": _jit(rng, 0.13, 0.01),
                "base_freq": OMEGA0[case] * min(1.1, max(0.9, _jit(rng, ratio, 0.01))),
                "base_phase": 0.0,
                "dt": 0.01, "t_final": 50.0,
            }))
    return jobs


def resonance_sweep(rng):
    """Slow-flow tables only: detuning sweeps, nested sweeps, envelopes, critical orders."""
    jobs = []
    for k, alpha in enumerate((0.3, 0.5, 0.7)):
        jobs.append(Job(f"delta-{k}", "sweep", {
            "var": "delta", "case": "no-tip", "alpha": _jit(rng, alpha, 0.02),
            "er": _jit(rng, 0.1, 0.01), "f": _jit(rng, 1.0, 0.05),
            "min": -2.0, "max": 4.0, "count": 10_001,
        }, "json"))
    jobs.append(Job("delta-tip", "sweep", {
        "var": "delta", "case": "tip-mass", "alpha": _jit(rng, 0.5, 0.02),
        "er": _jit(rng, 0.1, 0.01), "f": _jit(rng, 1.0, 0.05),
        "min": -5.0, "max": 20.0, "count": 10_001,
    }, "json"))
    # ranges where every outer value has both fold points inside the inner grid
    inner = {"delta_min": -2.0, "delta_max": 4.0, "delta_count": 1001}
    jobs.append(Job("nested-er", "sweep", dict({
        "var": "er", "case": "no-tip", "alpha": 0.5, "er": 0.1, "f": 1.0,
        "min": _jit(rng, 0.05, 0.003), "max": _jit(rng, 0.12, 0.003), "count": 8,
    }, **inner), "json"))
    jobs.append(Job("nested-alpha", "sweep", dict({
        "var": "alpha", "case": "no-tip", "alpha": 0.5, "er": 0.1, "f": 1.0,
        "min": _jit(rng, 0.3, 0.01), "max": _jit(rng, 0.55, 0.01), "count": 6,
    }, **inner), "json"))
    for case in ("no-tip", "tip-mass"):
        jobs.append(Job(f"envelope-{case}", "envelope", {
            "case": case, "er": _jit(rng, 0.1, 0.01), "alpha": _jit(rng, 0.5, 0.05),
            "a0": _jit(rng, 1.0, 0.1), "phi0": 0.0, "t_final": 100.0, "count": 5001,
        }, "json"))
    for mode in ("decay-peak", "sensitivity-extremum"):
        jobs.append(Job(f"critical-{mode}", "critical-alpha", {
            "mode": mode, "omega0": _jit(rng, 0.5, 0.1), "cl": 1.0, "er": 1.0,
        }, "json"))
    for case in ("no-tip", "tip-mass"):
        jobs.append(Job(f"critical-{case}", "critical-alpha", {
            "mode": "decay-peak", "case": case, "er": _jit(rng, 1.0, 0.1),
        }, "json"))
    return jobs


def model_tables(rng):
    """Constitutive, modal and coefficient tables; the batch L1 path."""
    dt = 1e-4
    jobs = [Job("ramp", "constitutive", {
        "kind": "ramp", "e_inf": 1.0, "e_alpha": _jit(rng, 1.0, 0.2),
        "alpha": _jit(rng, 0.5, 0.2), "rate": _jit(rng, 1.0 / 24.0, 0.005),
        # the hold onset sits on a grid node, where the L1 scheme is exact
        "t_ramp": round(_jit(rng, 2.5, 0.2) / dt) * dt, "t_final": 6.0, "dt": dt,
    })]
    jobs.append(Job("moduli", "constitutive", {
        "kind": "moduli", "e_inf": 1.0, "e_alpha": _jit(rng, 1.0, 0.2),
        "alpha": _jit(rng, 0.5, 0.2), "omega_min": 0.1, "omega_max": 10.0, "count": 5000,
    }))
    jobs.append(Job("tanloss", "constitutive", {
        "kind": "tanloss", "e_inf": 1.0, "e_alpha": _jit(rng, 1.0, 0.2),
        "omega": OMEGA0["no-tip"], "alpha_min": 0.05, "alpha_max": 0.95, "count": 5000,
    }))
    # the tip-mass case has only two eigenvalues below the default search limit
    for case, n_modes in (("no-tip", 4), ("tip-mass", 2)):
        jobs.append(Job(f"modes-{case}", "modes", {
            "case": case, "n_modes": n_modes, "resolution": 2001,
        }))
    for case in ("no-tip", "tip-mass"):
        jobs.append(Job(f"coeffs-{case}", "coeffs", {
            "case": case, "er": _jit(rng, 1.0, 0.1), "alpha": _jit(rng, 0.5, 0.1),
            "f": _jit(rng, 1.0, 0.1),
        }))
    for m_tip in (0.25, 0.5, 1.0, 2.0, 4.0):
        jobs.append(Job(f"coeffs-M{m_tip}", "coeffs", {
            "case": "custom", "M": m_tip * _jit(rng, 1.0, 0.05), "J": 0.0,
        }))
    return jobs


WORKLOADS = {
    "free-decay": free_decay,
    "forced-nonlinear": forced_nonlinear,
    "resonance-sweep": resonance_sweep,
    "model-tables": model_tables,
}


def jobs_for(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
