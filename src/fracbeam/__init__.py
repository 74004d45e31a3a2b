"""Desk-scale dynamics of a fractional Kelvin-Voigt viscoelastic cantilever.

Subpackages
-----------
constitutive  fractional Kelvin-Voigt law: moduli, tangent loss, stress histories
modes         cantilever eigenproblem, mode shapes, single-mode reduction
fracode       L1 + Newmark time integration of the reduced oscillator
multiscale    slow-flow envelopes, decay-rate sensitivity, resonance cubic, sweeps
cli           `fracbeam` command-line front end (CSV/JSON tables)
g17           byte-exact CSV ('%.17g') and JSON (shortest repr) text of float arrays
"""

__version__ = "0.1.0"

from .constitutive import (
    MaterialParams,
    StrainProgram,
    complex_modulus,
    ramp_hold_strain,
    ramp_hold_stress,
    stress_history_l1,
    tangent_loss,
)
from .fracode import (
    EnvelopeFit,
    GridSpec,
    HarmonicForcing,
    L1History,
    Trajectory,
    caputo_l1,
    caputo_l1_series,
    envelope_fit,
    integrate_linear,
    integrate_nonlinear,
    l1_weights,
)
from .modes import (
    ModalCoefficients,
    ModeShape,
    TipConfig,
    build_mode,
    characteristic_residual,
    characteristic_scale,
    modal_coefficients,
    mode_shape_eval,
    solve_eigen,
)
from .multiscale import (
    CriticalAlphaResult,
    CubicCoeffs,
    MmsParams,
    ResponseBranch,
    SteadyStateRoot,
    critical_alpha,
    decay_rate,
    free_envelope,
    frequency_sweep,
    scale_coefficients,
    sensitivity,
    solve_steady_amplitudes,
    steady_state_cubic,
)
