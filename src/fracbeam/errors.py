"""Error types shared across the toolkit.

Domain errors on scalar inputs (negative time, frequency <= 0, alpha out of
range, ...) raise plain ``ValueError`` at the call site, non-finite ones
through ``check_finite``; the classes below cover failures of the numerical
machinery itself.
"""

import numpy as np


def check_finite(**values) -> None:
    """Raise ValueError naming the first of ``values`` (numbers or arrays) with a non-finite entry."""
    for name, value in values.items():
        x = np.asarray(value, dtype=float)
        bad = ~np.isfinite(x)
        if bad.any():
            raise ValueError(f"{name} must be finite, got {x[bad][0]}")


def check_finite_samples(name: str, samples: np.ndarray) -> None:
    """Raise ValueError naming the first node of the float array ``samples`` that is not finite."""
    if not np.isfinite(samples).all():
        node = int(np.flatnonzero(~np.isfinite(samples))[0])
        raise ValueError(f"{name} must be finite, got {samples[node]} at node {node}")


def check_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer (Python's or numpy's, not a bool) >= 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


class EigenSearchError(RuntimeError):
    """Fewer sign changes than requested modes inside the search interval."""


class QuadratureError(RuntimeError):
    """Adaptive panel refinement did not converge within the refinement cap."""


class StepFailureError(RuntimeError):
    """Implicit solve failed at one time step: its cubic has no finite real root.

    ``step`` and ``t`` name the time level being solved for; ``q`` and ``v``
    are the state it was stepped from and ``residual`` the smallest
    |residual| the solve reached.
    """

    def __init__(self, step: int, message: str, *, t: float, q: float, v: float,
                 residual: float):
        super().__init__(f"step {step} (t = {t!r}, q = {q!r}, v = {v!r}, "
                         f"|residual| = {residual:.3e}): {message}")
        self.step, self.t, self.q, self.v, self.residual = step, t, q, v, residual


class InsufficientDataError(ValueError):
    """Not enough samples/peaks in the requested window to fit anything."""
