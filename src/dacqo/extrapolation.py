"""Exponential-saturation fit for required-fidelity scaling.

Models the minimum analog-block fidelity needed at size N as

    f(N) = L + (K - L) * exp(-decay_rate * N),    L fixed at 1,

i.e. the requirement decays toward perfect fidelity as systems grow.
Invalid points raise ``ValueError`` before the fit; data that admits no
fit (every N equal) raises ``numpy.linalg.LinAlgError``, and a fit that
does not converge raises ``RuntimeError``.  scipy's ``curve_fit`` is
imported only when a fit runs, so importing this module does not load
scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import _number

__all__ = ["ExtrapolationFit", "fit_extrapolation"]


@dataclass(frozen=True)
class ExtrapolationFit:
    L: float
    K: float
    decay_rate: float
    residual: float

    def __call__(self, n):
        return self.L + (self.K - self.L) * np.exp(-self.decay_rate * np.asarray(n))


def fit_extrapolation(points) -> ExtrapolationFit:
    """Least-squares fit of f(N) = 1 + (K-1) e^{-rate N} to (N, fidelity)."""
    pts = [(_number(n, "N"), _number(f, "fidelity")) for n, f in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    ns = np.array([p[0] for p in pts])
    fs = np.array([p[1] for p in pts])
    if not (np.isfinite(ns).all() and np.isfinite(fs).all()):
        raise ValueError("N and required fidelity must be finite")
    if np.any((fs <= 0) | (fs > 1)):
        raise ValueError("required fidelities must lie in (0, 1]")
    if np.all(ns == ns[0]):
        raise np.linalg.LinAlgError("degenerate fit: all N equal")

    def model(n, K, rate):
        return 1.0 + (K - 1.0) * np.exp(-rate * n)

    if np.allclose(fs, 1.0):
        return ExtrapolationFit(L=1.0, K=1.0, decay_rate=0.0, residual=0.0)
    from scipy.optimize import curve_fit

    k0 = float(fs[np.argmin(ns)])
    (K, rate), _ = curve_fit(
        model, ns, fs, p0=(k0, 0.1), maxfev=20000
    )
    resid = float(np.sum((model(ns, K, rate) - fs) ** 2))
    return ExtrapolationFit(L=1.0, K=float(K), decay_rate=float(rate), residual=resid)
