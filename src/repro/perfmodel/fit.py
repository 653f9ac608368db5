"""Empirical T(op) fitting (the paper's measure-small, predict-large method).

:func:`fit_component_scaling` is the project's one least-squares routine:
a closed-form affine fit in pure Python (no numpy). The power-law fitter
:func:`repro.analysis.fitting.fit_power` runs it on ``(log n, log t)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["FittedLine", "fit_component_scaling"]


@dataclass(frozen=True)
class FittedLine:
    """A least-squares affine fit t = intercept + slope * n."""

    intercept: float
    slope: float
    r2: float

    def predict(self, n: float) -> float:
        return self.intercept + self.slope * n

    @property
    def is_scale_independent(self) -> bool:
        """True when the slope is negligible relative to the intercept."""
        if self.intercept <= 0:
            return abs(self.slope) < 1e-9
        return abs(self.slope) * 1000 < self.intercept


def fit_component_scaling(ns: Sequence[float], ts: Sequence[float],
                          ) -> FittedLine:
    """Fit t(n) = a + b*n by least squares; returns the line with R^2.

    Closed form over the centred sums: ``b = Sxy / Sxx`` and
    ``a = mean(t) - b * mean(n)``. Raises ``ValueError`` for fewer than
    two pairs, unequal lengths, or identical ``n`` (no slope exists).
    """
    if len(ns) != len(ts) or len(ns) < 2:
        raise ValueError("need >= 2 (n, t) pairs of equal length")
    xs = [float(n) for n in ns]
    ys = [float(t) for t in ts]
    k = len(xs)
    mean_x = sum(xs) / k
    mean_y = sum(ys) / k
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("all scales identical; the slope is undefined")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (intercept + slope * x)) ** 2
                 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FittedLine(intercept=intercept, slope=slope, r2=r2)
