"""Gradient direction recovery from one-bit measurements.

Two estimators over the signed direction sum ``c = sum_i y_i z_i``:

* ``solve_1bge_exact`` -- the exact maximizer of ``c . g`` over
  ``{||g||_1 <= sqrt(s), ||g||_2 <= 1}``. By KKT stationarity any maximizer
  with both constraints relevant has the form ``S_tau(c) / ||S_tau(c)||_2``
  for a soft-threshold level tau >= 0, so the solver only has to locate the
  tau whose l1/l2 ratio equals sqrt(s). That ratio is continuous and
  non-increasing in tau, which gives an O(k log k) breakpoint scan plus a
  bisection inside the crossing interval.
* ``estimate_normalized_clip`` -- the cheap approximation: normalize c, then
  zero out entries below a magnitude threshold (no re-normalization).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMeasurementError
from .oracles import BitMeasurementBatch


@dataclass(frozen=True, eq=False)
class GradientEstimate:
    """A direction estimate with its feasibility certificates."""

    direction: np.ndarray
    l1_norm: float
    l2_norm: float
    nonzero_count: int

    def __post_init__(self) -> None:
        d = np.asarray(self.direction, dtype=np.float64).copy()
        d.setflags(write=False)
        object.__setattr__(self, "direction", d)


def _finish(direction: np.ndarray) -> GradientEstimate:
    return GradientEstimate(
        direction=direction,
        l1_norm=float(np.abs(direction).sum()),
        l2_norm=float(np.linalg.norm(direction)),
        nonzero_count=int(np.count_nonzero(direction)),
    )


def clip_small_entries(v: np.ndarray, lambda_g: float) -> np.ndarray:
    """Zero every entry with magnitude strictly below ``lambda_g``.

    Entries exactly at the threshold survive; ``lambda_g = 0`` is the identity.
    """
    if not lambda_g >= 0:
        raise ValueError(f"lambda_g must be >= 0, got {lambda_g}")
    v = np.asarray(v, dtype=np.float64)
    return np.where(np.abs(v) >= lambda_g, v, 0.0)


def estimate_normalized_clip(batch: BitMeasurementBatch, lambda_g: float) -> GradientEstimate:
    """Normalize the signed direction sum, then clip small entries.

    Clipping happens after normalization and the result is NOT re-normalized,
    so clipping only removes mass (l2 <= 1).
    """
    c = batch.signed_direction_sum()
    norm = float(np.linalg.norm(c))
    if norm == 0.0:
        raise DegenerateMeasurementError("signed direction sum is zero")
    return _finish(clip_small_entries(c / norm, lambda_g))


def solve_1bge_exact(batch: BitMeasurementBatch, s: int) -> GradientEstimate:
    """Exact maximizer of ``c . g`` over the l1/l2-constrained feasible set.

    Branches:
      1. ``||c||_1 / ||c||_2 <= sqrt(s)``: the l1 constraint is slack, the
         maximizer is ``c / ||c||_2``.
      2. ``sqrt(s) <= sqrt(t)`` where t counts entries tied at ``max|c|``: the
         l2 constraint is slack, the maximizer set is the top face of the
         scaled l1 ball; ties resolve toward the denser support
         ``sign(c_i) * sqrt(s) / t`` on the tied entries.
      3. otherwise a unique threshold tau with
         ``||S_tau(c)||_1 = sqrt(s) * ||S_tau(c)||_2`` exists; locate its
         breakpoint interval by scanning sorted magnitudes, bisect inside it,
         and return the normalized soft-thresholded vector.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    c = batch.signed_direction_sum()
    l2 = float(np.linalg.norm(c))
    if l2 == 0.0:
        raise DegenerateMeasurementError("signed direction sum is zero")
    root_s = float(np.sqrt(s))
    if float(np.abs(c).sum()) / l2 <= root_s:
        return _finish(c / l2)

    mags = np.abs(c)
    max_mag = float(mags.max())
    tied = mags == max_mag
    t = int(np.count_nonzero(tied))
    if root_s <= np.sqrt(t):
        g = np.zeros_like(c)
        g[tied] = np.sign(c[tied]) * (root_s / t)
        return _finish(g)

    tau = _threshold_for_ratio(mags, float(s))
    shrunk = np.sign(c) * np.maximum(mags - tau, 0.0)
    return _finish(shrunk / np.linalg.norm(shrunk))


def _threshold_for_ratio(mags: np.ndarray, s: float) -> float:
    """Find tau > 0 with ``(l1/l2)(S_tau)**2 = s``.

    Only called when the ratio at tau=0 exceeds sqrt(s) and the limit ratio
    (sqrt of the max-tie count) is below it, so a crossing interval exists.
    The squared ratio restricted to a fixed support size j is
    ``(A_j - j tau)^2 / (Q_j - 2 A_j tau + j tau^2)`` with A, Q prefix sums of
    sorted magnitudes; it is non-increasing in tau (Cauchy-Schwarz), which
    makes both the interval scan and the bisection monotone.

    The ratio is taken in Python floats, the IEEE operations numpy scalars
    run, at a fraction of their cost. The bisection makes 100 steps.
    """
    a = np.sort(mags[mags > 0])[::-1]
    k = a.size
    prefix_sum = np.cumsum(a)
    prefix_sq = np.cumsum(a * a)

    # on the prefix sums of support size j, set by the scan below
    def ratio_sq(tau: float) -> float:
        l1 = total - j * tau
        l2_sq = total_sq - 2.0 * total * tau + j * tau * tau
        if l2_sq == 0.0:
            # numpy's quotient: +inf over a positive numerator, NaN over 0
            return math.inf if l1 * l1 > 0.0 else math.nan
        return l1 * l1 / l2_sq

    for j in range(1, k + 1):
        lo = float(a[j]) if j < k else 0.0
        hi = float(a[j - 1])
        # Tied magnitudes give empty intervals. The ratio falls as tau rises,
        # so the first nonempty interval starting at or above s holds the
        # crossing. Its end is not tested: rounding at a breakpoint can leave
        # the previous interval's end a hair above s. If rounding puts even
        # tau = 0 below s, the scan ends on the last interval and the
        # bisection returns a tau near 0.
        if lo < hi:
            total, total_sq = float(prefix_sum[j - 1]), float(prefix_sq[j - 1])
            if ratio_sq(lo) >= s:
                break
    # the hi endpoint keeps the final l1 norm on the feasible side
    return _bisect_upper(lambda tau: ratio_sq(tau) > s, lo, hi, 100)


def _bisect_upper(below: Callable[[float], bool], lo: float, hi: float, steps: int) -> float:
    """Upper end of the bracket ``[lo, hi]`` after ``steps`` bisection steps.

    ``below(x)`` is true when the crossing lies above x. The loop stops at
    the first step that leaves the bracket unchanged, since every later step
    would repeat it, so the result has the bits of all ``steps``.
    """
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if below(mid):
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return hi
