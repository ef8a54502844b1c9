"""Synthetic objectives and the empirical validation suite.

The objectives have controllable gradient sparsity: the gradient lives on a
support of size s, which makes ``||grad||_1 <= sqrt(s) * ||grad||_2`` hold by
construction. The checks below probe the three quantitative claims backing
the optimizer: sign agreement of one-bit measurements with the true gradient,
recovery error of the exact direction solver under sign flips, and
oracle-call scaling of the full loop as the dimension grows. Every sign they
read comes from ``measure_bits``, the path the descent measures with.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .core import ParamVector, RngState
from .errors import DegenerateMeasurementError, InvalidTestError
from .optimizer import loop_profile, run_basic, schedule_from_theorem
from .oracles import compare_function, measure_bits
from .sparse_grad import _bisect_upper, solve_1bge_exact


@dataclass(frozen=True, eq=False)
class SyntheticObjective:
    """A smooth objective with sparse gradient support and known constants."""

    dim: int
    support: np.ndarray
    ell: float
    f_min: float
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        sup = np.asarray(self.support, dtype=np.intp).copy()
        sup.setflags(write=False)
        object.__setattr__(self, "support", sup)

    def comparison_oracle(self):
        """Two-point comparison oracle backed by this objective.

        ``compare_function`` takes f at the base point from
        ``ParamVector.evaluate``, so a measurement batch computes it once.
        """
        return partial(compare_function, self.value)


def make_sparse_quadratic(
    d: int, s: int, seed: int, coeffs: np.ndarray | None = None
) -> SyntheticObjective:
    """``f = 0.5 * sum_j a_j theta_j^2`` on a random support, a_j in [0.5, 1].

    ``coeffs`` overrides the random curvature draw (length s, all positive).
    """
    if not (1 <= s <= d):
        raise ValueError(f"need 1 <= s <= d, got s={s}, d={d}")
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    support = np.sort(gen.choice(d, size=s, replace=False))
    if coeffs is None:
        coeffs = gen.uniform(0.5, 1.0, size=s)
    else:
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (s,) or np.any(coeffs <= 0):
            raise ValueError("coeffs must be s positive values")

    def value(theta: np.ndarray) -> float:
        return 0.5 * float(np.dot(coeffs, theta[support] ** 2))

    def gradient(theta: np.ndarray) -> np.ndarray:
        g = np.zeros(d)
        g[support] = coeffs * theta[support]
        return g

    return SyntheticObjective(
        dim=d, support=support, ell=float(coeffs.max()), f_min=0.0,
        value=value, gradient=gradient,
    )


def make_nonconvex_sparse(
    d: int, s: int, seed: int, alpha: float | None = None
) -> SyntheticObjective:
    """``f = sum_j (theta_j^2 + alpha * cos(theta_j))`` on a random support.

    Bounded below with smoothness constant 2 + alpha; alpha = 0 reduces to an
    unweighted sparse quadratic. Stationary points solve
    ``2 theta_j = alpha * sin(theta_j)`` per coordinate (theta = 0 always is).
    Note the per-coordinate curvature is ``2 - alpha cos(theta_j)``, which
    stays positive for alpha < 1; the cosine term perturbs the landscape
    without destroying the minimum at the support origin.
    """
    if not (1 <= s <= d):
        raise ValueError(f"need 1 <= s <= d, got s={s}, d={d}")
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    support = np.sort(gen.choice(d, size=s, replace=False))
    if alpha is None:
        alpha = float(gen.uniform(0.3, 0.9))
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    a = float(alpha)
    f_min = s * a  # per-coordinate minimum is at 0 with value alpha

    def value(theta: np.ndarray) -> float:
        x = theta[support]
        return float(np.sum(x * x + a * np.cos(x)))

    def gradient(theta: np.ndarray) -> np.ndarray:
        g = np.zeros(d)
        x = theta[support]
        g[support] = 2.0 * x - a * np.sin(x)
        return g

    return SyntheticObjective(
        dim=d, support=support, ell=2.0 + a, f_min=f_min, value=value, gradient=gradient,
    )


def point_with_gradient_norm(
    objective: SyntheticObjective, target: float, gen: np.random.Generator
) -> np.ndarray:
    """A point on the support whose true gradient norm equals ``target``.

    Scales a random support direction; the gradient norm along a fixed ray is
    continuous and increasing from zero for both objective families, so a
    bracketing bisection pins the scale.
    """
    if target <= 0:
        raise ValueError("target gradient norm must be > 0")
    direction = np.zeros(objective.dim)
    v = gen.standard_normal(objective.support.size)
    direction[objective.support] = v / np.linalg.norm(v)

    def norm_at(scale: float) -> float:
        return float(np.linalg.norm(objective.gradient(scale * direction)))

    return _scale_reaching(norm_at, target) * direction


def _scale_reaching(fn: Callable[[float], float], target: float) -> float:
    """Scale at which the increasing ``fn`` first reaches ``target``.

    Doubles from 1 to bracket the crossing, bisects it for 200 steps and
    returns the upper end, so ``fn`` at the result is at least ``target``.
    """
    hi = 1.0
    while fn(hi) < target:
        hi *= 2.0
        if hi > 1e12:
            raise InvalidTestError(f"could not bracket the target {target}")
    return _bisect_upper(lambda scale: fn(scale) < target, 0.0, hi, 200)


def check_sign_agreement(
    objective: SyntheticObjective,
    theta: np.ndarray,
    epsilon: float,
    n_samples: int,
    rng: RngState,
    radius: float | None = None,
) -> float:
    """Fraction of sphere directions whose comparison sign matches the linearization.

    Compares ``sign(f(theta + r z) - f(theta))`` against ``sign(z . grad f)``
    over ``n_samples`` directions, with r following the smoothness-scaled
    schedule unless overridden. Requires ``||grad f(theta)|| > epsilon / 2``.
    Both sign sets are ``measure_bits`` batches of one block, the next of
    ``rng``: the objective's comparison oracle at theta and radius r, on a
    copy of ``rng``, and the linearization's oracle at the origin and radius
    1, where each candidate is its direction.
    """
    theta = np.asarray(theta, dtype=np.float64)
    grad = objective.gradient(theta)
    grad_norm = float(np.linalg.norm(grad))
    if not grad_norm > epsilon / 2.0:
        raise InvalidTestError(
            f"gradient norm {grad_norm:.4g} must exceed epsilon/2 = {epsilon / 2.0:.4g}"
        )
    if radius is None:
        radius = epsilon / (40.0 * objective.ell * math.sqrt(objective.dim))
    n_samples = int(n_samples)
    if n_samples < 1:
        raise InvalidTestError("n_samples must be >= 1")
    measured = measure_bits(
        objective.comparison_oracle(), ParamVector(theta), radius, n_samples,
        RngState(rng.seed, rng.counter),
    )
    linear = measure_bits(
        partial(_sign_along, grad), ParamVector(np.zeros(objective.dim)), 1.0, n_samples, rng
    )
    return int(np.count_nonzero(measured.signs == linear.signs)) / n_samples


def _sign_along(direction: np.ndarray, _origin: ParamVector, z: ParamVector) -> int:
    """-1 if ``z . direction < 0``, else 1: at the origin and radius 1, z is the row itself."""
    return -1 if z.values @ direction < 0.0 else 1


@dataclass(eq=False)
class EstimatorErrorReport:
    """Recovery errors of the exact solver under independent sign flips."""

    errors: np.ndarray

    def count_within(self, tol: float) -> int:
        return int(np.count_nonzero(self.errors <= tol))

    def csv_rows(self) -> list[tuple]:
        return [("trial", "error"), *enumerate(self.errors.tolist())]


def check_estimator_error(
    d: int, s: int, flip_prob: float, m: int, trials: int, rng: RngState
) -> EstimatorErrorReport:
    """Plant a sparse unit direction, flip measurement signs, solve, record error.

    The planted direction is s-sparse with unit l2 norm, so its l1 norm is at
    most sqrt(s) automatically. Signs flip independently with ``flip_prob``
    (the kept-probability must stay above one half). Each trial's batch comes
    from ``measure_bits`` at the origin and radius 1, where each candidate is
    its direction: the oracle answers the planted direction's sign times the
    trial's flip, read in index order. So no (m, d) direction matrix is held.
    """
    if not (0.0 <= flip_prob < 0.5):
        raise InvalidTestError(f"flip probability must be in [0, 0.5), got {flip_prob}")
    if trials < 1 or m < 1:
        raise InvalidTestError("trials and m must be >= 1")
    errors, origin = np.empty(trials), ParamVector(np.zeros(d))
    for trial in range(trials):
        gen = rng.substream(rng.next_block())
        planted = np.zeros(d)
        v = gen.standard_normal(s)
        planted[np.sort(gen.choice(d, size=s, replace=False))] = v / np.linalg.norm(v)
        flips = iter(np.where(gen.random(m) < flip_prob, -1, 1))
        batch = measure_bits(
            lambda theta, z: _sign_along(planted, theta, z) * next(flips), origin, 1.0, m, rng
        )
        try:
            estimate = solve_1bge_exact(batch, s)
            errors[trial] = float(np.linalg.norm(estimate.direction - planted))
        except DegenerateMeasurementError:
            errors[trial] = np.inf
    return EstimatorErrorReport(errors)


@dataclass
class SweepCell:
    d: int
    seed: int
    converged: bool
    oracle_calls: int | None
    iterations: int
    min_grad_norm: float


@dataclass
class SweepReport:
    """Oracle calls to reach the gradient target, per dimension, and the loops' ``profile``."""

    cells: list[SweepCell]
    profile: dict = field(default_factory=lambda: loop_profile([]), compare=False)

    def mean_calls(self, d: int) -> float | None:
        calls = [c.oracle_calls for c in self.cells if c.d == d and c.converged]
        return float(np.mean(calls)) if calls else None

    def all_converged(self) -> bool:
        return all(c.converged for c in self.cells)

    def doubling_ratios(self) -> list[tuple[int, int, float]]:
        """(d_small, d_large, ratio of mean calls) for consecutive grid dims."""
        dims = sorted({c.d for c in self.cells})
        out = []
        for lo, hi in zip(dims, dims[1:]):
            a, b = self.mean_calls(lo), self.mean_calls(hi)
            if a and b:
                out.append((lo, hi, b / a))
        return out

    def max_doubling_ratio(self) -> float | None:
        ratios = [r for _, _, r in self.doubling_ratios()]
        return max(ratios) if ratios else None

    def csv_rows(self) -> list[tuple]:
        """The header, then each cell's fields; a censored cell's ``oracle_calls`` is None."""
        header = ("d", "seed", "converged", "oracle_calls", "iterations", "min_grad_norm")
        return [header, *map(astuple, self.cells)]


def sweep_convergence(
    dims: list[int],
    s: int,
    epsilon: float,
    Lambda: float,
    seeds: list[int],
    c_m: float = 1.0,
    gap: float = 0.5,
) -> SweepReport:
    """Run the basic loop across a dimension grid and record the calls to target.

    Each cell starts at a point on the objective's support with initial gap
    ``gap`` and uses the schedule derived for that dimension. Cells that fail
    to reach the gradient target within the schedule budget are recorded as
    censored instead of raising.
    """
    if not dims:
        raise InvalidTestError("dimension grid must be nonempty")
    cells: list[SweepCell] = []
    trajectories = []
    for d in dims:
        for seed in seeds:
            objective = make_sparse_quadratic(d, s, seed=seed)
            theta0, Delta = start_with_gap(objective, gap)
            schedule = schedule_from_theorem(
                epsilon, Lambda, objective.ell, Delta, s, d, c_m=c_m
            )
            traj = run_basic(
                objective.comparison_oracle(),
                ParamVector(theta0),
                schedule,
                RngState(seed),
                objective=objective,
                stop_grad_norm=epsilon,
            )
            trajectories.append(traj)
            # the stop rule ends the run at the first iterate under epsilon
            converged = traj.final_grad_norm < epsilon
            cells.append(
                SweepCell(
                    d=d,
                    seed=seed,
                    converged=converged,
                    oracle_calls=traj.total_oracle_calls if converged else None,
                    iterations=len(traj.records),
                    min_grad_norm=float(traj.min_grad_norm),
                )
            )
    return SweepReport(cells, loop_profile(trajectories))


def start_with_gap(objective: SyntheticObjective, gap: float) -> tuple[np.ndarray, float]:
    """Uniform-on-support start scaled so the initial objective gap equals ``gap``."""
    direction = np.zeros(objective.dim)
    direction[objective.support] = 1.0

    def gap_at(scale: float) -> float:
        return objective.value(scale * direction) - objective.f_min

    hi = _scale_reaching(gap_at, gap)
    return hi * direction, gap_at(hi)
