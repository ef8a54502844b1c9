"""Iteration loops for comparison-driven descent, plus trajectory telemetry.

Both schemes run the same loop (``_descend``): take m one-bit sphere
measurements, estimate a direction, and move against it by a stepsize that
is a function of rho, the fraction of improving responses, unless rho is at
or below a skip threshold. The schemes differ only in those three choices:

* ``run_basic``, the analyzable scheme: the exact l1/l2-constrained direction
  solver, the fixed stepsize eta of the smoothness/gap schedule, no skip.
* ``run_practical``, the cheap scheme: measurements restricted to the scope
  mask, a normalize-then-clip estimate, stepsize ``gamma * rho``, and a skip
  rule that discards uninformative batches.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import ParamVector, RngState
from .errors import DegenerateMeasurementError, InvalidScheduleError, OracleError
from .oracles import measure_bits
from .sparse_grad import estimate_normalized_clip, solve_1bge_exact


@dataclass(frozen=True)
class TheoremSchedule:
    """Parameter schedule that backs the convergence guarantee.

    Derived quantities:
      T   = ceil(10 * ell * Delta / epsilon^2)
      eta = sqrt(2 * Delta / (ell * T))
      r   = epsilon / (40 * ell * sqrt(d))
      m   = ceil(c_m * (s * log(2d/s) + log(ell * Delta / (Lambda * epsilon^2))))
    """

    epsilon: float
    Lambda: float
    ell: float
    Delta: float
    s: int
    d: int
    c_m: float
    T: int
    eta: float
    r: float
    m: int


def schedule_from_theorem(
    epsilon: float,
    Lambda: float,
    ell: float,
    Delta: float,
    s: int,
    d: int,
    c_m: float = 1.0,
) -> TheoremSchedule:
    """Derive (T, eta, r, m) from the target accuracy and problem constants."""
    if not (0.0 < epsilon < 1.0):
        raise InvalidScheduleError(f"epsilon must be in (0, 1), got {epsilon}")
    if not (0.0 < Lambda < 1.0):
        raise InvalidScheduleError(f"Lambda must be in (0, 1), got {Lambda}")
    if not (ell > 0 and Delta > 0 and c_m > 0):
        raise InvalidScheduleError("ell, Delta and c_m must all be > 0")
    if not (1 <= s <= d):
        raise InvalidScheduleError(f"need 1 <= s <= d, got s={s}, d={d}")
    T = int(math.ceil(10.0 * ell * Delta / epsilon**2))
    eta = math.sqrt(2.0 * Delta / (ell * T))
    r = epsilon / (40.0 * ell * math.sqrt(d))
    m_raw = c_m * (s * math.log(2.0 * d / s) + math.log(ell * Delta / (Lambda * epsilon**2)))
    m = int(math.ceil(m_raw))
    if m < 1:
        raise InvalidScheduleError(f"derived query count m = {m_raw:.3g} is not positive")
    return TheoremSchedule(
        epsilon=epsilon, Lambda=Lambda, ell=ell, Delta=Delta, s=s, d=d, c_m=c_m,
        T=T, eta=eta, r=r, m=m,
    )


@dataclass(frozen=True)
class PracticalConfig:
    """Inputs of the practical scheme.

    ``skip_threshold`` is the minimum (exclusive) fraction of improving
    responses required to take a step. ``scope_mask`` (token indices, 0-based)
    overrides the mask carried by the initial point when present.
    """

    gamma: float
    radius: float
    m: int
    lambda_g: float
    skip_threshold: float
    iterations: int
    scope_mask: tuple[int, ...] | None = None
    seed: int = 0
    pairs_per_batch: int = 1

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise InvalidScheduleError(f"gamma must be > 0, got {self.gamma}")
        if not self.radius > 0:
            raise InvalidScheduleError(f"radius must be > 0, got {self.radius}")
        if self.m < 1:
            raise InvalidScheduleError(f"m must be >= 1, got {self.m}")
        if not self.lambda_g >= 0:
            raise InvalidScheduleError(f"lambda_g must be >= 0, got {self.lambda_g}")
        if not (0.0 <= self.skip_threshold < 1.0):
            raise InvalidScheduleError(
                f"skip threshold must be in [0, 1), got {self.skip_threshold}"
            )
        if self.iterations < 1:
            raise InvalidScheduleError(f"iterations must be >= 1, got {self.iterations}")
        if self.pairs_per_batch < 1:
            raise InvalidScheduleError(f"pairs_per_batch must be >= 1, got {self.pairs_per_batch}")


@dataclass(frozen=True)
class IterationRecord:
    """Telemetry for one iteration.

    Diagnostics (f, grad_norm) describe the pre-update iterate the
    measurements were taken at; ``theta_hash`` identifies the post-update
    iterate, so a skipped iteration repeats the previous hash.
    """

    iteration: int
    oracle_calls: int
    negative_fraction: float
    stepsize_applied: float
    skipped: bool
    degenerate: bool
    theta_hash: str
    f_value: float | None = None
    grad_norm: float | None = None


CSV_HEADER = ("iter", "oracle_calls", "neg_fraction", "step", "skipped", "f", "grad_norm")


@dataclass
class Trajectory:
    """Per-iteration records plus the final iterate and its diagnostics."""

    records: list[IterationRecord] = field(default_factory=list)
    final_theta: ParamVector | None = None
    final_f: float | None = None
    final_grad_norm: float | None = None
    # seconds in measure_bits and in the estimator, timed per batch
    measure_seconds: float = field(default=0.0, compare=False)
    estimate_seconds: float = field(default=0.0, compare=False)

    @property
    def total_oracle_calls(self) -> int:
        return sum(rec.oracle_calls for rec in self.records)

    @property
    def min_grad_norm(self) -> float | None:
        """Best gradient norm seen along the trajectory (synthetic runs only)."""
        norms = [rec.grad_norm for rec in self.records if rec.grad_norm is not None]
        if self.final_grad_norm is not None:
            norms.append(self.final_grad_norm)
        return min(norms) if norms else None

    def oracle_calls_until_grad_below(self, threshold: float) -> int | None:
        """Cumulative calls issued strictly before the first iterate under threshold."""
        calls = 0
        for rec in self.records:
            if rec.grad_norm is not None and rec.grad_norm < threshold:
                return calls
            calls += rec.oracle_calls
        if self.final_grad_norm is not None and self.final_grad_norm < threshold:
            return calls
        return None

    def csv_rows(self) -> list[tuple[str, ...]]:
        rows = [tuple(CSV_HEADER)]
        for rec in self.records:
            rows.append(
                (
                    str(rec.iteration),
                    str(rec.oracle_calls),
                    repr(rec.negative_fraction),
                    repr(rec.stepsize_applied),
                    str(int(rec.skipped)),
                    "" if rec.f_value is None else repr(rec.f_value),
                    "" if rec.grad_norm is None else repr(rec.grad_norm),
                )
            )
        return rows


def loop_profile(trajectories: Sequence[Trajectory]) -> dict:
    """Counts and loop seconds of ``trajectories``, summed; wasted queries are skipped batches'."""
    skipped = [rec for traj in trajectories for rec in traj.records if rec.skipped]
    return {
        "oracle_queries": sum(traj.total_oracle_calls for traj in trajectories),
        "skipped_iterations": len(skipped),
        "degenerate_iterations": sum(rec.degenerate for rec in skipped),
        "wasted_queries": sum(rec.oracle_calls for rec in skipped),
        "measure_seconds": sum(traj.measure_seconds for traj in trajectories),
        "estimate_seconds": sum(traj.estimate_seconds for traj in trajectories),
    }


def _diagnostics(objective, theta: ParamVector) -> tuple[float | None, float | None]:
    if objective is None:
        return None, None
    f_val = float(objective.value(theta.values))
    grad = np.asarray(objective.gradient(theta.values))
    return f_val, float(np.linalg.norm(grad))


def _descend(
    oracle_at: Callable[[int], Callable], theta: ParamVector, iterations: int, radius: float,
    m: int, rng: RngState, estimate: Callable, stepsize: Callable[[float], float],
    skip_threshold: float, objective=None, stop_grad_norm: float | None = None,
) -> Trajectory:
    """The measure -> estimate -> step loop both schemes configure.

    Iteration t (from 1) measures m bits with ``oracle_at(t)`` and steps by
    ``stepsize(rho)`` along the negative of ``estimate(batch)`` when the
    improving fraction rho strictly exceeds ``skip_threshold``; otherwise,
    and on a degenerate batch, the iterate is kept and the iteration is
    flagged as skipped. ``stop_grad_norm`` ends the run at the first iterate
    whose true gradient norm (synthetic runs only) falls below it.
    """
    traj = Trajectory()
    for t in range(1, iterations + 1):
        f_val, grad_norm = _diagnostics(objective, theta)
        if stop_grad_norm is not None and grad_norm is not None and grad_norm < stop_grad_norm:
            break
        started = time.perf_counter()
        try:
            batch = measure_bits(oracle_at(t), theta, radius, m, rng)
        except OracleError as exc:
            raise OracleError(f"iteration {t}: {exc}") from exc
        traj.measure_seconds += (measured := time.perf_counter()) - started
        rho = batch.negative_fraction()
        step, skipped, degenerate = 0.0, rho <= skip_threshold, False
        if not skipped:
            try:
                direction = estimate(batch).direction
            except DegenerateMeasurementError:
                skipped = degenerate = True
            traj.estimate_seconds += time.perf_counter() - measured
            if not skipped:
                step = stepsize(rho)
                theta = theta.with_scope_values(theta.scope_values() - step * direction)
        traj.records.append(IterationRecord(
            iteration=t, oracle_calls=batch.oracle_calls, negative_fraction=rho,
            stepsize_applied=step, skipped=skipped, degenerate=degenerate,
            theta_hash=theta.content_hash(), f_value=f_val, grad_norm=grad_norm,
        ))
    traj.final_theta = theta
    traj.final_f, traj.final_grad_norm = _diagnostics(objective, theta)
    return traj


def run_basic(
    oracle,
    theta0: ParamVector,
    schedule: TheoremSchedule,
    rng: RngState,
    objective=None,
    stop_grad_norm: float | None = None,
) -> Trajectory:
    """Fixed-stepsize descent driven by the exact direction solver, over every batch."""
    return _descend(
        lambda t: oracle, theta0, schedule.T, schedule.r, schedule.m, rng,
        estimate=lambda batch: solve_1bge_exact(batch, schedule.s),
        stepsize=lambda rho: schedule.eta,
        skip_threshold=-math.inf,  # the basic scheme uses every batch
        objective=objective,
        stop_grad_norm=stop_grad_norm,
    )


def run_practical(
    oracle,
    theta0: ParamVector,
    config: PracticalConfig,
    data_stream: Sequence | None = None,
    rng: RngState | None = None,
    objective=None,
) -> Trajectory:
    """Iterate the practical scheme for ``config.iterations`` steps.

    Each iteration measures m bits in the masked subspace, estimates a
    clipped normalized direction, and updates the in-scope coordinates by
    ``gamma * rho`` along its negative, where rho is the fraction of
    improving responses, unless rho is at or below the skip threshold.
    With a preference ``data_stream``, iteration t binds the oracle to the
    next ``pairs_per_batch`` pairs in round-robin order (one epoch = one pass),
    and ``oracle`` must accept ``(theta, theta_prime, pairs)``. Without one,
    ``oracle`` is called as ``(theta, theta_prime)`` directly.
    """
    if config.scope_mask is not None:
        theta0 = ParamVector(theta0.values, np.asarray(config.scope_mask, dtype=np.intp))
    pairs = list(data_stream) if data_stream is not None else None
    if pairs is not None and not pairs:
        raise InvalidScheduleError("data stream must contain at least one pair")

    def oracle_at(t: int) -> Callable:
        if pairs is None:
            return oracle
        n = len(pairs)
        start = ((t - 1) * config.pairs_per_batch) % n
        chosen = tuple(pairs[(start + j) % n] for j in range(min(config.pairs_per_batch, n)))
        return lambda theta, theta_prime: oracle(theta, theta_prime, chosen)

    return _descend(
        oracle_at, theta0, config.iterations, config.radius, config.m,
        rng if rng is not None else RngState(config.seed),
        estimate=lambda batch: estimate_normalized_clip(batch, config.lambda_g),
        stepsize=lambda rho: config.gamma * rho,
        skip_threshold=config.skip_threshold,
        objective=objective,
    )
