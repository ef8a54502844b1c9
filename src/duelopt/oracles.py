"""Comparison oracles and batched 1-bit measurement collection.

Two oracles are provided: a function-value comparison (is the candidate point
strictly better under a hidden objective?) and a preference comparison over a
policy and a batch of preference pairs (does the candidate strictly raise the
likelihood of every preferred response and strictly lower that of every
dispreferred one?). Both return only a sign, never a value.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .core import ParamVector, RngState, embed_perturbation
from .errors import DimensionError, InvalidBatchError, OracleError


class Sign(enum.IntEnum):
    """Oracle verdict: MINUS means the candidate point is strictly better."""

    MINUS = -1
    PLUS = 1


# (theta, theta_prime) -> Sign
ComparisonOracle = Callable[[ParamVector, ParamVector], Sign]
# (theta_values, prompt, response) -> log-likelihood
LikelihoodEvaluator = Callable[[np.ndarray, Sequence[int], Sequence[int]], float]


@dataclass(frozen=True)
class BitMeasurementBatch:
    """m perturbation directions with their oracle signs.

    ``directions`` is an (m, k) matrix of unit rows; ``signs`` the matching
    +/-1 responses. ``iteration`` records which counter block produced the
    directions, and ``oracle_calls`` equals m. Construction is the one place
    that checks the rows are unit (within 1e-9), the signs and the shapes.
    """

    directions: np.ndarray
    signs: np.ndarray
    radius: float
    iteration: int
    oracle_calls: int

    def __post_init__(self) -> None:
        dirs = np.asarray(self.directions, dtype=np.float64)
        signs = np.asarray(self.signs, dtype=np.int8)
        if dirs.ndim != 2 or dirs.shape[0] < 1:
            raise InvalidBatchError("directions must be a nonempty (m, k) matrix")
        if signs.shape != (dirs.shape[0],):
            raise InvalidBatchError("signs length must match direction count")
        if not np.all(np.abs(signs) == 1):
            raise InvalidBatchError("signs must be +1 or -1")
        if not self.radius > 0:
            raise InvalidBatchError(f"radius must be > 0, got {self.radius}")
        # row norms without an (m, k) temporary; the 1e-9 tolerance hides their last bits
        norms = np.sqrt(np.einsum("ij,ij->i", dirs, dirs))
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise InvalidBatchError("direction rows must be unit vectors")
        dirs = dirs.copy()
        dirs.setflags(write=False)
        signs = signs.copy()
        signs.setflags(write=False)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "oracle_calls", int(self.oracle_calls))

    @property
    def m(self) -> int:
        return self.directions.shape[0]

    def negative_fraction(self) -> float:
        """Fraction of queries where the perturbed point was strictly better."""
        return float(np.count_nonzero(self.signs == -1)) / self.m

    def signed_direction_sum(self) -> np.ndarray:
        """Sum of sign-weighted directions, accumulated in index order."""
        # numpy's own reduction (no BLAS) keeps the result bit-reproducible
        return np.add.reduce(self.signs[:, None].astype(np.float64) * self.directions, axis=0)


def compare_function(
    objective: Callable[[np.ndarray], float],
    theta: ParamVector,
    theta_prime: ParamVector,
    f_base: float | None = None,
) -> Sign:
    """Sign of ``f(theta_prime) - f(theta)``: MINUS iff strictly smaller.

    Ties (including a constant objective) fall through to PLUS. ``f_base``,
    when given, is ``f(theta)`` as the caller already computed it.
    """
    if theta.dim != theta_prime.dim:
        raise DimensionError("points must share a dimension")
    f_base = float(objective(theta.values) if f_base is None else f_base)
    f_cand = float(objective(theta_prime.values))
    if math.isnan(f_base) or math.isnan(f_cand):
        raise OracleError("objective evaluated to NaN")
    return Sign.MINUS if f_cand < f_base else Sign.PLUS


def compare_preference(
    policy_at: LikelihoodEvaluator,
    theta: ParamVector,
    theta_prime: ParamVector,
    batch: Sequence,
) -> Sign:
    """Preference verdict over a batch of (prompt, preferred, dispreferred) pairs.

    MINUS iff for EVERY pair the candidate strictly raises the preferred
    log-likelihood and strictly lowers the dispreferred one; any equality or
    reversal anywhere yields PLUS. Comparisons happen in log space, which is
    monotone-equivalent to raw likelihoods and safe for long sequences.
    """
    if len(batch) == 0:
        raise InvalidBatchError("preference batch must be nonempty")
    if theta.dim != theta_prime.dim:
        raise DimensionError("points must share a dimension")
    for pair in batch:
        lp_base = policy_at(theta.values, pair.prompt, pair.preferred)
        lp_cand = policy_at(theta_prime.values, pair.prompt, pair.preferred)
        if not lp_cand > lp_base:
            return Sign.PLUS
        lm_base = policy_at(theta.values, pair.prompt, pair.dispreferred)
        lm_cand = policy_at(theta_prime.values, pair.prompt, pair.dispreferred)
        if not lm_cand < lm_base:
            return Sign.PLUS
    return Sign.MINUS


def measure_bits(
    oracle: ComparisonOracle,
    theta: ParamVector,
    radius: float,
    m: int,
    rng: RngState,
) -> BitMeasurementBatch:
    """Collect m one-bit measurements around ``theta``.

    Direction i is the unit row that the substream ``(seed, block, i)`` gives,
    so the batch is identical no matter how the oracle queries are scheduled.
    All m rows are drawn up front by ``RngState.sphere_rows``, which re-keys
    one generator per row instead of building m of them; ``signs[i]`` is the
    oracle's answer at ``embed_perturbation(theta, row i, radius)``.
    """
    if m < 1:
        raise InvalidBatchError(f"m must be >= 1, got {m}")
    if not radius > 0:
        raise InvalidBatchError(f"radius must be > 0, got {radius}")
    block = rng.next_block()
    directions = rng.sphere_rows(block, m, theta.scope_dim)
    signs = np.empty(m, dtype=np.int8)
    for i in range(m):
        signs[i] = oracle(theta, embed_perturbation(theta, directions[i], radius))
    return BitMeasurementBatch(
        directions=directions, signs=signs, radius=radius, iteration=block, oracle_calls=m
    )
