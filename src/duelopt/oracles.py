"""Comparison oracles and batched 1-bit measurement collection.

Two oracles are provided: a function-value comparison (is the candidate point
strictly better under a hidden objective?) and a preference comparison over a
policy and a batch of preference pairs (does the candidate strictly raise the
likelihood of every preferred response and strictly lower that of every
dispreferred one?). Both return only a sign, never a value.

``measure_bits`` asks the oracle once per perturbation direction, drawing
the directions, building their candidate points, querying and summing one
chunk at a time. A batch keeps the signs and the signed direction sum,
which is all either direction estimator reads, so no (m, k) direction
matrix outlives a chunk.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Sequence
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .core import ParamVector, RngState, _rows_per_chunk, embed_perturbation
from .errors import DimensionError, InvalidBatchError, OracleError


class Sign(enum.IntEnum):
    """Oracle verdict: MINUS means the candidate point is strictly better."""

    MINUS = -1
    PLUS = 1


@dataclass(frozen=True, eq=False)
class BitMeasurementBatch:
    """m one-bit measurements: the oracle signs and their signed direction sum.

    ``signs`` holds the m +/-1 responses, ``direction_sum`` the sum
    ``sum_i signs[i] * directions[i]`` (a read-only copy of the caller's),
    and ``iteration`` the counter block whose substreams gave the directions:
    direction i is ``RngState(seed).sphere_rows(iteration, 1, k, i)[0]``,
    which also draws the rows before it that share its key. The batch keeps
    the sum, not the (m, k) rows: ``measure_bits`` streams it chunk by chunk,
    and ``from_directions`` reduces rows a caller holds.
    """

    signs: np.ndarray
    direction_sum: np.ndarray = field(repr=False)
    radius: float
    iteration: int

    def __post_init__(self) -> None:
        total = np.array(self.direction_sum, dtype=np.float64)
        if total.ndim != 1 or total.size == 0:
            raise InvalidBatchError("direction sum must be a nonempty 1-D array")
        object.__setattr__(self, "signs", _checked_signs(self.signs))
        if not self.radius > 0:
            raise InvalidBatchError(f"radius must be > 0, got {self.radius}")
        total.setflags(write=False)
        object.__setattr__(self, "direction_sum", total)

    @classmethod
    def from_directions(
        cls, directions: np.ndarray, signs: np.ndarray, radius: float, iteration: int
    ) -> BitMeasurementBatch:
        """The batch of the unit rows ``directions`` (within 1e-9), reduced once in index order."""
        # a copy of the caller's rows, since the sum is taken in place
        dirs = np.array(directions, dtype=np.float64)
        if dirs.ndim != 2 or dirs.shape[0] < 1:
            raise InvalidBatchError("directions must be a nonempty (m, k) matrix")
        signs = _checked_signs(signs)
        if signs.shape != dirs.shape[:1]:
            raise InvalidBatchError("signs length must match direction count")
        _check_unit_rows(dirs)
        return cls(signs, _add_signed_rows(None, dirs, signs), radius, iteration)

    @property
    def m(self) -> int:
        return len(self.signs)

    def negative_fraction(self) -> float:
        """Fraction of queries where the perturbed point was strictly better."""
        return float(np.count_nonzero(self.signs == -1)) / self.m

    def signed_direction_sum(self) -> np.ndarray:
        """Sum of sign-weighted directions, accumulated in index order (a fresh copy)."""
        return self.direction_sum.copy()


def _checked_signs(signs) -> np.ndarray:
    """``signs`` as a read-only int8 array, once each is known to be +1 or -1."""
    # values are checked before the int8 cast, which would wrap 255 or truncate 1.7
    raw = np.asarray(signs)
    if raw.ndim != 1 or raw.size == 0:
        raise InvalidBatchError("signs must be a nonempty 1-D array")
    if not np.all((raw == 1) | (raw == -1)):
        raise InvalidBatchError("signs must be +1 or -1")
    out = raw.astype(np.int8)
    out.setflags(write=False)
    return out


def _check_unit_rows(rows: np.ndarray) -> None:
    # row norms without an (m, k) temporary; the 1e-9 tolerance hides their last bits
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    # written so that a NaN norm fails too
    if not np.all(np.abs(norms - 1.0) <= 1e-9):
        raise InvalidBatchError("direction rows must be unit vectors")


def _add_signed_rows(total: np.ndarray | None, rows: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """``total`` plus the rows weighted by ``signs``, overwriting ``rows``.

    ``total`` is None before the first chunk. numpy's own reduction (no
    BLAS) keeps the result bit-reproducible. At k >= 2 it adds the rows of
    axis 0 in index order from +0.0, so prepending the running total gives
    the bits of one reduction over all the rows, for any chunking. At k = 1
    it sums the column pairwise, so only a batch reduced in one piece has
    those bits.
    """
    rows *= signs[:, None]
    if total is not None:
        rows = np.concatenate((total[None, :], rows))
    return np.add.reduce(rows, axis=0)


def compare_function(
    objective: Callable[[np.ndarray], float],
    theta: ParamVector,
    theta_prime: ParamVector,
) -> Sign:
    """Sign of ``f(theta_prime) - f(theta)``: MINUS iff strictly smaller.

    Ties (including a constant objective) fall through to PLUS; a value that
    is not finite raises ``OracleError``. ``f(theta)`` comes from
    ``theta.evaluate(objective)``, so a batch of queries about one base point
    evaluates it once.
    """
    if theta.dim != theta_prime.dim:
        raise DimensionError("points must share a dimension")
    f_base = float(theta.evaluate(objective))
    f_cand = float(objective(theta_prime.values))
    if not (math.isfinite(f_base) and math.isfinite(f_cand)):
        raise OracleError(f"objective evaluated to {f_cand if math.isfinite(f_base) else f_base}")
    return Sign.MINUS if f_cand < f_base else Sign.PLUS


def compare_preference(
    policy_at: Callable[[np.ndarray, tuple], Sequence[float]],
    theta: ParamVector,
    theta_prime: ParamVector,
    batch: Sequence,
) -> Sign:
    """Preference verdict over a batch of (prompt, preferred, dispreferred) pairs.

    MINUS iff for EVERY pair the candidate strictly raises the preferred
    log-likelihood and strictly lowers the dispreferred one; any equality or
    reversal anywhere yields PLUS, and a NaN value raises ``OracleError``.
    Comparisons happen in log space, which is monotone-equivalent to raw
    likelihoods and safe for long sequences.
    ``policy_at`` gives every pair's two values in one call. Both points'
    values come from ``evaluate``: a batch of queries about one base point
    evaluates it once, and when ``policy_at`` has a row form, as
    ``ToyPolicy.preference_evaluator`` does, a candidate build's values come
    from one pass per group of its rows.
    """
    if len(batch) == 0:
        raise InvalidBatchError("preference batch must be nonempty")
    if theta.dim != theta_prime.dim:
        raise DimensionError("points must share a dimension")
    pairs = tuple(batch)
    base = theta.evaluate(policy_at, pairs)
    cand = theta_prime.evaluate(policy_at, pairs)
    # entries 2j and 2j + 1 are pair j's preferred and dispreferred values
    for j in range(0, len(cand), 2):
        if not (cand[j] > base[j] and cand[j + 1] < base[j + 1]):
            break
    else:
        return Sign.MINUS  # every value passed a comparison, which NaN fails
    if any(map(math.isnan, base)) or any(map(math.isnan, cand)):
        raise OracleError("log-likelihood evaluated to NaN")
    return Sign.PLUS


def measure_bits(
    oracle: Callable[[ParamVector, ParamVector], Sign],
    theta: ParamVector,
    radius: float,
    m: int,
    rng: RngState,
) -> BitMeasurementBatch:
    """Collect m one-bit measurements around ``theta``.

    Direction i is row i of the block's keyed rows (``core``), so the batch
    is identical no matter how the oracle queries are scheduled. ``signs[i]``
    is the oracle's answer at candidate i, ``theta + radius * row i``,
    asked once per row in index order; an answer that does not equal +1 or
    -1 raises ``OracleError``. ``RngState.sphere_chunks`` gives the
    rows in chunks of about 65,536 floats, a whole number of key groups,
    filled ahead while the last chunk is queried. Each chunk is checked,
    its candidates are built and queried, and its rows are added to the
    signed sum, so no (m, k) matrix is ever held. The candidates are built
    by one ``embed_perturbation`` call per run of rows whose candidates
    take about 65,536 floats: the whole chunk without a scope mask, where
    a candidate is as long as its row, and fewer rows at a time with a
    mask that leaves k below theta's dim. A non-finite candidate anywhere
    in a build raises ``ValueError`` before the oracle is asked about any
    candidate of that build.
    The sum has the bits of one reduction over all m rows; at k = 1 that
    holds while m fits one chunk (65,536 rows), beyond which the pairwise
    column sum is taken per chunk.
    """
    if m < 1:
        raise InvalidBatchError(f"m must be >= 1, got {m}")
    if not radius > 0:
        raise InvalidBatchError(f"radius must be > 0, got {radius}")
    block = rng.next_block()
    k, step = theta.scope_dim, _rows_per_chunk(theta.dim)
    signs = np.empty(m, dtype=np.int8)
    total = None
    # closed on the way out, so that no row is filled once this returns
    with closing(rng.sphere_chunks(block, m, k)) as chunks:
        for start, rows in chunks:
            _check_unit_rows(rows)
            for j in range(0, len(rows), step):
                candidates = embed_perturbation(theta, rows[j:j + step], radius)
                for i, candidate in enumerate(candidates, start + j):
                    answer = oracle(theta, candidate)
                    if answer != 1 and answer != -1:
                        raise OracleError(f"oracle answered {answer!r}, not +1 or -1")
                    signs[i] = answer
                # they hold their build's array, freed before the next one is made
                del candidates, candidate
            total = _add_signed_rows(total, rows, signs[start:start + len(rows)])
    return BitMeasurementBatch(signs, total, radius, block)
