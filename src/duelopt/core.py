"""Deterministic randomness, unit-sphere sampling, and masked parameter vectors.

Randomness is counter-based: every consumer derives an independent Philox
substream from ``(seed, block, index)``, so the i-th perturbation of block t
is reproducible regardless of the order (or concurrency) in which substreams
are actually drawn.

Perturbation directions are plain float64 rows. ``RngState.sphere_rows``
draws a block's rows from one generator re-keyed to ``(seed, block, i)``
before row i, which gives the same bytes as one fresh substream per row
without paying for a generator per row; a chunk of rows starting at row
``start`` has the bytes of the same rows drawn in one call. ``oracles`` is
the one place that checks the rows are unit.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


@dataclass
class RngState:
    """Counter-based random state.

    ``seed`` selects the family of streams; ``counter`` is the next unused
    block index. Substreams are keyed by ``(seed, block, index)`` packed into
    a 128-bit Philox key, so distinct paths never collide within a run.
    """

    seed: int
    counter: int = 0

    def __post_init__(self) -> None:
        self.seed = int(self.seed) & _MASK64
        if self.counter < 0:
            raise ValueError("counter must be nonnegative")

    def substream(self, block: int, index: int = 0) -> np.random.Generator:
        """Generator for a fixed derivation path; does not advance the counter."""
        return np.random.Generator(np.random.Philox(key=self._key(block, index)))

    def _key(self, block: int, index: int) -> int:
        return self.seed | ((block & _MASK32) << 64) | ((index & _MASK32) << 96)

    def sphere_rows(self, block: int, count: int, dim: int, start: int = 0) -> np.ndarray:
        """(count, dim) unit rows; row i is the first row of ``substream(block, start + i)``.

        Building a generator costs more than drawing a short row, so every
        row comes from one generator: before row i its Philox bit generator is
        re-keyed to ``(seed, block, start + i)`` with counter 0 and an empty
        buffer, the state a fresh ``substream(block, start + i)`` starts in,
        so the row's bytes are the same, and rows drawn in chunks equal rows
        drawn at once. The generator is local to the call, so no other caller
        sees it move.
        """
        rows = np.empty((count, dim), dtype=np.float64)
        gen = self.substream(block, start)
        fresh = gen.bit_generator.state
        for i in range(count):
            if i:
                key = self._key(block, start + i)
                fresh["state"]["key"] = np.array([key & _MASK64, key >> 64], dtype=np.uint64)
                gen.bit_generator.state = fresh
            gen.standard_normal(out=rows[i])
        norms = np.linalg.norm(rows, axis=1)
        for i in np.flatnonzero(norms == 0.0):
            # probability zero; redone exactly as its own substream would
            rows[i] = _sphere_rows(self.substream(block, start + int(i)), 1, dim)[0]
            norms[i] = 1.0
        # divided in place, not into a second (count, dim) array
        rows /= norms[:, None]
        return rows

    def next_block(self) -> int:
        """Reserve the next block index and advance the counter."""
        block = self.counter
        self.counter += 1
        return block


@dataclass(frozen=True)
class ParamVector:
    """Dense parameter vector with an optional perturbation-scope mask.

    ``scope_mask`` holds the (0-based, sorted, unique) indices of the
    coordinates that perturbation and updates may touch; every other
    coordinate is carried through operations bit-identically. With no mask
    the full vector is in scope.
    """

    values: np.ndarray
    scope_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise DimensionError("parameter vector must be a nonempty 1-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("parameter vector contains NaN or Inf")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.scope_mask is not None:
            m = np.asarray(self.scope_mask, dtype=np.intp)
            if m.ndim != 1 or m.size == 0:
                raise DimensionError("scope mask must be a nonempty 1-D index array")
            if np.any(m < 0) or np.any(m >= v.size):
                raise DimensionError("scope mask index out of range")
            if np.any(np.diff(m) <= 0):
                raise DimensionError("scope mask indices must be strictly increasing")
            m = m.copy()
            m.setflags(write=False)
            object.__setattr__(self, "scope_mask", m)

    @property
    def dim(self) -> int:
        return self.values.size

    @property
    def scope_dim(self) -> int:
        """Dimension of the perturbable subspace."""
        return self.dim if self.scope_mask is None else self.scope_mask.size

    def scope_values(self) -> np.ndarray:
        """Copy of the in-scope coordinates."""
        if self.scope_mask is None:
            return self.values.copy()
        return self.values[self.scope_mask]

    def with_scope_values(self, new_scope: np.ndarray) -> "ParamVector":
        """New vector with in-scope coordinates replaced; others bit-identical."""
        new_scope = np.asarray(new_scope, dtype=np.float64)
        if new_scope.shape != (self.scope_dim,):
            raise DimensionError(
                f"expected {self.scope_dim} in-scope values, got {new_scope.shape}"
            )
        if self.scope_mask is None:
            out = new_scope.copy()
        else:
            out = self.values.copy()
            out[self.scope_mask] = new_scope
        return ParamVector._derived(out, self.scope_mask)

    @classmethod
    def _derived(cls, values: np.ndarray, scope_mask: np.ndarray | None) -> "ParamVector":
        """Vector derived from an already-checked one, with one check.

        ``values`` is a fresh float64 array of the parent's shape, owned by
        the new vector, and ``scope_mask`` is the parent's checked read-only
        mask. So only finiteness is checked, and ``values`` is made read-only
        instead of copied. ``ParamVector(...)`` keeps every check for input
        from outside.
        """
        if not np.isfinite(values).all():
            raise ValueError("parameter vector contains NaN or Inf")
        values.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "values", values)
        object.__setattr__(out, "scope_mask", scope_mask)
        return out

    def evaluate(self, fn: Callable, *args):
        """``fn(self.values, *args)``, computed once per ``(fn, *args)`` and kept.

        ``fn`` and ``args`` key the table, so they must be hashable. The
        table is made on first use and is no dataclass field, so eq and repr
        ignore it. The vector is immutable, so a kept value cannot go stale,
        and it is freed with the vector. An oracle asks about one base point
        m times per batch; its base values are computed here once.
        """
        memo = self.__dict__.setdefault("_evaluated", {})
        key = (fn, *args)
        if key not in memo:
            memo[key] = fn(self.values, *args)
        return memo[key]

    def content_hash(self) -> str:
        """SHA-256 of the raw float64 bytes (mask excluded)."""
        return hashlib.sha256(np.ascontiguousarray(self.values).tobytes()).hexdigest()


def sample_unit_sphere_batch(dim: int, count: int, rng: RngState) -> np.ndarray:
    """Draw ``count`` uniform sphere points as a (count, dim) matrix from one block."""
    if dim < 1:
        raise DimensionError(f"dimension must be >= 1, got {dim}")
    if count < 1:
        raise ValueError("count must be >= 1")
    gen = rng.substream(rng.next_block())
    return _sphere_rows(gen, count, dim)


def _sphere_rows(gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
    # normalized Gaussian rows are uniform on the sphere by rotational invariance
    rows = gen.standard_normal((count, dim))
    norms = np.linalg.norm(rows, axis=1)
    # a zero draw has probability zero but would poison the normalization
    while np.any(norms == 0.0):
        bad = norms == 0.0
        rows[bad] = gen.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(rows, axis=1)
    return rows / norms[:, None]


def embed_perturbation(theta: ParamVector, z: np.ndarray, radius: float) -> ParamVector:
    """Add ``radius * z`` to the in-scope coordinates of ``theta``.

    ``z`` is a 1-D array of length ``theta.scope_dim``. Coordinates outside
    the scope mask are returned bit-identical. The candidate is built with
    one copy of theta's values and one finiteness check, and shares its mask.
    """
    if not radius > 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    if z.shape != (theta.scope_dim,):
        raise DimensionError(
            f"perturbation shape {z.shape} does not match scope dim {theta.scope_dim}"
        )
    # in place into a float64 copy, so a wider or complex z cannot change the dtype
    out = theta.values.copy()
    if theta.scope_mask is None:
        out += radius * z
    else:
        out[theta.scope_mask] += radius * z
    return ParamVector._derived(out, theta.scope_mask)
