"""Deterministic randomness, unit-sphere sampling, and masked parameter vectors.

Randomness is counter-based: every consumer derives an independent Philox
substream from ``(seed, block, index)``, so the i-th perturbation of block t
is reproducible regardless of the order (or concurrency) in which substreams
are actually drawn.

Perturbation directions are plain float64 rows. ``RngState.sphere_rows``
fills row i from a generator re-keyed to ``(seed, block, i)`` just before
it, which gives the same bytes as one fresh substream per row without paying
for a generator per row. A row depends on its key alone, so a chunk of rows
starting at row ``start`` has the bytes of the same rows drawn in one call,
and long rows are filled on two threads with every byte the same.
``oracles`` is the one place that checks the rows are unit.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# Rows at least this long are filled on two threads. A split draw pays for
# waking the worker, and each row takes the interpreter lock for a few us
# around its fill, which runs without it; the more rows a chunk holds, the
# more often the two threads wait on each other. In the descent loop on a
# 2-core VM, a run at d = 10^4 (6 rows per chunk) took about 15% less time;
# d = 6000 was no faster, and d = 2000 and the bench sweep's d = 800 were
# slower.
_SPLIT_MIN_DIM = 8192


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

    def sphere_rows(
        self,
        block: int,
        count: int,
        dim: int,
        start: int = 0,
        gens: list[np.random.Generator] | None = None,
    ) -> np.ndarray:
        """(count, dim) unit rows; row i is the first row of ``substream(block, start + i)``.

        Every row is filled by ``_fill_rows``, which re-keys its generator
        to the row's own substream first, so a row's bytes depend on nothing
        but its key: rows drawn in chunks equal rows drawn at once, and any
        thread may fill any row. Two or more rows of at least
        ``_SPLIT_MIN_DIM`` floats are split when the process may run on two
        CPUs: one worker thread fills the second half while the calling
        thread fills the first.

        ``gens`` holds the generators the fills use, one per half. Each is
        opened through ``substream`` on the calling thread when first
        needed and kept in the list, so a caller drawing one block in chunks
        passes one list to every chunk and opens each generator once.
        Without ``gens`` the generators are local to the call. The worker
        only ever gets a generator and the rows it fills.
        """
        rows = np.empty((count, dim), dtype=np.float64)
        gens = [] if gens is None else gens
        if not gens:
            gens.append(self.substream(block, start))
        half = count // 2
        if half and dim >= _SPLIT_MIN_DIM and _cpu_count() >= 2:
            if len(gens) == 1:
                gens.append(self.substream(block, start + half))
            worker = _row_worker().submit(
                self._fill_rows, gens[1], rows[half:], block, start + half
            )
            try:
                self._fill_rows(gens[0], rows[:half], block, start)
            finally:
                worker.result()
        else:
            self._fill_rows(gens[0], rows, block, start)
        norms = np.linalg.norm(rows, axis=1)
        for i in np.flatnonzero(norms == 0.0):
            # probability zero; redone exactly as its own substream would
            rows[i] = _sphere_rows(self.substream(block, start + int(i)), 1, dim)[0]
            norms[i] = 1.0
        # divided in place, not into a second (count, dim) array
        rows /= norms[:, None]
        return rows

    def _fill_rows(
        self, gen: np.random.Generator, rows: np.ndarray, block: int, start: int
    ) -> None:
        """Fill row i of ``rows`` with the first normals of ``substream(block, start + i)``.

        Before each row, ``gen``'s Philox bit generator is set to the state a
        fresh substream starts in: the row's key, counter 0 and an empty
        buffer. The state is given as plain ints, which gives the same bytes
        as uint64 arrays in less time, and so shortens the part of each row
        that holds the interpreter lock.
        """
        bits = gen.bit_generator
        fresh = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        for i, row in enumerate(rows, start):
            key = self._key(block, i)
            fresh["state"]["key"] = [key & _MASK64, key >> 64]
            bits.state = fresh
            gen.standard_normal(out=row)

    def next_block(self) -> int:
        """Reserve the next block index and advance the counter."""
        block = self.counter
        self.counter += 1
        return block


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_row_pool = None  # (pid, executor) of the split fills' worker thread
_row_pool_lock = threading.Lock()


def _row_worker():
    """The executor whose one thread fills the second half of a split draw.

    It is made on first use, so importing the module starts no thread. A
    forked child does not have the parent's thread, so a child makes its own.
    """
    global _row_pool
    with _row_pool_lock:
        if _row_pool is None or _row_pool[0] != os.getpid():
            # imported here, so that importing duelopt does not import it
            from concurrent.futures import ThreadPoolExecutor

            _row_pool = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="duelopt-rows"))
        return _row_pool[1]


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
