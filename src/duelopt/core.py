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
and ``RngState.sphere_chunks`` fills long rows on two threads with every
byte the same. ``oracles`` is the one place that checks the rows are unit.
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

# Rows at least this long are filled on two threads. Each row takes the
# interpreter lock for a few us around its fill, which runs without it; the
# more rows a chunk holds, the more often the two threads wait on each other.
# In the descent loop on a 2-core VM, halving each chunk's draw made a run at
# d = 10^4 (6 rows per chunk) about 15% faster; d = 6000 was no faster, and
# d = 2000 and the bench sweep's d = 800 were slower.
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

    def sphere_rows(self, block: int, count: int, dim: int, start: int = 0) -> np.ndarray:
        """(count, dim) unit rows; row i is the first row of ``substream(block, start + i)``.

        The one-thread reference draw. Every row is filled by ``_fill_rows``,
        which re-keys its generator to the row's own substream first, so a
        row's bytes depend on nothing but its key: rows drawn in chunks equal
        rows drawn at once, and any thread may fill any row.
        """
        if dim < 1:  # a row of no floats has norm zero, and would be redrawn forever
            raise DimensionError(f"dimension must be >= 1, got {dim}")
        rows = np.empty((count, dim), dtype=np.float64)
        self._fill_rows(self.substream(block, start), rows, block, start)
        return self._normalize(rows, block, start)

    def sphere_chunks(self, block: int, count: int, dim: int, chunk: int):
        """Yield ``(start, rows)``, the rows of ``sphere_rows(block, count, dim)`` by ``chunk``.

        ``rows`` is a view into a buffer a later step refills. Two or more rows
        of at least ``_SPLIT_MIN_DIM`` floats on two CPUs are filled ahead:
        while the caller uses chunk j, the worker fills chunk j+1 from its last
        row down, then the calling thread fills the rest from the first row up.
        Both generators are opened here; once the iterator is closed, no fill runs.
        """
        if dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {dim}")
        size = min(chunk, count)
        starts = range(0, count, size)
        gen = self.substream(block)
        if count < 2 or dim < _SPLIT_MIN_DIM or _cpu_count() < 2:
            buffer = np.empty((size, dim), dtype=np.float64)
            for start in starts:
                rows = buffer[:count - start]
                self._fill_rows(gen, rows, block, start)
                yield start, self._normalize(rows, block, start)
            return
        buffers = np.empty((2, size, dim), dtype=np.float64)
        worker, worker_gen = _row_worker(), self.substream(block, count - 1)

        def ahead(j: int) -> _Claims:
            rows = buffers[j % 2, :count - starts[j]]
            return _Claims(self, rows, block, starts[j], worker, worker_gen)

        claims = ahead(0)
        try:
            for j, start in enumerate(starts):
                rows = claims.rows
                claims.fill(gen, True)
                claims.close()
                if j + 1 < len(starts):
                    claims = ahead(j + 1)
                yield start, self._normalize(rows, block, start)
        finally:
            claims.close()

    def _normalize(self, rows: np.ndarray, block: int, start: int) -> np.ndarray:
        """Scale ``rows``, rows ``start``... of ``block``, to unit length in place."""
        # the sum of squares np.linalg.norm(rows, axis=1) takes for float64,
        # without the copy of the rows its conj() makes
        norms = np.sqrt(np.add.reduce(rows * rows, axis=1))
        for i in np.flatnonzero(norms == 0.0):
            # probability zero; redrawn from the row's own substream, past
            # every draw of norm zero
            row, gen = rows[i:i + 1], self.substream(block, start + int(i))
            while norms[i] == 0.0:
                row[...] = gen.standard_normal(row.shape)
                norms[i] = np.sqrt(np.add.reduce(row * row, axis=1))[0]
        # divided in place, not into a second array of the rows' shape
        rows /= norms[:, None]
        return rows

    def _fill_rows(
        self, gen: np.random.Generator, rows: np.ndarray, block: int, start: int
    ) -> None:
        """Fill row i of ``rows`` with the first normals of ``substream(block, start + i)``.

        Before each row, ``gen``'s Philox bit generator is set to the state a
        fresh substream starts in (``_fresh_philox``). Of the key's two 64-bit
        words only the row index changes between rows: the low word is
        ``self.seed``, the high word ``block | i << 32`` (both halves modulo
        2**32).
        """
        bits = gen.bit_generator
        key = [self.seed, 0]
        fresh = _fresh_philox(key)
        high = block & _MASK32
        for i, row in enumerate(rows, start):
            key[1] = high | (i & _MASK32) << 32
            bits.state = fresh
            gen.standard_normal(out=row)

    def next_block(self) -> int:
        """Reserve the next block index and advance the counter."""
        block = self.counter
        self.counter += 1
        return block


def _fresh_philox(key: list[int]) -> dict:
    """State of a fresh ``Philox(key=key[0] | key[1] << 64)``, ``key`` held, not copied.

    Set as a ``bit_generator.state``, it re-keys a generator to a fresh one's
    bytes. Plain ints do it faster than uint64 arrays, holding the interpreter
    lock for less time.
    """
    return {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Claims:
    """One chunk's rows, claimed one at a time under one lock: the calling
    thread takes them from the first row up, the worker from the last down."""

    def __init__(self, rng: RngState, rows: np.ndarray, block: int, start: int, worker, gen):
        self.rng, self.rows, self.block, self.start = rng, rows, block, start
        self.low, self.high = 0, len(rows)  # rows low..high-1 are unclaimed
        self.lock = threading.Lock()
        self.job = worker.submit(self.fill, gen, False)  # the worker's part

    def fill(self, gen: np.random.Generator, from_low: bool) -> None:
        """Fill rows from one end, one at a time, until none is unclaimed."""
        rows = self.rows  # read before any claim: ``close`` drops it once all are claimed
        while True:
            with self.lock:
                if self.low == self.high:
                    return
                if from_low:
                    i, self.low = self.low, self.low + 1
                else:
                    self.high -= 1
                    i = self.high
            self.rng._fill_rows(gen, rows[i:i + 1], self.block, self.start + i)

    def close(self) -> None:
        """Claim every row left; wait for the worker's row in flight and raise its error."""
        with self.lock:
            self.low = self.high
        self.rows = None  # a job the worker has not started keeps no buffer alive
        if not self.job.cancel():  # a job not started is dropped, not waited for
            self.job.result()


_row_pool = None  # (pid, executor) of the worker thread that fills rows ahead
_row_pool_lock = threading.Lock()


def _row_worker():
    """The executor whose one thread fills rows ahead for ``sphere_chunks``.

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
        # the reduction ``.all()`` runs, without the method's Python wrapper
        if not np.logical_and.reduce(np.isfinite(values)):
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
