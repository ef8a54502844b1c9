"""Deterministic randomness, unit-sphere sampling, and masked parameter vectors.

Randomness is counter-based: every consumer derives an independent Philox
substream from ``(seed, block, index)``, so the i-th perturbation of block t
is reproducible regardless of the order (or concurrency) in which substreams
are actually drawn.

Perturbation directions are plain float64 rows. Row i of block t is the
(i mod g)-th run of ``dim`` normals of ``substream(t, i // g)``: a row
shorter than ``_SPLIT_MIN_DIM`` shares its key with the g rows of its chunk
(g = ``_CHUNK_FLOATS // dim``), a longer one has a key of its own (g = 1).
A row depends on its group's key alone, so rows drawn in chunks, on any
thread, equal rows drawn at once. A row of norm zero becomes e0
(``_normalize``). ``oracles`` checks that the rows are unit.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DimensionError

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_MISSING = object()  # no value kept under a key yet

# Rows at least this long have a key each; shorter ones share one per chunk.
# It picks only the key layout. It was measured for an older split of a
# chunk's rows between two threads: on a 2-core VM that made a run at
# d = 10^4 about 15% faster; d = 6000 was no faster, d = 2000 and 800 slower.
_SPLIT_MIN_DIM = 8192
# rows per chunk times row length stays near this many floats (512 KiB)
_CHUNK_FLOATS = 1 << 16


def _rows_per_chunk(dim: int) -> int:  # rows of dim floats in about a chunk's floats, at least one
    return max(1, _CHUNK_FLOATS // dim)


def _rows_per_key(dim: int) -> int:  # g: one long row, or a chunk's worth of short rows
    return 1 if dim >= _SPLIT_MIN_DIM else _rows_per_chunk(dim)


@dataclass
class RngState:
    """Counter-based random state.

    ``seed`` selects the family of streams; ``counter`` is the next unused
    block index. Substreams are keyed by ``(seed, block, index)`` packed into
    a 128-bit Philox key, block and index modulo 2**32, so two substreams
    share a key exactly when their blocks and indices agree modulo 2**32. A
    generator made outside this class as ``Philox(key=seed)`` is
    ``substream(0, 0)``, the key of direction block 0.
    """

    seed: int
    counter: int = 0
    # (pid, draw, job, groups, generator, buffers) of a chunk filled ahead for the next draw
    _ahead: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.seed = int(self.seed) & _MASK64
        if self.counter < 0:
            raise ValueError("counter must be nonnegative")

    def __reduce__(self):  # a copy or pickle gets (seed, counter), not this state's fill ahead
        return RngState, (self.seed, self.counter)

    def substream(self, block: int, index: int = 0) -> np.random.Generator:
        """Generator for a fixed derivation path; does not advance the counter."""
        return np.random.Generator(np.random.Philox(key=self._key(block, index)))

    def _key(self, block: int, index: int) -> int:
        return self.seed | ((block & _MASK32) << 64) | ((index & _MASK32) << 96)

    def sphere_rows(self, block: int, count: int, dim: int, start: int = 0) -> np.ndarray:
        """(count, dim) unit rows: rows ``start``... of ``block``, laid out as the module says.

        The one-thread reference draw that tests and row regeneration use.
        """
        if dim < 1:  # a row of no floats has no direction
            raise DimensionError(f"dimension must be >= 1, got {dim}")
        rows = np.empty((count, dim), dtype=np.float64)
        gen = self.substream(block, start // _rows_per_key(dim))
        gen.standard_normal(start % _rows_per_key(dim) * dim)  # the group's rows before ``start``
        self._fill_rows(gen, rows, block, start)
        return _normalize(rows)

    def sphere_chunks(self, block: int, count: int, dim: int):
        """Yield ``(start, rows)``, the rows of ``sphere_rows(block, count, dim)`` by chunk.

        A chunk is about ``_CHUNK_FLOATS`` floats and a whole number of key
        groups: one group of short rows, or ``_CHUNK_FLOATS // dim`` long
        rows (at least one). ``rows`` is a view into a buffer that a later
        step, or this state's next draw, refills. The worker thread fills
        chunk j+1 while the caller uses chunk j, taking groups from the
        chunk's last one down; the caller takes those left from the first
        one up. On one CPU the two threads share it, and the rows keep their
        bytes whichever thread fills a group. With the last chunk the worker
        fills chunk 0 of ``block + 1`` if that is the next block, for a next
        draw of this shape (any other drops it). Once the iterator is closed
        early, no fill runs.
        """
        if dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {dim}")
        size, per_key = min(_rows_per_chunk(dim), count), _rows_per_key(dim)
        starts, worker = range(0, count, size), _row_worker()
        job, groups, gen, buffers = self._take_ahead((block, count, dim)) or (
            None, None, self.substream(block), np.empty((2, size, dim)))

        def fill_ahead(part, blk, first):  # a chunk's groups, handed to the worker
            left = deque(range(first, first + len(part), per_key))
            return worker.submit(self._fill_groups, _row_pool[2], part, blk, first, left.pop), left

        try:
            for j, start in enumerate(starts):
                rows = buffers[j % 2][:count - start]
                if job is None or job.cancel():  # a job not started is dropped, not waited for
                    job, groups = None, deque(range(start, start + len(rows), per_key))
                self._fill_groups(gen, rows, block, start, groups.popleft)
                if job is not None:
                    job.result()  # the worker's group in flight, raising its error
                job, spare = None, buffers[(j + 1) % 2]
                if j + 1 < len(starts):
                    job, groups = fill_ahead(spare[:count - starts[j + 1]], block, starts[j + 1])
                elif self.counter == block + 1:
                    self._ahead = (os.getpid(), (block + 1, count, dim),
                                   *fill_ahead(spare, block + 1, 0), gen, [spare, buffers[j % 2]])
                yield start, _normalize(rows)
        except BaseException:  # closed before its end: no fill is left running
            if job is not None:
                _drop(job, groups)
            self._take_ahead(None)
            raise

    def _take_ahead(self, key):
        """``(job, groups, gen, buffers)`` of the fill ahead for ``key``; any other is dropped."""
        ahead, self._ahead = self._ahead, None
        if ahead is not None and ahead[0] == os.getpid():  # a forked child has no such fill
            if ahead[1] == key:
                return ahead[2:]
            _drop(*ahead[2:4])
        return None

    def _fill_rows(self, gen: np.random.Generator, rows: np.ndarray, block: int, start: int):
        """Fill ``rows``, rows ``start``... of ``block``; ``gen`` has drawn the group's rows before.

        At the first row of each key group, ``gen`` is re-keyed to the state a
        fresh ``substream(block, group)`` starts in (``_fresh_philox``), and
        each group's rows are drawn in one call.
        """
        per_key, bits = _rows_per_key(rows.shape[1]), gen.bit_generator
        i, end = start, start + len(rows)
        while i < end:
            group, skip = divmod(i, per_key)
            if skip == 0:
                bits.state = _fresh_philox([self.seed, self._key(block, group) >> 64])
            n = min(per_key - skip, end - i)
            gen.standard_normal(out=rows[i - start:i - start + n])
            i += n

    def _fill_groups(self, gen: np.random.Generator, rows: np.ndarray, block: int, start: int,
                     pop: Callable[[], int]) -> None:
        """Fill the key groups of ``rows``, rows ``start``... of ``block``, that ``pop`` takes.

        ``pop`` gives a group's first row until the groups run out. The
        caller and the worker take groups from the two ends of one deque,
        whose ``pop`` and ``popleft`` are atomic, so no group is filled twice.
        """
        per_key = _rows_per_key(rows.shape[1])
        while True:
            try:
                first = pop()
            except IndexError:
                return
            self._fill_rows(gen, rows[first - start:first - start + per_key], block, first)

    def next_block(self) -> int:
        """Reserve the next block index and advance the counter."""
        block = self.counter
        self.counter += 1
        return block


def _normalize(rows: np.ndarray) -> np.ndarray:
    """Scale ``rows`` to unit length in place; a row of norm zero becomes e0 = (1, 0, ..., 0).

    Its normals would all have to be exactly 0.0, which numpy's ziggurat
    draws only from a 52-bit draw of 0: at most 2**-52 per row, reached only
    at dim 1, and by no known input. So no generator is opened for it.
    """
    # the sum of squares np.linalg.norm(rows, axis=1) takes for float64,
    # without the copy of the rows its conj() makes
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1))
    zero = norms == 0.0
    rows[zero, 0] = norms[zero] = 1.0
    # divided in place, not into a second array of the rows' shape
    rows /= norms[:, None]
    return rows


def _fresh_philox(key: list[int]) -> dict:
    """State of a fresh ``Philox(key=key[0] | key[1] << 64)``, ``key`` held, not copied.

    Set as a ``bit_generator.state``, it re-keys a generator to a fresh one's
    bytes. Plain ints do it faster than uint64 arrays, holding the interpreter
    lock for less time.
    """
    return {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _drop(job, groups: deque) -> None:
    """Drop a fill: no group is left to start, and the one in flight is waited for."""
    groups.clear()  # first, or the worker would fill every group while waited for
    job.cancel() or job.exception()


_row_pool = None  # (pid, executor, generator) of the worker thread that fills rows ahead
_row_pool_lock = threading.Lock()


def _row_worker():
    """The executor whose one thread fills rows ahead for ``sphere_chunks``.

    Its generator, ``_row_pool[2]``, is used on that thread alone; a fill
    starts at a key group, so it re-keys the generator first. Both are made
    on first use, so importing the module starts no thread. A forked child
    does not have the parent's thread, so a child makes its own.
    """
    global _row_pool
    with _row_pool_lock:
        if _row_pool is None or _row_pool[0] != os.getpid():
            # imported here, so that importing duelopt does not import it
            from concurrent.futures import ThreadPoolExecutor

            executor = ThreadPoolExecutor(1, thread_name_prefix="duelopt-rows")
            _row_pool = (os.getpid(), executor, np.random.Generator(np.random.Philox(key=0)))
        return _row_pool[1]


@dataclass(frozen=True, eq=False)
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
            try:
                m = np.asarray(self.scope_mask, dtype=np.intp)
            except OverflowError:
                raise DimensionError("scope mask index out of range") from None
            if m.ndim != 1 or m.size == 0:
                raise DimensionError("scope mask must be a nonempty 1-D index array")
            if np.any(m < 0) or np.any(m >= v.size):
                raise DimensionError("scope mask index out of range")
            if np.any(np.diff(m) <= 0):
                raise DimensionError("scope mask indices must be strictly increasing")
            m = m.copy()
            m.setflags(write=False)
            object.__setattr__(self, "scope_mask", m)

    def __reduce__(self):  # rebuilt checked and read-only, without ``evaluate``'s cache
        return ParamVector, (self.values, self.scope_mask)

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
            out = new_scope[None].copy()
        else:
            out = self.values[None].copy()
            out[0, self.scope_mask] = new_scope
        return ParamVector._derived(out, self.scope_mask)[0]

    @classmethod
    def _derived(cls, values: np.ndarray, scope_mask: np.ndarray | None) -> list["ParamVector"]:
        """Vectors derived from an already-checked one, one per row of ``values``.

        ``values`` is a fresh float64 (n, dim) array, owned by the new
        vectors, whose values are its rows, and ``scope_mask`` is the
        parent's checked read-only mask, which each of them shares. So only
        finiteness is checked, once for the whole array, and the array is
        made read-only instead of copied. ``ParamVector(...)`` keeps every
        check for input from outside. Vectors of a build of two or more
        rows share one record, ``(values, table)``, through which
        ``evaluate`` runs a row form once per group of rows; the record
        holds no vector, so the array is freed with the last of them.
        """
        # the reduction ``.all()`` runs, without the method's Python wrapper
        if not np.logical_and.reduce(np.isfinite(values), axis=None):
            raise ValueError("parameter vector contains NaN or Inf")
        values.setflags(write=False)
        # one row is evaluated per vector: a row form costs more than the point form there
        build = (values, {}) if len(values) > 1 else None
        vectors = []
        for i, row in enumerate(values):
            vec = object.__new__(cls)
            # the instance dict a frozen dataclass's fields live in, set without its __setattr__
            vars(vec).update(values=row, scope_mask=scope_mask, _build=build, _row=i)
            vectors.append(vec)
        return vectors

    def evaluate(self, fn: Callable, *args):
        """``fn(self.values, *args)``, computed once per ``(fn, *args)`` and kept.

        ``fn`` and ``args`` key the table, so they must be hashable. The
        table is made on first use and is no dataclass field, so repr
        ignores it. The vector is immutable, so a kept value cannot go stale,
        and it is freed with the vector. An oracle asks about one base point
        m times per batch; its base values are computed here once.

        A candidate of a build of two or more (``embed_perturbation``) reads
        its row of ``fn.rows`` when ``fn`` has that row form
        (``with_row_form``): the first candidate asked runs it on the
        build's rows from its own on, and the build's table keeps the group
        of results it gives until a candidate outside that group is asked.
        In index order every group is evaluated once, and only one group's
        results are held. Any other ``fn`` is called per vector.
        """
        key = (fn, *args)
        build = self.__dict__.get("_build")
        if build is not None and hasattr(fn, "rows"):
            values, table = build
            start, rows = table.get(key, (0, ()))
            i = self._row - start
            if not 0 <= i < len(rows):
                start, rows = table[key] = self._row, fn.rows(values[self._row:], *args)
                i = 0
            return rows[i]
        memo = self.__dict__.setdefault("_evaluated", {})
        value = memo.get(key, _MISSING)  # one hash of the key on a hit
        if value is _MISSING:
            value = memo[key] = fn(self.values, *args)
        return value

    def content_hash(self) -> str:
        """SHA-256 of the raw float64 bytes (mask excluded)."""
        return hashlib.sha256(np.ascontiguousarray(self.values).tobytes()).hexdigest()


def with_row_form(point: Callable, rows: Callable) -> Callable:
    """The evaluator ``point`` with the row form ``rows``, for ``ParamVector.evaluate``.

    ``rows(values, *args)`` takes an (n, dim) array of rows and returns the
    results of a leading group of them, at least one, each equal to
    ``point(row, *args)``; the group's size is its own to choose.
    """
    evaluator = partial(point)
    evaluator.rows = rows
    return evaluator


def embed_perturbation(theta: ParamVector, rows: np.ndarray, radius: float) -> list[ParamVector]:
    """The candidates ``theta + radius * row``, one per row of the (n, k) ``rows``.

    ``radius * rows`` is added to the in-scope coordinates of theta's values,
    broadcast into one new float64 (n, dim) array, so a wider or complex
    ``rows`` cannot change its dtype; coordinates outside the scope mask
    are bit-identical to theta's. Candidate i's values are row i of that
    array, read-only, and every candidate shares theta's mask. Finiteness is
    checked once for all n, before any candidate is returned. The array is
    new on every call, never a reused buffer: an oracle may keep a
    candidate, and a ``ParamVector``'s values never change. The caller
    bounds its n * dim floats; ``measure_bits`` passes about 65,536. One
    row ``z`` is ``embed_perturbation(theta, z[None], radius)[0]``. The n
    candidates of one call share the array and a table of row-form results
    (``ParamVector.evaluate``), so an evaluator with a row form runs once
    per group of rows, not once per candidate.
    """
    if not radius > 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != theta.scope_dim:
        raise DimensionError(
            f"perturbation rows of shape {rows.shape} are not (n >= 1, {theta.scope_dim})"
        )
    out = np.empty((len(rows), theta.dim))
    out[...] = theta.values
    # numpy's overflow warnings are off: the finite check in _derived raises instead
    with np.errstate(over="ignore", invalid="ignore"):
        if theta.scope_mask is None:
            out += radius * rows
        else:
            out[:, theta.scope_mask] += radius * rows
    return ParamVector._derived(out, theta.scope_mask)
