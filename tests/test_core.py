import dataclasses
import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duelopt import core
from duelopt import ParamVector, RngState, embed_perturbation
from duelopt.errors import DimensionError

from reference_solvers import reference_grouped_rows, reference_sphere_rows


def test_sphere_dim1_is_plus_or_minus_one():
    rng = RngState(7)
    seen = {float(rng.sphere_rows(rng.next_block(), 1, 1)[0, 0]) for _ in range(64)}
    assert seen <= {1.0, -1.0}
    assert len(seen) == 2


def test_sphere_norm_holds_for_consecutive_draws():
    rng = RngState(123)
    for _ in range(10_000):
        v = rng.sphere_rows(rng.next_block(), 1, 6)[0]
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_sphere_rotational_symmetry_monte_carlo():
    # coordinate means of 1e5 uniform sphere points in 3-D stay near zero
    rng = RngState(2024)
    total = np.zeros(3)
    n = 100_000
    for _ in range(n // 1000):
        total += rng.sphere_rows(rng.next_block(), 1000, 3).sum(axis=0)
    assert np.all(np.abs(total / n) < 0.01)


def test_sphere_rejects_zero_dim():
    # a row of no floats has norm zero, so its redraw would never end
    rng = RngState(1)
    for dim in (0, -1):
        with pytest.raises(DimensionError):
            rng.sphere_rows(0, 2, dim)
        with pytest.raises(DimensionError):
            next(rng.sphere_chunks(0, 2, dim))


def test_fixed_seed_gives_identical_sample_trajectory():
    a = RngState(99)
    b = RngState(99)
    for _ in range(20):
        va = a.sphere_rows(a.next_block(), 1, 8)[0]
        vb = b.sphere_rows(b.next_block(), 1, 8)[0]
        assert va.tobytes() == vb.tobytes()


def test_substreams_are_order_independent():
    rng = RngState(5)
    block = rng.next_block()
    forward = [rng.substream(block, i).standard_normal(4) for i in range(6)]
    backward = [RngState(5).substream(block, i).standard_normal(4) for i in reversed(range(6))]
    for i, arr in enumerate(reversed(backward)):
        assert np.array_equal(forward[i], arr)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    block=st.one_of(st.integers(0, 9), st.integers(2**32 - 2, 2**40)),
    count=st.integers(1, 12),
    # a row this long has a key of its own; shorter rows share theirs
    dim=st.integers(core._SPLIT_MIN_DIM, core._SPLIT_MIN_DIM + 700),
    start=st.integers(0, 12),
)
@example(seed=0, block=0, count=1, dim=core._SPLIT_MIN_DIM, start=0)
@example(seed=3, block=1, count=3, dim=core._SPLIT_MIN_DIM + 129, start=0)
@example(seed=4, block=2, count=2, dim=core._SPLIT_MIN_DIM + 1000, start=5)
@example(seed=2**64 - 1, block=2**32 + 3, count=7, dim=core._SPLIT_MIN_DIM, start=0)
@example(seed=5, block=2**33 - 1, count=1, dim=core._SPLIT_MIN_DIM + 6, start=3)
def test_sphere_rows_equal_one_substream_per_row(seed, block, count, dim, start):
    rng = RngState(seed, counter=3)
    first = rng.sphere_rows(block, count, dim)
    # another generator drawn in between must not move the next call's rows
    rng.substream(block, 0).standard_normal(dim)
    second = rng.sphere_rows(block, count, dim)
    # a chunk starting at row ``start`` is those rows of a whole-batch draw
    chunk = rng.sphere_rows(block, count, dim, start)
    assert rng.counter == 3
    assert first.shape == chunk.shape == (count, dim)
    for i in range(count):
        row = reference_sphere_rows(RngState(seed).substream(block, i), 1, dim)[0]
        # block and index enter the key modulo 2**32
        wrapped = RngState(seed).substream(block + 2**32, i + 2**32)
        assert first[i].tobytes() == row.tobytes() == second[i].tobytes()
        assert reference_sphere_rows(wrapped, 1, dim)[0].tobytes() == row.tobytes()
        shifted = reference_sphere_rows(RngState(seed).substream(block, start + i), 1, dim)[0]
        assert chunk[i].tobytes() == shifted.tobytes()


def chunked(rng, block, count, dim):
    """Bytes of each row ``sphere_chunks`` yields, and the (start, length) of each chunk."""
    rows, chunks = [], []
    for start, part in rng.sphere_chunks(block, count, dim):
        chunks.append((start, len(part)))
        rows.extend(row.tobytes() for row in part)
    return rows, chunks


def chunk_layout(count, dim):
    """(start, length) of each chunk: ``_CHUNK_FLOATS // dim`` rows, at least one."""
    size = max(1, core._CHUNK_FLOATS // dim)
    return [(start, min(size, count - start)) for start in range(0, count, size)]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    block=st.integers(2**32, 2**40),
    count=st.integers(1, 13),
    extra=st.integers(0, 300),
    chunk=st.integers(1, 14),
)
@example(seed=0, block=2**32, count=2, extra=0, chunk=2)
@example(seed=2**64 - 1, block=2**40, count=13, extra=1, chunk=4)
def test_long_rows_filled_on_two_threads_equal_one_substream_per_row(
    seed, block, count, extra, chunk
):
    dim = core._SPLIT_MIN_DIM + extra
    expected = [
        reference_sphere_rows(RngState(seed).substream(block, i), 1, dim)[0].tobytes()
        for i in range(count)
    ]
    # one CPU takes the one-thread path; on two the worker has a generator of its own
    for cpus in (1, 2):
        opened = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_cpu_count", lambda: cpus)
            # ``chunk`` rows per chunk; long rows keep a key each
            mp.setattr(core, "_CHUNK_FLOATS", chunk * dim + dim // 2)
            substream = RngState.substream
            mp.setattr(RngState, "substream", lambda *a: opened.append(a) or substream(*a))
            rows, chunks = chunked(RngState(seed), block, count, dim)
        assert len(opened) == 1
        assert rows == expected
        assert chunks == [(start, min(chunk, count - start)) for start in range(0, count, chunk)]


def per_key(dim):
    """Rows sharing one key: the rows of a chunk, or one row of at least _SPLIT_MIN_DIM."""
    return 1 if dim >= core._SPLIT_MIN_DIM else core._CHUNK_FLOATS // dim


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    block=st.one_of(st.integers(0, 9), st.integers(2**32 - 2, 2**40)),
    dim=st.one_of(
        st.integers(1, 9), st.integers(120, 700),
        st.integers(core._SPLIT_MIN_DIM - 2, core._SPLIT_MIN_DIM + 1),
    ),
    # rows per chunk when a smaller chunk is patched in, so a draw spans chunks;
    # also rows per key, where rows are short
    group=st.one_of(st.none(), st.integers(1, 5)),
    count=st.integers(1, 13),
    start=st.integers(0, 12),
)
@example(seed=0, block=0, dim=1, group=None, count=3, start=0)
@example(seed=1, block=2, dim=1, group=3, count=7, start=2)
@example(seed=2, block=2**32 - 1, dim=300, group=4, count=10, start=5)
@example(seed=3, block=7, dim=core._SPLIT_MIN_DIM - 1, group=None, count=13, start=12)
@example(seed=4, block=8, dim=core._SPLIT_MIN_DIM, group=3, count=8, start=1)
def test_rows_are_runs_of_their_key_groups_substream(seed, block, dim, group, count, start):
    with pytest.MonkeyPatch.context() as mp:
        if group is not None:
            mp.setattr(core, "_CHUNK_FLOATS", group * dim + dim // 2)
        g = per_key(dim)
        expected = reference_grouped_rows(
            lambda c: RngState(seed).substream(block, c), g, start + count, dim
        )
        # block and group enter the key modulo 2**32
        wrapped = reference_grouped_rows(
            lambda c: RngState(seed).substream(block + 2**32, c + 2**32), g, count, dim
        )
        assert wrapped.tobytes() == expected[:count].tobytes()
        # the next block is due, so a two-CPU draw also fills block + 1 ahead
        rng = RngState(seed, counter=block + 1)
        got = rng.sphere_rows(block, count, dim, start)
        assert got.tobytes() == expected[start:].tobytes()
        for cpus in (1, 2, 2):
            mp.setattr(core, "_cpu_count", lambda: cpus)
            rows, chunks = chunked(rng, block, count, dim)
            assert rows == [row.tobytes() for row in expected[:count]]
            # a chunk is a whole number of key groups: one of short rows
            assert chunks == chunk_layout(count, dim)
        assert rng.counter == block + 1


def test_a_fill_ahead_is_taken_only_by_the_draw_it_was_made_for(monkeypatch):
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    opened = []
    substream = RngState.substream

    def recording_substream(self, block, index=0):
        opened.append((block, index))
        return substream(self, block, index)

    monkeypatch.setattr(RngState, "substream", recording_substream)
    seed, count = 13, 40

    def draw(rng, block, count, dim):
        opened.clear()
        rows, _ = chunked(rng, block, count, dim)
        drawn_with = list(opened)
        expected = reference_grouped_rows(
            lambda c: RngState(seed).substream(block, c), per_key(dim), count, dim
        )
        assert rows == [row.tobytes() for row in expected]
        return drawn_with

    for dim in (300, core._SPLIT_MIN_DIM):
        # chunks of 16 rows: one key group of short rows, or 16 long rows
        monkeypatch.setattr(core, "_CHUNK_FLOATS", 16 * dim)
        rng = RngState(seed)
        assert draw(rng, rng.next_block(), count, dim) == [(0, 0)]
        # the next block, drawn with the same shape, takes the fill made ahead
        assert draw(rng, rng.next_block(), count, dim) == []
        for shape in ((count + 1, dim), (count, dim + 1), (count, dim)):
            job, groups = rng._ahead[2:4]
            if shape == (count, dim):  # a block reserved in between: the draw skips it
                rng.next_block()
            block = rng.next_block()
            assert draw(rng, block, *shape) == [(block, 0)]
            # dropped: no group left to start, the one in flight waited for
            assert job.done() and not groups
        # another block than the one filled ahead
        job, groups = rng._ahead[2:4]
        assert draw(rng, rng.counter + 1, count, dim) == [(rng.counter + 1, 0)]
        assert job.done() and not groups and rng._ahead is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_never_waits_on_its_parents_fill_ahead(monkeypatch):
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    parent, started, release = os.getpid(), threading.Event(), threading.Event()
    caller, fill_rows = threading.get_ident(), RngState._fill_rows

    def held_fill_rows(self, gen, rows, block, start):
        # the parent's worker, filling block 1 ahead
        if os.getpid() == parent and threading.get_ident() != caller and block == 1:
            started.set()
            assert release.wait(timeout=60)
        fill_rows(self, gen, rows, block, start)

    monkeypatch.setattr(RngState, "_fill_rows", held_fill_rows)
    rng, dim = RngState(3), 50
    expected = reference_grouped_rows(lambda c: RngState(3).substream(1, c), per_key(dim), 4, dim)
    chunked(rng, rng.next_block(), 4, dim)
    try:
        assert started.wait(timeout=60)  # the fill of block 1 runs when the child is forked
        pid = os.fork()
        if pid == 0:
            rows, _ = chunked(rng, rng.next_block(), 4, dim)
            os._exit(0 if rows == [row.tobytes() for row in expected] else 1)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if status[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    finally:
        release.set()
    assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0
    # the parent takes its own fill
    rows, _ = chunked(rng, rng.next_block(), 4, dim)
    assert rows == [row.tobytes() for row in expected]


def test_split_draws_from_more_threads_than_cores_keep_every_byte(monkeypatch):
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    # three chunks of 4 rows, the last one short
    seed, block, count, dim = 7, 5, 9, core._SPLIT_MIN_DIM
    monkeypatch.setattr(core, "_CHUNK_FLOATS", 4 * dim)
    expected = [
        reference_sphere_rows(RngState(seed).substream(block, i), 1, dim)[0].tobytes()
        for i in range(count)
    ]
    drawn, errors = [], []

    def draw():
        try:
            for _ in range(5):
                drawn.append(chunked(RngState(seed), block, count, dim)[0])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=draw) for _ in range(4)]
    interval = sys.getswitchinterval()
    # callers share the one worker; switch threads as often as the interpreter allows
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert drawn == [expected] * 20


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    dim=st.one_of(
        st.integers(1, 9), st.integers(core._SPLIT_MIN_DIM - 2, core._SPLIT_MIN_DIM + 1)
    ),
    # rows per chunk when a smaller chunk is patched in; also rows per key of short rows
    group=st.one_of(st.none(), st.integers(1, 5)),
    count=st.integers(1, 13),
    cpus=st.sampled_from([1, 2]),
)
@example(seed=0, dim=1, group=None, count=1, cpus=2)
@example(seed=1, dim=core._SPLIT_MIN_DIM, group=2, count=13, cpus=2)
@example(seed=2, dim=core._SPLIT_MIN_DIM - 1, group=None, count=13, cpus=2)
def test_consecutive_draws_of_one_shape_take_the_fill_ahead_and_keep_every_byte(
    seed, dim, group, count, cpus
):
    opened, substream = [], RngState.substream

    def recording_substream(self, block, index=0):
        opened.append((block, index))
        return substream(self, block, index)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_cpu_count", lambda: cpus)
        if group is not None:
            mp.setattr(core, "_CHUNK_FLOATS", group * dim + dim // 2)
        mp.setattr(RngState, "substream", recording_substream)
        rng = RngState(seed)
        for _ in range(2):
            opened.clear()
            block = rng.next_block()
            rows, chunks = chunked(rng, block, count, dim)
            expected = reference_grouped_rows(
                lambda c: substream(RngState(seed), block, c), per_key(dim), count, dim
            )
            assert rows == [row.tobytes() for row in expected]
            assert chunks == chunk_layout(count, dim)
    # on two CPUs the second draw takes the fill made ahead, with the first's generator
    assert opened == ([] if cpus == 2 else [(block, 0)])


@pytest.mark.parametrize("dim", [50, core._SPLIT_MIN_DIM])
def test_the_caller_and_the_worker_race_for_a_chunks_last_group(monkeypatch, dim):
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    # chunks of 2 rows: one key group of short rows, or two long rows
    monkeypatch.setattr(core, "_CHUNK_FLOATS", 2 * dim)
    seed, count = 23, 9
    rng, drawn = RngState(seed), []
    interval = sys.getswitchinterval()
    # the caller reaches each chunk, and the next block's, as the worker takes
    # its last group; switch threads as often as the interpreter allows
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            block = rng.next_block()
            drawn.append((block, chunked(rng, block, count, dim)[0]))
    finally:
        sys.setswitchinterval(interval)
    for block, rows in drawn:
        expected = reference_grouped_rows(
            lambda c: RngState(seed).substream(block, c), per_key(dim), count, dim
        )
        assert rows == [row.tobytes() for row in expected]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_splits_its_draws_with_a_worker_of_its_own(monkeypatch):
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    dim = core._SPLIT_MIN_DIM
    monkeypatch.setattr(core, "_CHUNK_FLOATS", 2 * dim)  # two chunks of 2 rows
    # starts this process's worker, which a forked child does not have
    expected = chunked(RngState(3), 1, 4, dim)
    pid = os.fork()
    if pid == 0:
        os._exit(0 if chunked(RngState(3), 1, 4, dim) == expected else 1)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0


@pytest.mark.parametrize("zero_row", [0, 2, 4])
def test_sphere_rows_redraws_a_zero_row_from_its_own_substream(monkeypatch, zero_row):
    # rows this long have a key each; one thread fills them one at a time
    monkeypatch.setattr(core, "_cpu_count", lambda: 1)
    dim = core._SPLIT_MIN_DIM
    rng = RngState(11)
    expected = rng.sphere_rows(3, 7, dim)

    class ZeroRow(np.random.Generator):
        """Fills the ``zero_row``-th row drawn into ``out`` with zeros."""

        drawn = 0

        def standard_normal(self, *args, out=None, **kwargs):
            result = super().standard_normal(*args, out=out, **kwargs)
            if out is not None:
                if self.drawn == zero_row:
                    out[...] = 0.0
                self.drawn += 1
            return result

    opened = []

    def substream(self, block, index=0):
        opened.append(index)
        return ZeroRow(np.random.Philox(key=self._key(block, index)))

    monkeypatch.setattr(RngState, "substream", substream)
    for start in (0, 2):
        opened.clear()
        got = rng.sphere_rows(3, 5, dim, start)
        assert opened == [start, start + zero_row]
        assert got.tobytes() == expected[start:start + 5].tobytes()
    # drawn in chunks of 3, the zero row is redrawn by its index in the block
    monkeypatch.setattr(core, "_CHUNK_FLOATS", 3 * dim)
    opened.clear()
    rows, _ = chunked(rng, 3, 7, dim)
    assert opened == [0, zero_row]
    assert rows == [row.tobytes() for row in expected]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("zero_row", [0, 1, 4])
def test_a_zero_short_row_is_redrawn_past_its_key_group(monkeypatch, cpus, zero_row):
    # five rows of 4 floats per key; rows 0 to 4 share substream (block, 0)
    monkeypatch.setattr(core, "_CHUNK_FLOATS", 5 * 4 + 3)
    monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
    seed, block, dim = 11, 3, 4

    class ZeroRun(np.random.Generator):
        """Draws zeros for run ``zero_row`` of ``dim`` normals of its stream."""

        drawn = 0

        def standard_normal(self, size=None, dtype=np.float64, out=None):
            result = super().standard_normal(size, dtype=dtype, out=out)
            flat = np.reshape(result, -1)  # a view of the contiguous draw
            low, high = zero_row * dim - self.drawn, (zero_row + 1) * dim - self.drawn
            flat[max(low, 0):max(high, 0)] = 0.0
            self.drawn += flat.size
            return result

    opened = []

    def substream(self, block, index=0):
        opened.append(index)
        made = ZeroRun if index == 0 else np.random.Generator
        return made(np.random.Philox(key=self._key(block, index)))

    monkeypatch.setattr(RngState, "substream", substream)
    expected = reference_grouped_rows(lambda c: substream(RngState(seed), block, c), 5, 12, dim)
    # the zero row takes the first run past its group: run 5 of the substream
    past = np.random.Generator(np.random.Philox(key=RngState(seed)._key(block, 0)))
    run = past.standard_normal((6, dim))[5:]
    assert expected[zero_row].tobytes() == (run / np.linalg.norm(run, axis=1)[:, None]).tobytes()
    rng = RngState(seed)
    for start in (0, zero_row):
        opened.clear()
        got = rng.sphere_rows(block, 12 - start, dim, start)
        # its own group's substream, opened again: from the row's own run on
        assert opened == [0, 0]
        assert got.tobytes() == expected[start:].tobytes()
    opened.clear()
    rows, chunks = chunked(rng, block, 12, dim)
    assert chunks == [(0, 5), (5, 5), (10, 2)]  # one key group each
    assert opened == [0, 0]
    assert rows == [row.tobytes() for row in expected]


def test_embed_with_mask_matches_example():
    theta = ParamVector(np.array([1.0, 2.0, 3.0]), scope_mask=np.array([2]))
    out = embed_perturbation(theta, np.array([1.0]), 0.5)
    assert np.array_equal(out.values, [1.0, 2.0, 3.5])


def test_embed_without_mask_matches_example():
    theta = ParamVector(np.array([1.0, 2.0]))
    out = embed_perturbation(theta, np.array([0.0, 1.0]), 0.1)
    assert np.allclose(out.values, [1.0, 2.1])


def test_embed_rejects_zero_radius():
    theta = ParamVector(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        embed_perturbation(theta, np.array([0.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        embed_perturbation(theta, np.array([0.0, 1.0]), math.nan)


def test_embed_candidate_is_one_checked_frozen_copy_sharing_the_mask():
    gen = np.random.default_rng(41)
    for mask in (None, np.array([0, 2, 5])):
        theta = ParamVector(gen.standard_normal(7), scope_mask=mask)
        z = gen.standard_normal(theta.scope_dim)
        expected = theta.values.copy()
        if mask is None:
            expected += 0.25 * z
        else:
            expected[mask] += 0.25 * z
        for out in (
            embed_perturbation(theta, z, 0.25),
            theta.with_scope_values(ParamVector(expected, mask).scope_values()),
        ):
            assert out.values.tobytes() == ParamVector(expected, mask).values.tobytes()
            assert out.values.dtype == np.float64
            assert not out.values.flags.writeable
            assert not np.shares_memory(out.values, theta.values)
            assert out.scope_mask is theta.scope_mask
        # a wider z is added into theta's float64 copy; a complex one is refused
        wide = embed_perturbation(theta, z.astype(np.longdouble), 0.25)
        assert wide.values.dtype == np.float64
        assert wide.values.tobytes() == ParamVector(expected, mask).values.tobytes()
        with pytest.raises(TypeError):
            embed_perturbation(theta, z + 1j, 0.25)
    # the sum overflows to inf; the one check left still catches it
    with np.errstate(over="ignore"):
        for mask in (None, np.array([0])):
            theta = ParamVector(np.array([1.7e308, 0.0]), scope_mask=mask)
            with pytest.raises(ValueError, match="NaN or Inf"):
                embed_perturbation(theta, np.array([1.0, 0.0])[: theta.scope_dim], 1e308)


def test_evaluate_computes_each_call_once_and_stays_out_of_eq_and_repr():
    calls = []

    def fn(values, scale=1.0):
        calls.append(scale)
        return scale * float(values.sum())

    theta = ParamVector(np.array([1.0, 2.0, 4.0]))
    text = repr(theta)
    assert [theta.evaluate(fn) for _ in range(3)] == [7.0] * 3
    assert theta.evaluate(fn, 2.0) == theta.evaluate(fn, 2.0) == 14.0
    assert calls == [1.0, 2.0]
    # the kept values are no field, so eq and repr see values and mask only
    assert [f.name for f in dataclasses.fields(theta)] == ["values", "scope_mask"]
    assert repr(theta) == text
    # a candidate that is never evaluated carries no table
    candidate = embed_perturbation(theta, np.array([1.0, 0.0, 0.0]), 0.5)
    assert "_evaluated" not in vars(candidate)
    assert candidate.evaluate(fn) == 7.5 and calls == [1.0, 2.0, 1.0]


def test_embed_rejects_dim_mismatch():
    theta = ParamVector(np.array([1.0, 2.0, 3.0]), scope_mask=np.array([0, 1]))
    with pytest.raises(DimensionError):
        embed_perturbation(theta, np.array([1.0]), 0.5)
    with pytest.raises(DimensionError):
        embed_perturbation(theta, np.array([[1.0, 0.0]]), 0.5)  # a (1, k) batch, not a row


def test_embed_never_touches_out_of_scope_bits():
    gen = np.random.default_rng(31)
    rng = RngState(31)
    for _ in range(300):
        d = int(gen.integers(2, 30))
        k = int(gen.integers(1, d))
        mask = np.sort(gen.choice(d, size=k, replace=False))
        theta = ParamVector(gen.standard_normal(d), scope_mask=mask)
        z = rng.sphere_rows(rng.next_block(), 1, k)[0]
        out = embed_perturbation(theta, z, float(gen.uniform(0.01, 2.0)))
        outside = np.setdiff1d(np.arange(d), mask)
        assert out.values[outside].tobytes() == theta.values[outside].tobytes()


def test_param_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        ParamVector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        ParamVector(np.array([np.inf, 0.0]))


def test_param_vector_rejects_bad_masks():
    values = np.zeros(4)
    with pytest.raises(DimensionError):
        ParamVector(values, scope_mask=np.array([0, 0]))  # duplicate
    with pytest.raises(DimensionError):
        ParamVector(values, scope_mask=np.array([2, 1]))  # unsorted
    with pytest.raises(DimensionError):
        ParamVector(values, scope_mask=np.array([4]))  # out of range


def test_param_vector_mask_entry_outside_intp_is_a_dimension_error():
    for entry in (10**30, -(10**30), 2**63):
        with pytest.raises(DimensionError, match="out of range"):
            ParamVector(np.zeros(4), scope_mask=[0, entry])


def test_scope_roundtrip():
    theta = ParamVector(np.array([1.0, 2.0, 3.0, 4.0]), scope_mask=np.array([1, 3]))
    assert theta.scope_dim == 2
    assert np.array_equal(theta.scope_values(), [2.0, 4.0])
    replaced = theta.with_scope_values(np.array([-1.0, -2.0]))
    assert np.array_equal(replaced.values, [1.0, -1.0, 3.0, -2.0])
    assert replaced.values[0] == theta.values[0]
