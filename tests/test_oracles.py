import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import duelopt
from duelopt import (
    BitMeasurementBatch,
    ParamVector,
    PreferencePair,
    RngState,
    Sign,
    compare_function,
    compare_preference,
    make_nonconvex_sparse,
    make_sparse_quadratic,
    make_toy_policy,
    measure_bits,
    point_with_gradient_norm,
)
from duelopt import core
from duelopt.errors import InvalidBatchError, OracleError
from duelopt.optimizer import PracticalConfig, run_practical

from reference_solvers import reference_candidate_values, reference_grouped_rows


def sq_norm(theta):
    return float(np.dot(theta, theta))


def pv(*values):
    return ParamVector(np.array(values, dtype=float))


# ----- function comparison ------------------------------------------------


def test_compare_function_strict_improvement():
    assert compare_function(sq_norm, pv(1.0, 0.0), pv(0.0, 0.0)) == Sign.MINUS


def test_compare_function_tie_is_plus():
    theta = pv(1.0, 2.0)
    assert compare_function(sq_norm, theta, theta) == Sign.PLUS


def test_compare_function_constant_is_plus():
    assert compare_function(lambda _t: 3.5, pv(0.0), pv(9.0)) == Sign.PLUS


def test_compare_function_nan_raises():
    # and so does an infinite value: at the base point, the candidate or both
    for bad in (math.nan, math.inf, -math.inf):
        for at in ({0.0}, {1.0}, {0.0, 1.0}):
            with pytest.raises(OracleError, match=f"objective evaluated to {bad}$"):
                compare_function(lambda t: bad if t[0] in at else 0.0, pv(0.0), pv(1.0))


def test_compare_function_anti_consistency():
    gen = np.random.default_rng(11)
    for _ in range(1000):
        a = ParamVector(gen.standard_normal(4))
        b = ParamVector(gen.standard_normal(4))
        if compare_function(sq_norm, a, b) == Sign.MINUS:
            assert compare_function(sq_norm, b, a) == Sign.PLUS


# ----- preference comparison ----------------------------------------------


def softmax2_logprobs(theta):
    """Direct two-token softmax over logits (theta[0], theta[1])."""
    logits = np.asarray(theta, dtype=float)
    lse = np.logaddexp(logits[0], logits[1])
    return logits - lse


def direct_evaluator(theta_values, pairs):
    # one-token responses over a 2-token vocabulary; theta holds the logits
    logp = softmax2_logprobs(theta_values)
    return [
        float(sum(logp[tok] for tok in response))
        for pair in pairs for response in (pair.preferred, pair.dispreferred)
    ]


def test_compare_preference_reflexive():
    theta = pv(0.3, -0.2)
    pair = PreferencePair((0,), (0,), (1,))
    assert compare_preference(direct_evaluator, theta, theta, [pair]) == Sign.PLUS


def test_compare_preference_two_token_improvement():
    # raising logit 0 raises log P(0) and lowers log P(1); both strict
    pair = PreferencePair((0,), (0,), (1,))
    theta = pv(0.0, 0.0)
    theta_prime = pv(0.4, 0.0)
    before = softmax2_logprobs(theta.values)
    after = softmax2_logprobs(theta_prime.values)
    assert after[0] > before[0] and after[1] < before[1]
    assert compare_preference(direct_evaluator, theta, theta_prime, [pair]) == Sign.MINUS


def test_compare_preference_requires_all_pairs():
    # pair 1 improves, pair 2 has preferred/dispreferred reversed: conjunction fails
    good = PreferencePair((0,), (0,), (1,))
    bad = PreferencePair((0,), (1,), (0,))
    theta = pv(0.0, 0.0)
    theta_prime = pv(0.4, 0.0)
    assert compare_preference(direct_evaluator, theta, theta_prime, [good]) == Sign.MINUS
    assert compare_preference(direct_evaluator, theta, theta_prime, [good, bad]) == Sign.PLUS


def test_compare_preference_empty_batch():
    with pytest.raises(InvalidBatchError):
        compare_preference(direct_evaluator, pv(0.0, 0.0), pv(1.0, 0.0), [])


@pytest.mark.parametrize("nan_at", range(4))
def test_compare_preference_nan_raises(nan_at):
    # values 0, 1 are the base's, 2, 3 the candidate's; the candidate raises
    # the preferred value and lowers the dispreferred one
    def evaluator(theta_values, pairs):
        values = [-1.0, -1.0] if theta_values[0] == 0.0 else [-0.5, -2.0]
        offset = 0 if theta_values[0] == 0.0 else 2
        if offset <= nan_at < offset + 2:
            values[nan_at - offset] = math.nan
        return values

    pair = PreferencePair((0,), (0,), (1,))
    with pytest.raises(OracleError, match="NaN"):
        compare_preference(evaluator, pv(0.0), pv(1.0), [pair])


def test_compare_preference_log_matches_raw_probabilities():
    # the log-space decision agrees with raw-likelihood comparisons
    policy = make_toy_policy(vocab_size=4, feature_dim=6, weight_seed=17)
    gen = np.random.default_rng(23)
    pair = PreferencePair((1, 2), (0, 3), (2,))
    for _ in range(200):
        theta = policy.flat_params + 0.1 * gen.standard_normal(policy.weights.size)
        theta_prime = theta + 0.05 * gen.standard_normal(policy.weights.size)
        log_decision = compare_preference(
            policy.log_likelihood_at, ParamVector(theta), ParamVector(theta_prime), [pair]
        )
        def raw(th):
            return [math.exp(v) for v in policy.log_likelihood_at(th, [pair])]
        (pos_prime, neg_prime), (pos, neg) = raw(theta_prime), raw(theta)
        raw_minus = pos_prime > pos and neg_prime < neg
        assert (log_decision == Sign.MINUS) == raw_minus


# ----- measurement batches ------------------------------------------------


def test_measure_bits_linear_objective_signs_match_first_coordinate():
    def linear(theta):
        return float(theta[0])

    def oracle(theta, theta_prime):
        return compare_function(linear, theta, theta_prime)

    batch = measure_bits(oracle, pv(0.0, 0.0, 0.0), radius=1.0, m=64, rng=RngState(3))
    rows = RngState(3).sphere_rows(batch.iteration, 64, 3)
    expected = np.where(rows[:, 0] >= 0.0, 1, -1)
    assert np.array_equal(batch.signs, expected)
    assert batch.m == 64


def test_measure_bits_constant_objective_all_plus():
    batch = measure_bits(
        lambda theta, theta_prime: compare_function(lambda _t: 1.0, theta, theta_prime),
        pv(0.0, 1.0),
        radius=0.5,
        m=32,
        rng=RngState(8),
    )
    assert np.all(batch.signs == 1)
    assert batch.negative_fraction() == 0.0


def test_measure_bits_sign_agreement_bound():
    # smooth sparse objective at unit gradient norm, radius on the smoothness
    # schedule: measured signs agree with the linearization well above 0.69
    obj = make_sparse_quadratic(100, 5, seed=9)
    rng = RngState(77)
    theta_values = point_with_gradient_norm(obj, 1.0, rng.substream(rng.next_block()))
    grad = obj.gradient(theta_values)
    epsilon = 1.0
    radius = epsilon / (40.0 * obj.ell * math.sqrt(obj.dim))
    batch = measure_bits(
        obj.comparison_oracle(), ParamVector(theta_values), radius, 100_000, rng
    )
    rows = RngState(77).sphere_rows(batch.iteration, batch.m, obj.dim)
    linear = np.where(rows @ grad >= 0.0, 1, -1)
    agreement = float(np.mean(batch.signs == linear))
    assert agreement >= 0.69


def test_measure_bits_validates_inputs():
    with pytest.raises(InvalidBatchError):
        measure_bits(lambda a, b: Sign.PLUS, pv(0.0), radius=1.0, m=0, rng=RngState(0))
    with pytest.raises(InvalidBatchError):
        measure_bits(lambda a, b: Sign.PLUS, pv(0.0), radius=0.0, m=4, rng=RngState(0))
    with pytest.raises(InvalidBatchError):
        measure_bits(lambda a, b: Sign.PLUS, pv(0.0), radius=math.nan, m=4, rng=RngState(0))


@pytest.mark.parametrize("answer", [1.7, "1", -1.5, np.float64(-1.2), 255, 300,
                                    np.int16(-255), None, math.nan])
def test_measure_bits_rejects_an_answer_that_is_not_a_sign(answer):
    with pytest.raises(OracleError, match="oracle answered"):
        measure_bits(lambda a, b: answer, pv(*[0.0] * 5), radius=0.1, m=4, rng=RngState(0))


@pytest.mark.parametrize("answer, sign", [(Sign.MINUS, -1), (1, 1), (-1.0, -1), (True, 1)])
def test_measure_bits_takes_any_answer_equal_to_a_sign(answer, sign):
    batch = measure_bits(lambda a, b: answer, pv(*[0.0] * 5), radius=0.1, m=4, rng=RngState(0))
    assert batch.signs.tolist() == [sign] * 4


def test_run_practical_names_the_iteration_of_a_bad_answer():
    config = PracticalConfig(
        gamma=1.0, radius=0.1, m=4, lambda_g=0.0, skip_threshold=0.0, iterations=2
    )
    with pytest.raises(OracleError, match="iteration 1: oracle answered -1.5"):
        run_practical(lambda a, b: -1.5, pv(0.0, 0.0), config, rng=RngState(0))


@st.composite
def measurement_cases(draw):
    """A start point (masked or not), radius, m and a counter-based RNG state."""
    d = draw(st.integers(1, 12))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = None
    if draw(st.booleans()):
        mask = np.sort(gen.choice(d, size=int(gen.integers(1, d + 1)), replace=False))
    theta = ParamVector(gen.standard_normal(d), scope_mask=mask)
    weights = gen.standard_normal(d)
    rng = RngState(draw(st.integers(0, 2**64 - 1)), counter=draw(st.integers(0, 5)))
    radius = draw(st.floats(1e-3, 2.0))
    return theta, weights, radius, draw(st.integers(1, 20)), rng


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(measurement_cases())
def test_measure_bits_rows_and_signs_match_their_substreams(case):
    theta, weights, radius, m, rng = case
    seed, block = rng.seed, rng.counter

    def objective(values):
        return float(np.dot(weights, values) + 0.5 * np.dot(values, values))

    def oracle(a, b):
        return compare_function(objective, a, b)

    batch = measure_bits(oracle, theta, radius, m, rng)
    assert batch.iteration == block and rng.counter == block + 1
    assert batch.m == m
    rows = RngState(seed).sphere_rows(batch.iteration, m, theta.scope_dim)
    in_scope = np.arange(theta.dim) if theta.scope_mask is None else theta.scope_mask
    # short rows: row i is run i of substream (block, 0), one key per chunk
    per_key = core._CHUNK_FLOATS // theta.scope_dim
    reference = reference_grouped_rows(
        lambda c: RngState(seed).substream(block, c), per_key, m, theta.scope_dim
    )
    for i in range(m):
        row = reference[i]
        assert rows[i].tobytes() == row.tobytes()
        values = theta.values.copy()
        values[in_scope] += radius * row
        assert batch.signs[i] == oracle(theta, ParamVector(values, theta.scope_mask))
    expected = np.add.reduce(batch.signs[:, None] * rows, axis=0)
    assert batch.signed_direction_sum().tobytes() == expected.tobytes()


def one_thread_batch(oracle, theta, radius, m, seed, block):
    """The batch of ``block``'s rows drawn at once by ``sphere_rows``, queried in index order."""
    rows = RngState(seed).sphere_rows(block, m, theta.scope_dim)
    signs = [
        oracle(theta, ParamVector(values, theta.scope_mask))
        for values in reference_candidate_values(theta, rows, radius)
    ]
    return BitMeasurementBatch.from_directions(rows, signs, radius, block)


def assert_same_batch(got, expected):
    assert got.iteration == expected.iteration
    assert got.signs.tobytes() == expected.signs.tobytes()
    assert got.signed_direction_sum().tobytes() == expected.signed_direction_sum().tobytes()


@pytest.mark.parametrize("k", [10_000, core._SPLIT_MIN_DIM - 1, core._SPLIT_MIN_DIM])
def test_measure_bits_is_the_same_with_rows_filled_on_one_or_two_threads(k):
    obj = make_sparse_quadratic(k, 5, seed=k)
    theta = ParamVector(point_with_gradient_norm(obj, 1.0, RngState(4).substream(0)))
    # chunks of 6 rows at k = 10^4 and of 8 around the threshold: one row,
    # one chunk, and three or more chunks with a shorter tail
    for m in (1, 5, 20):
        split = measure_bits(obj.comparison_oracle(), theta, 0.01, m, RngState(9))
        assert_same_batch(split, one_thread_batch(obj.comparison_oracle(), theta, 0.01, m, 9, 0))


def test_measure_bits_opens_its_generators_on_the_calling_thread(monkeypatch):
    opened, filled = [], set()
    worker_filled = threading.Event()
    substream, fill_rows = RngState.substream, RngState._fill_rows
    caller = threading.get_ident()

    def recording_substream(self, block, index=0):
        opened.append((threading.get_ident(), block))
        return substream(self, block, index)

    def recording_fill_rows(self, *args):
        filled.add(threading.get_ident())
        fill_rows(self, *args)
        if threading.get_ident() != caller:
            worker_filled.set()

    monkeypatch.setattr(RngState, "substream", recording_substream)
    monkeypatch.setattr(RngState, "_fill_rows", recording_fill_rows)
    obj = make_sparse_quadratic(10_000, 5, seed=1)
    theta = ParamVector(np.zeros(10_000))
    inner = obj.comparison_oracle()

    def oracle(a, b):
        # the worker fills rows of the next chunk while this one is queried
        assert worker_filled.wait(timeout=60)
        return inner(a, b)

    rng = RngState(2)
    for m in (20, 40, 1):
        measure_bits(oracle, theta, 0.01, m, rng)
    assert {ident for ident, _ in opened} == {caller}
    per_batch = [[block for _, block in opened].count(b) for b in range(rng.counter)]
    # one generator per batch; the worker fills with one of its own
    assert per_batch == [1, 1, 1]
    assert caller in filled and len(filled) == 2


def test_measure_bits_stops_its_fills_when_the_oracle_raises(monkeypatch):
    k, m, seed = 10_000, 20, 5
    caller = threading.get_ident()
    fills, active, lock = [], [0], threading.Lock()
    chunk2_started = threading.Event()
    fill_rows = RngState._fill_rows

    def recording_fill_rows(self, gen, rows, block, start):
        with lock:
            fills.append(start)
            active[0] += 1
        try:
            if threading.get_ident() != caller and start >= 12:
                chunk2_started.set()
                time.sleep(0.05)  # keeps a row of chunk 2 in flight when the oracle raises
            fill_rows(self, gen, rows, block, start)
        finally:
            with lock:
                active[0] -= 1

    monkeypatch.setattr(RngState, "_fill_rows", recording_fill_rows)
    obj = make_sparse_quadratic(k, 5, seed=2)
    theta = ParamVector(point_with_gradient_norm(obj, 1.0, RngState(4).substream(0)))
    inner, asked = obj.comparison_oracle(), [0]

    def oracle(a, b):
        asked[0] += 1
        if asked[0] == 8:  # row 7, in chunk 1 (rows 6 to 11)
            assert chunk2_started.wait(timeout=60)
            raise OracleError("failed on purpose")
        return inner(a, b)

    rng = RngState(seed)
    with pytest.raises(OracleError, match="on purpose"):
        measure_bits(oracle, theta, 0.01, m, rng)
    assert active[0] == 0
    # chunk 2 (rows 12 to 17) was claimed at the error, not filled to the end
    assert 1 <= len([start for start in fills if start >= 12]) < 6
    seen = len(fills)
    # every job handed to the worker before it has run once this one has
    core._row_worker().submit(lambda: None).result(timeout=60)
    assert len(fills) == seen
    monkeypatch.setattr(RngState, "_fill_rows", fill_rows)
    after = measure_bits(inner, theta, 0.01, m, rng)
    fresh = measure_bits(inner, theta, 0.01, m, RngState(seed, counter=after.iteration))
    assert after.signs.tobytes() == fresh.signs.tobytes()
    assert after.signed_direction_sum().tobytes() == fresh.signed_direction_sum().tobytes()


@pytest.mark.parametrize("k, m", [(1, 3), (300, 5), (300, 700), (core._SPLIT_MIN_DIM - 1, 20)])
def test_measure_bits_batches_in_turn_are_the_same_on_one_or_two_threads(k, m):
    obj = make_sparse_quadratic(k, 1, seed=k)
    theta = ParamVector(point_with_gradient_norm(obj, 1.0, RngState(4).substream(0)))
    rng = RngState(12)
    # each batch but the first takes its chunk 0 filled ahead, except after
    # the change of m, which drops it
    for block, n in enumerate((m, m, m + 1, m)):
        batch = measure_bits(obj.comparison_oracle(), theta, 0.01, n, rng)
        expected = one_thread_batch(obj.comparison_oracle(), theta, 0.01, n, 12, block)
        assert_same_batch(batch, expected)


@pytest.mark.parametrize("k", [300, core._SPLIT_MIN_DIM])
def test_an_oracle_that_keeps_its_candidates_sees_them_unchanged(k):
    obj = make_sparse_quadratic(k, 5, seed=k)
    theta = ParamVector(point_with_gradient_norm(obj, 1.0, RngState(4).substream(0)))
    inner, kept = obj.comparison_oracle(), []

    def oracle(a, b):
        kept.append((b, b.values.tobytes()))
        return inner(a, b)

    # three chunks, the last one short; the second batch takes chunk 0 filled ahead
    m, rng = 2 * (core._CHUNK_FLOATS // k) + 5, RngState(13)
    for block in (0, 1):
        measure_bits(oracle, theta, 0.01, m, rng)
        assert len(kept) == (block + 1) * m
        assert all(candidate.values.tobytes() == seen for candidate, seen in kept)
    rows = [RngState(13).sphere_rows(block, m, k) for block in (0, 1)]
    expected = reference_candidate_values(theta, np.concatenate(rows), 0.01)
    for (candidate, _), values in zip(kept, expected, strict=True):
        assert candidate.values.tobytes() == values.tobytes()
        assert not candidate.values.flags.writeable


@pytest.mark.parametrize("bad", [3, 11, 19])
def test_measure_bits_checks_a_chunks_candidates_before_asking_about_any(bad):
    # chunks of 8 rows: rows 0 to 7, 8 to 15 and 16 to 19
    k, m, radius = core._SPLIT_MIN_DIM, 20, 1e308
    rows = RngState(6).sphere_rows(0, m, k)
    # coordinate j of candidate ``bad`` alone overflows
    j = int(np.argmax(rows[bad]))
    others = np.delete(rows[:, j], bad).max()
    assert rows[bad, j] > others
    values = np.zeros(k)
    values[j] = np.finfo(np.float64).max - radius * (rows[bad, j] + others) / 2
    asked = []

    def oracle(a, b):
        asked.append(b)
        # finite at every candidate that is built; a sum would overflow past the max
        return compare_function(lambda v: float(v.max()), a, b)

    with pytest.raises(ValueError, match="NaN or Inf"):
        measure_bits(oracle, ParamVector(values), radius, m, RngState(6))
    # every candidate of the chunks before was asked about, none of its own chunk
    assert len(asked) == bad // 8 * 8


# Pinned to one CPU before duelopt is imported, the child draws on the
# schedule a one-CPU machine gives: the caller and the worker share the core.
ONE_CPU_CHILD = """
import hashlib, json, os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from duelopt import ParamVector, RngState, core, measure_bits
from duelopt import make_sparse_quadratic, point_with_gradient_norm
digests = {}
for k in (300, core._SPLIT_MIN_DIM):
    obj = make_sparse_quadratic(k, 5, seed=k)
    theta = ParamVector(point_with_gradient_norm(obj, 1.0, RngState(4).substream(0)))
    # three chunks, the last one short
    m, rng = 2 * (core._CHUNK_FLOATS // k) + 5, RngState(21)
    digests[k] = [
        [hashlib.sha256(a).hexdigest() for a in (b.signs.tobytes(), b.direction_sum.tobytes())]
        for b in (measure_bits(obj.comparison_oracle(), theta, 0.01, m, rng) for _ in range(2))
    ]
cpus, worker = len(os.sched_getaffinity(0)), core._row_pool is not None
print(json.dumps({"cpus": cpus, "worker": worker, "digests": digests}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_measure_bits_on_one_cpu_keeps_every_byte():
    src = str(Path(duelopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", ONE_CPU_CHILD], capture_output=True, text=True, timeout=120, env=env
    )
    assert out.returncode == 0, out.stderr
    child = json.loads(out.stdout)
    assert child["cpus"] == 1 and child["worker"]
    for k in (300, core._SPLIT_MIN_DIM):
        obj = make_sparse_quadratic(k, 5, seed=k)
        theta = ParamVector(point_with_gradient_norm(obj, 1.0, RngState(4).substream(0)))
        m = 2 * (core._CHUNK_FLOATS // k) + 5
        expected = [
            one_thread_batch(obj.comparison_oracle(), theta, 0.01, m, 21, block)
            for block in (0, 1)
        ]
        # the second batch takes its chunk 0 filled ahead by the first
        assert child["digests"][str(k)] == [
            [hashlib.sha256(a).hexdigest() for a in (b.signs.tobytes(), b.direction_sum.tobytes())]
            for b in expected
        ]


@pytest.mark.parametrize("raise_at", [100, 205])
def test_measure_bits_leaves_no_short_row_fill_in_flight_when_the_oracle_raises(
    monkeypatch, raise_at
):
    # 93 rows per chunk: chunks start at rows 0, 93 and 186
    k, m, seed = 700, 210, 5
    caller = threading.get_ident()
    fills, active, lock = [], [0], threading.Lock()
    started = {(0, 186): threading.Event(), (1, 0): threading.Event()}
    fill_rows = RngState._fill_rows

    def recording_fill_rows(self, gen, rows, block, start):
        with lock:
            fills.append((block, start))
            active[0] += 1
        try:
            if threading.get_ident() != caller:
                if (block, start) in started:
                    started[block, start].set()
                time.sleep(0.05)  # keeps the worker's fill in flight when the oracle raises
            fill_rows(self, gen, rows, block, start)
        finally:
            with lock:
                active[0] -= 1

    monkeypatch.setattr(RngState, "_fill_rows", recording_fill_rows)
    obj = make_sparse_quadratic(k, 5, seed=2)
    theta = ParamVector(point_with_gradient_norm(obj, 1.0, RngState(4).substream(0)))
    inner, asked = obj.comparison_oracle(), [0]
    # row 100 is in chunk 1, while chunk 2 is filled; row 205 in the last
    # chunk, while chunk 0 of block 1 is filled ahead
    in_flight = (0, 186) if raise_at < 186 else (1, 0)

    def oracle(a, b):
        asked[0] += 1
        if asked[0] == raise_at + 1:
            assert started[in_flight].wait(timeout=60)
            raise OracleError("failed on purpose")
        return inner(a, b)

    rng = RngState(seed)
    with pytest.raises(OracleError, match="on purpose"):
        measure_bits(oracle, theta, 0.01, m, rng)
    assert active[0] == 0 and rng._ahead is None
    seen = len(fills)
    # every job handed to the worker before it has run once this one has
    core._row_worker().submit(lambda: None).result(timeout=60)
    assert len(fills) == seen
    monkeypatch.setattr(RngState, "_fill_rows", fill_rows)
    after = measure_bits(inner, theta, 0.01, m, rng)
    fresh = measure_bits(inner, theta, 0.01, m, RngState(seed, counter=after.iteration))
    assert after.signs.tobytes() == fresh.signs.tobytes()
    assert after.signed_direction_sum().tobytes() == fresh.signed_direction_sum().tobytes()


@st.composite
def builtin_oracle_cases(draw):
    """A built-in oracle, the same comparison computed afresh, and a batch to measure.

    The synthetic oracle runs on either objective; the preference oracle on
    a toy policy down to V x F = 2 x 1, over 1 to 4 pairs whose responses
    may be one token long. The base point may be masked.
    """
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        d = draw(st.integers(1, 12))
        make = draw(st.sampled_from([make_sparse_quadratic, make_nonconvex_sparse]))
        obj = make(d, draw(st.integers(1, d)), seed=draw(st.integers(0, 999)))
        oracle = obj.comparison_oracle()

        def fresh(a, b):
            return Sign.MINUS if obj.value(b.values) < obj.value(a.values) else Sign.PLUS

    else:
        V, F = draw(st.sampled_from([(2, 1), (3, 2), (4, 3)]))
        d = V * F
        policy = make_toy_policy(V, F, weight_seed=draw(st.integers(0, 999)))

        def tokens():
            return tuple(int(t) for t in gen.integers(0, V, size=draw(st.integers(1, 3))))

        pairs = [
            PreferencePair(tokens(), tokens(), tokens()) for _ in range(draw(st.integers(1, 4)))
        ]
        builtin = partial(compare_preference, policy.log_likelihood_at)

        def oracle(a, b):
            return builtin(a, b, pairs)

        def loglik(point, prompt, response):
            return policy.with_flat_params(point.values).sequence_log_likelihood(prompt, response)

        def fresh(a, b):
            for pair in pairs:
                for response, rises in ((pair.preferred, True), (pair.dispreferred, False)):
                    base = loglik(a, pair.prompt, response)
                    cand = loglik(b, pair.prompt, response)
                    if not (cand > base if rises else cand < base):
                        return Sign.PLUS
            return Sign.MINUS

    mask = None
    if draw(st.booleans()):
        mask = np.sort(gen.choice(d, size=int(gen.integers(1, d + 1)), replace=False))
    theta = ParamVector(gen.standard_normal(d), scope_mask=mask)
    rng = RngState(draw(st.integers(0, 2**64 - 1)), counter=draw(st.integers(0, 5)))
    radius = draw(st.floats(1e-3, 2.0))
    return oracle, fresh, theta, radius, draw(st.integers(1, 20)), rng


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(builtin_oracle_cases())
def test_builtin_oracles_sign_as_a_comparison_without_kept_base_values(case):
    oracle, fresh, theta, radius, m, rng = case
    # the second batch about the same base point reads the values the first kept
    for _ in range(2):
        expected = measure_bits(fresh, theta, radius, m, RngState(rng.seed, rng.counter))
        assert measure_bits(oracle, theta, radius, m, rng).signs.tobytes() == (
            expected.signs.tobytes()
        )


def test_bit_measurement_batch_rejects_malformed_batches():
    rows = np.eye(3)
    signs = np.array([1, -1, 1])

    def from_rows(directions=rows, signs=signs, radius=0.5):
        return BitMeasurementBatch.from_directions(directions, signs, radius, iteration=0)

    def from_sum(direction_sum=rows.sum(axis=0), signs=signs, radius=0.5):
        return BitMeasurementBatch(signs, direction_sum, radius, iteration=0)

    for batch in (from_rows, from_sum):
        batch()
        with pytest.raises(InvalidBatchError, match="signs must be"):
            batch(signs=np.array([1, 0, -1]))
        with pytest.raises(InvalidBatchError, match="radius"):
            batch(radius=0.0)
        with pytest.raises(InvalidBatchError, match="radius"):
            batch(radius=math.nan)
        # values are checked before the int8 cast, which would read 255 as -1
        with pytest.raises(InvalidBatchError, match="signs must be"):
            batch(signs=np.array([1, 255, -1]))
        with pytest.raises(InvalidBatchError, match="signs must be"):
            batch(signs=np.array([1.7, -1.2, 1.0]))
        with pytest.raises(InvalidBatchError, match="signs must be a nonempty 1-D"):
            batch(signs=np.array([], dtype=np.int8))
    # only rows can be checked for unit length and counted against the signs
    with pytest.raises(InvalidBatchError, match="unit"):
        from_rows(directions=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1e-4], [0.0, 0.0, 1.0]]))
    with pytest.raises(InvalidBatchError, match="unit"):
        from_rows(directions=np.array([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(InvalidBatchError, match="length"):
        from_rows(signs=np.array([1, -1]))
    with pytest.raises(InvalidBatchError, match="matrix"):
        from_rows(directions=rows[0])
    with pytest.raises(InvalidBatchError, match="direction sum"):
        from_sum(direction_sum=rows)
    with pytest.raises(InvalidBatchError, match="direction sum"):
        from_sum(direction_sum=np.empty(0))


def test_bit_measurement_batch_keeps_the_sum_not_the_rows():
    rows = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, -1.0]])
    kept = rows.copy()
    batch = BitMeasurementBatch.from_directions(rows, [1, -1, -1], 0.5, iteration=4)
    assert not hasattr(batch, "directions")
    assert rows.tobytes() == kept.tobytes()
    assert batch.m == 3
    assert batch.signs.dtype == np.int8 and not batch.signs.flags.writeable
    c = batch.signed_direction_sum()
    assert c.tobytes() == np.add.reduce(np.array([[0.6, 0.8], [-1.0, -0.0], [-0.0, 1.0]])).tobytes()
    c[0] = 9.0
    assert batch.signed_direction_sum()[0] == 0.6 - 1.0


def test_bit_measurement_batch_copies_the_callers_sum_read_only():
    total = np.array([0.25, -1.5])
    signs = [1, -1, -1]
    batch = BitMeasurementBatch(signs, total, 0.5, iteration=2)
    total[0] = 9.0
    assert batch.direction_sum.tobytes() == np.array([0.25, -1.5]).tobytes()
    assert not batch.direction_sum.flags.writeable
    with pytest.raises(ValueError):
        batch.direction_sum[1] = 0.0
    assert batch.m == 3 and batch.iteration == 2
    assert batch.signs.dtype == np.int8 and not batch.signs.flags.writeable
    assert batch.signed_direction_sum().tobytes() == batch.direction_sum.tobytes()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(measurement_cases())
def test_measure_bits_is_bit_identical_for_any_chunk_size(case):
    theta, weights, radius, m, rng = case
    k = theta.scope_dim
    assume(k >= 2)

    def oracle(a, b):
        return compare_function(lambda v: float(np.dot(weights, v)), a, b)

    batches = []
    with pytest.MonkeyPatch.context() as patch:
        # rows of any length have a key each, so the chunk size leaves them as they are
        patch.setattr(core, "_SPLIT_MIN_DIM", 1)
        for rows_per_chunk in (1, 3, m):
            patch.setattr(core, "_CHUNK_FLOATS", rows_per_chunk * k)
            fresh = RngState(rng.seed, rng.counter)
            batches.append(measure_bits(oracle, theta, radius, m, fresh))
        first = batches[0]
        whole = BitMeasurementBatch.from_directions(
            RngState(rng.seed).sphere_rows(first.iteration, m, k), first.signs, radius,
            iteration=first.iteration,
        )
    for batch in batches:
        assert batch.iteration == rng.counter
        assert batch.signs.tobytes() == first.signs.tobytes()
        assert batch.signed_direction_sum().tobytes() == whole.signed_direction_sum().tobytes()


def test_measure_bits_holds_no_m_by_k_matrix():
    # basic-10k's batch: m = 191 rows of k = 10^4 floats would take 14.6 MiB
    obj = make_sparse_quadratic(10_000, 10, seed=1)
    theta = ParamVector(np.full(10_000, 0.5))
    oracle = obj.comparison_oracle()
    tracemalloc.start()
    try:
        batch = measure_bits(oracle, theta, 1e-3, 191, RngState(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.m == 191
    assert peak < 4 * 2**20


@pytest.mark.parametrize("dim", [20_000, 100_000])
def test_measure_bits_builds_masked_candidates_about_a_chunk_at_a_time(dim):
    # k = 1, so one chunk holds all 200 rows; built at once, their candidates
    # would take 200 * dim floats (32 MB at dim = 2 * 10^4)
    theta = ParamVector(np.zeros(dim), scope_mask=[dim // 2])
    oracle = partial(compare_function, lambda v: float(v[dim // 2]))
    rng = RngState(2)
    measure_bits(oracle, theta, 1e-3, 200, rng)  # a first call's one-off allocations
    tracemalloc.start()
    try:
        batch = measure_bits(oracle, theta, 1e-3, 200, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.m == 200
    assert peak < 2 * 8 * max(dim, core._CHUNK_FLOATS)
