import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duelopt import (
    BitMeasurementBatch,
    clip_small_entries,
    estimate_normalized_clip,
    solve_1bge_exact,
)
from duelopt.errors import DegenerateMeasurementError
from duelopt.sparse_grad import _threshold_for_ratio

from reference_solvers import (
    dual_upper_bound,
    maximize_linear_brute_batch,
    reference_threshold_for_ratio,
)


def batch_from(directions, signs, radius=1.0):
    return BitMeasurementBatch.from_directions(
        np.asarray(directions, dtype=float), np.asarray(signs, dtype=np.int8), radius, iteration=0
    )


def axis_batch(c):
    """Measurements along coordinate axes whose signed sum equals c exactly."""
    c = np.asarray(c, dtype=float)
    dirs, signs = [], []
    for i, value in enumerate(c):
        unit = np.zeros(c.size)
        unit[i] = 1.0
        for _ in range(int(round(abs(value)))):
            dirs.append(unit)
            signs.append(1 if value > 0 else -1)
    if not dirs:  # keep the batch constructible for the degenerate test
        unit = np.zeros(c.size)
        unit[0] = 1.0
        dirs = [unit, unit]
        signs = [1, -1]
    return batch_from(dirs, signs)


# ----- exact solver ---------------------------------------------------------


def test_exact_single_nonzero():
    est = solve_1bge_exact(axis_batch([3, 0, 0, 0]), s=4)
    assert np.allclose(est.direction, [1, 0, 0, 0])
    assert est.method == "exact_1bge"


def test_exact_pure_normalization_branch():
    est = solve_1bge_exact(axis_batch([1, 1]), s=2)
    assert np.allclose(est.direction, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_exact_one_sparse_forces_largest_coordinate():
    est = solve_1bge_exact(axis_batch([2, 1, 0]), s=1)
    assert np.allclose(est.direction, [1, 0, 0])
    assert est.nonzero_count == 1


def test_exact_tied_maximum_takes_dense_support():
    # two tied maxima with s=1: l1 face optimum, split across the tie
    est = solve_1bge_exact(axis_batch([2, -2, 0]), s=1)
    assert np.allclose(est.direction, [0.5, -0.5, 0.0])
    assert est.l1_norm <= 1.0 + 1e-9


def test_exact_degenerate_sum_raises():
    unit = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateMeasurementError):
        solve_1bge_exact(batch_from(unit, [1, -1]), s=1)


def test_exact_matches_brute_force_and_dual_certificate():
    gen = np.random.default_rng(1234)
    padded, radii, exact_vals = [], [], []
    for _ in range(40):
        k = int(gen.integers(2, 7))
        s = int(gen.integers(1, 4))
        scale = float(gen.uniform(0.5, 3.0))
        target = scale * gen.standard_normal(k)
        directions = gen.standard_normal((max(2 * k, 6), k))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        signs = np.where(directions @ target >= 0, 1, -1)
        batch = batch_from(directions, signs)
        est = solve_1bge_exact(batch, s)
        c = batch.signed_direction_sum()
        value = float(np.dot(c, est.direction))
        assert est.l1_norm <= np.sqrt(s) + 1e-9
        assert est.l2_norm <= 1.0 + 1e-9
        dual = dual_upper_bound(c, s)
        assert value - 1e-9 <= dual <= value + 1e-6
        row = np.zeros(6)
        row[:k] = c
        padded.append(row)
        radii.append(np.sqrt(s))
        exact_vals.append(value)
    brute = maximize_linear_brute_batch(np.array(padded), np.array(radii), steps=800)
    assert np.all(np.array(exact_vals) >= brute - 1e-6)


def test_exact_feasible_on_random_inputs():
    gen = np.random.default_rng(77)
    for _ in range(1000):
        k = int(gen.integers(1, 40))
        s = int(gen.integers(1, k + 1))
        directions = gen.standard_normal((int(gen.integers(1, 12)), k))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        signs = np.where(gen.random(directions.shape[0]) < 0.5, 1, -1)
        batch = batch_from(directions, signs)
        try:
            est = solve_1bge_exact(batch, s)
        except DegenerateMeasurementError:
            continue
        assert est.l1_norm <= np.sqrt(s) + 1e-9
        assert est.l2_norm <= 1.0 + 1e-9


@st.composite
def exact_solver_cases(draw):
    """A measurement batch and a sparsity level s <= k."""
    k = draw(st.integers(1, 12))
    m = draw(st.integers(1, 30))
    if draw(st.booleans()):
        # signed standard-basis rows: the signed sum is integer-valued, so
        # tied magnitudes and breakpoint crossings are common
        directions = np.eye(k)[draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))]
    else:
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        directions = gen.standard_normal((m, k))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m))
    return batch_from(directions, signs), draw(st.integers(1, k))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(exact_solver_cases())
def test_exact_feasible_and_dual_certified_property(case):
    batch, s = case
    c = batch.signed_direction_sum()
    try:
        est = solve_1bge_exact(batch, s)
    except DegenerateMeasurementError:
        assert not c.any()
        return
    assert est.l1_norm <= np.sqrt(s) + 1e-9
    assert est.l2_norm <= 1.0 + 1e-9
    value = float(np.dot(c, est.direction))
    assert abs(dual_upper_bound(c, s, grid=1000) - value) <= 1e-6


def test_threshold_scan_finds_a_crossing_on_a_breakpoint():
    # at tau = 0.1 the squared l1/l2 ratio is exactly 2, and rounding put s
    # between the end values of two adjacent breakpoint intervals
    mags = np.abs([0.1, 1.3, -0.4, 0.4])
    tau = _threshold_for_ratio(mags, 2.0)
    shrunk = np.maximum(mags - tau, 0.0)
    direction = shrunk / np.linalg.norm(shrunk)
    assert tau == pytest.approx(0.1, abs=1e-12)
    assert abs(direction.sum() - np.sqrt(2.0)) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.one_of(st.integers(2, 60), st.integers(61, 10**4)),
    exponents=st.tuples(st.integers(-200, 200), st.integers(-200, 200)),
    ties=st.sampled_from(["none", "some", "max"]),
    zeros=st.booleans(),
    s_frac=st.floats(0.0, 1.0),
)
# every magnitude tied: only the last interval, which ends at tau = 0, is nonempty
@example(seed=0, k=7, exponents=(0, 0), ties="none", zeros=False, s_frac=1.0)
# squares that underflow to 0 and overflow to inf
@example(seed=1, k=30, exponents=(-200, -170), ties="none", zeros=True, s_frac=0.1)
@example(seed=2, k=30, exponents=(160, 200), ties="some", zeros=False, s_frac=0.1)
@example(seed=3, k=10**4, exponents=(-3, 0), ties="max", zeros=True, s_frac=0.5)
def test_threshold_for_ratio_equals_the_fixed_step_bisection(
    seed, k, exponents, ties, zeros, s_frac
):
    """Bisecting in Python floats and stopping at a fixed bracket keeps every bit.

    The reference runs all 100 steps in numpy scalars. s runs from 1 to k,
    so the scan also ends on the last interval (lo = 0), and magnitudes from
    1e-200 to 1e200 put zeros, infs and NaNs into the ratio.
    """
    gen = np.random.default_rng(seed)
    mags = 10.0 ** gen.uniform(min(exponents), max(exponents), size=k)
    if ties == "some":
        mags[: k // 2] = gen.choice(mags[k // 2:][:3], size=k // 2)
    elif ties == "max":
        mags[: k // 3] = mags.max()
    if zeros:
        mags[1:][gen.random(k - 1) < 0.3] = 0.0
    gen.shuffle(mags)
    assert_threshold_bits_equal_reference(mags, float(1 + round(s_frac * (k - 1))))


# the last step of these sets hi = lo: a bracket that closes on its lower end
@pytest.mark.parametrize("mags, s", [([1.0, 2.0], 1.0), ([4.0, 2.0], 1.0), ([0.0, 3.0], 1.0)])
def test_threshold_for_ratio_keeps_a_bracket_that_closes_on_its_lower_end(mags, s):
    assert_threshold_bits_equal_reference(np.array(mags), s)


def assert_threshold_bits_equal_reference(mags, s):
    with np.errstate(all="ignore"):
        want = reference_threshold_for_ratio(mags, s)
        got = _threshold_for_ratio(mags, s)
    assert float(got).hex() == float(want).hex()


def test_exact_recovers_planted_direction_small():
    # scaled-down recovery run: planted 5-sparse unit vector, 20% sign flips
    gen = np.random.default_rng(5)
    d, s, m = 100, 5, int(np.ceil(40 * 5 * np.log(2 * 100 / 5)))
    hits = 0
    for _ in range(20):
        planted = np.zeros(d)
        v = gen.standard_normal(s)
        planted[gen.choice(d, s, replace=False)] = v / np.linalg.norm(v)
        Z = gen.standard_normal((m, d))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        signs = np.where(Z @ planted >= 0, 1, -1)
        signs = signs * np.where(gen.random(m) < 0.2, -1, 1)
        est = solve_1bge_exact(batch_from(Z, signs), s)
        hits += int(np.linalg.norm(est.direction - planted) <= 0.5)
    assert hits >= 18


class _SumOnlyBatch:
    """Stub exposing just the signed sum, for driving the solver directly."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def signed_direction_sum(self):
        return self.c.copy()


def test_exact_certified_on_adversarial_structures():
    # ties, integer magnitudes, duplicated blocks, extreme scales, 1-sparse:
    # the weak-duality certificate pins every answer to its optimum
    gen = np.random.default_rng(99)
    for trial in range(400):
        k = int(gen.integers(1, 60))
        s = int(gen.integers(1, k + 1))
        style = trial % 5
        if style == 0:
            c = gen.standard_normal(k)
        elif style == 1:
            c = gen.integers(-3, 4, size=k).astype(float)
        elif style == 2:
            c = np.repeat(gen.standard_normal(max(k // 4, 1)), 4)[:k]
        elif style == 3:
            c = gen.standard_normal(k) * 10.0 ** gen.integers(-8, 9)
        else:
            c = np.zeros(k)
            c[gen.integers(0, k)] = float(gen.standard_normal() or 1.0)
        if np.linalg.norm(c) == 0:
            continue
        try:
            est = solve_1bge_exact(_SumOnlyBatch(c), s)
        except DegenerateMeasurementError:
            continue
        assert est.l1_norm <= np.sqrt(s) * (1 + 1e-12) + 1e-9
        assert est.l2_norm <= 1.0 + 1e-9
        value = float(np.dot(c, est.direction))
        upper = dual_upper_bound(c, s, grid=1500)
        assert (upper - value) / max(abs(upper), 1e-300) >= -1e-9
        assert (upper - value) / max(abs(upper), 1e-300) <= 1e-9


def test_exact_ignores_radius_metadata():
    gen = np.random.default_rng(9)
    directions = gen.standard_normal((10, 6))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    signs = np.where(gen.random(10) < 0.5, 1, -1)
    small = batch_from(directions, signs, radius=1e-4)
    large = batch_from(directions, signs, radius=10.0)
    a = solve_1bge_exact(small, 2)
    b = solve_1bge_exact(large, 2)
    assert np.array_equal(a.direction, b.direction)
    c = estimate_normalized_clip(small, 0.1)
    d = estimate_normalized_clip(large, 0.1)
    assert np.array_equal(c.direction, d.direction)


# ----- normalize-then-clip ---------------------------------------------------


def test_normalized_clip_example():
    batch = batch_from([[1.0, 0.0], [0.0, 1.0]], [-1, 1])
    est = estimate_normalized_clip(batch, lambda_g=0.5)
    assert np.allclose(est.direction, [-1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert est.method == "normalized_clip"


def test_normalized_clip_can_zero_everything():
    batch = batch_from([[1.0, 0.0], [0.0, 1.0]], [-1, 1])
    est = estimate_normalized_clip(batch, lambda_g=0.8)
    assert np.array_equal(est.direction, [0.0, 0.0])
    assert est.nonzero_count == 0


def test_normalized_clip_zero_threshold_is_pure_normalization():
    gen = np.random.default_rng(3)
    directions = gen.standard_normal((8, 5))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    signs = np.where(gen.random(8) < 0.5, 1, -1)
    batch = batch_from(directions, signs)
    est = estimate_normalized_clip(batch, 0.0)
    c = batch.signed_direction_sum()
    assert np.allclose(est.direction, c / np.linalg.norm(c))
    assert abs(est.l2_norm - 1.0) < 1e-12


def test_normalized_clip_degenerate_raises():
    unit = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateMeasurementError):
        estimate_normalized_clip(batch_from(unit, [1, -1]), 0.1)


def test_normalized_clip_surviving_entries_at_least_threshold():
    gen = np.random.default_rng(21)
    for _ in range(500):
        k = int(gen.integers(2, 20))
        directions = gen.standard_normal((int(gen.integers(2, 10)), k))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        signs = np.where(gen.random(directions.shape[0]) < 0.5, 1, -1)
        lam = float(gen.uniform(0, 0.6))
        try:
            est = estimate_normalized_clip(batch_from(directions, signs), lam)
        except DegenerateMeasurementError:
            continue
        nonzero = est.direction[est.direction != 0.0]
        assert np.all(np.abs(nonzero) >= lam)
        assert est.l2_norm <= 1.0 + 1e-9


# ----- clip ------------------------------------------------------------------


def test_clip_examples():
    assert np.array_equal(clip_small_entries(np.array([0.3, -0.1]), 0.2), [0.3, 0.0])
    assert np.array_equal(clip_small_entries(np.array([0.2]), 0.2), [0.2])  # boundary kept
    v = np.array([0.5, -0.4, 0.0])
    assert np.array_equal(clip_small_entries(v, 0.0), v)
    for bad in (-0.1, np.nan):
        with pytest.raises(ValueError, match="lambda_g"):
            clip_small_entries(v, bad)


def test_clip_idempotent():
    gen = np.random.default_rng(17)
    for _ in range(1000):
        v = gen.standard_normal(int(gen.integers(1, 30)))
        lam = float(gen.uniform(0, 1.5))
        once = clip_small_entries(v, lam)
        twice = clip_small_entries(once, lam)
        assert np.array_equal(once, twice)
