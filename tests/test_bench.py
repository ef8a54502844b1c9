import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelopt import (
    BitMeasurementBatch,
    ParamVector,
    RngState,
    SyntheticObjective,
    check_estimator_error,
    check_sign_agreement,
    compare_function,
    make_nonconvex_sparse,
    make_sparse_quadratic,
    measure_bits,
    point_with_gradient_norm,
    solve_1bge_exact,
    sweep_convergence,
)
from duelopt import core
from duelopt.bench import _scale_reaching, start_with_gap
from duelopt.cli import export_results
from duelopt.errors import InvalidTestError

from reference_solvers import reference_scale_reaching


def sampled_smoothness_holds(obj, n_pairs=1000, seed=0):
    gen = np.random.default_rng(seed)
    for _ in range(n_pairs):
        a = gen.standard_normal(obj.dim) * gen.uniform(0.1, 3.0)
        b = gen.standard_normal(obj.dim) * gen.uniform(0.1, 3.0)
        lhs = np.linalg.norm(obj.gradient(a) - obj.gradient(b))
        rhs = obj.ell * np.linalg.norm(a - b)
        if lhs > rhs * (1 + 1e-12):
            return False
    return True


# ----- objective families ---------------------------------------------------


def test_quadratic_with_unit_coeffs_is_half_norm_squared():
    obj = make_sparse_quadratic(4, 4, seed=0, coeffs=np.ones(4))
    theta = np.array([1.0, -2.0, 0.5, 3.0])
    assert obj.value(theta) == pytest.approx(0.5 * np.dot(theta, theta), rel=1e-12)
    assert obj.ell == 1.0


def test_quadratic_minimum_at_origin():
    obj = make_sparse_quadratic(10, 3, seed=1)
    zero = np.zeros(10)
    assert obj.value(zero) == 0.0
    assert np.array_equal(obj.gradient(zero), zero)


def test_quadratic_smoothness_sampled():
    obj = make_sparse_quadratic(12, 4, seed=5)
    assert sampled_smoothness_holds(obj)


def test_nonconvex_alpha_zero_reduces_to_quadratic():
    obj = make_nonconvex_sparse(8, 3, seed=2, alpha=0.0)
    gen = np.random.default_rng(3)
    for _ in range(50):
        theta = gen.standard_normal(8)
        assert obj.value(theta) == pytest.approx(np.sum(theta[obj.support] ** 2), rel=1e-12)


def test_nonconvex_origin_is_stationary():
    obj = make_nonconvex_sparse(8, 3, seed=4, alpha=0.6)
    assert np.array_equal(obj.gradient(np.zeros(8)), np.zeros(8))
    assert obj.ell == pytest.approx(2.6)


def test_nonconvex_smoothness_sampled():
    obj = make_nonconvex_sparse(12, 5, seed=6)
    assert sampled_smoothness_holds(obj)


def test_sparse_gradient_inequality_at_sampled_points():
    gen = np.random.default_rng(7)
    for seed in range(5):
        for factory in (make_sparse_quadratic, make_nonconvex_sparse):
            obj = factory(30, 4, seed=seed)
            for _ in range(50):
                g = obj.gradient(gen.standard_normal(30) * 2)
                assert np.abs(g).sum() <= np.sqrt(obj.support.size) * np.linalg.norm(g) + 1e-12


# ----- comparison oracle ----------------------------------------------------


@pytest.mark.parametrize("make", [make_sparse_quadratic, make_nonconvex_sparse])
def test_comparison_oracle_evaluates_each_base_point_once_per_batch(make):
    calls = []
    obj = make(30, 4, seed=3)

    def value(theta):
        calls.append(1)
        return obj.value(theta)

    counted = dataclasses.replace(obj, value=value)
    oracle = counted.comparison_oracle()
    m = 17
    for t, scale in enumerate((1.0, 0.5, 0.5)):
        theta = ParamVector(scale * np.linspace(-1.0, 1.0, 30))
        calls.clear()
        batch = measure_bits(oracle, theta, 0.05, m, RngState(5, counter=t))
        # f at every candidate, and at the base point once, not once per query
        assert len(calls) == m + 1
        plain = measure_bits(
            lambda a, b: compare_function(obj.value, a, b), theta, 0.05, m,
            RngState(5, counter=t),
        )
        assert batch.signs.tobytes() == plain.signs.tobytes()


def test_comparison_oracle_does_not_keep_the_base_point_alive():
    oracle = make_sparse_quadratic(10, 3, seed=1).comparison_oracle()
    theta = ParamVector(np.ones(10))
    measure_bits(oracle, theta, 0.1, 4, RngState(0))
    ref = weakref.ref(theta)
    del theta
    assert ref() is None


def test_point_with_gradient_norm_hits_target():
    gen = np.random.default_rng(10)
    for factory in (make_sparse_quadratic, make_nonconvex_sparse):
        obj = factory(20, 5, seed=11)
        theta = point_with_gradient_norm(obj, 1.0, gen)
        assert np.linalg.norm(obj.gradient(theta)) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    scale=st.floats(1e-3, 1e3),
    power=st.floats(0.25, 4.0),
    levels=st.sampled_from([0, 1, 3, 1000]),
    target=st.floats(1e-12, 1e6),
)
def test_scale_reaching_equals_the_fixed_step_bisection(scale, power, levels, target):
    """Stopping at the first step that leaves the bracket unchanged keeps every bit.

    ``fn`` is a power law, or a staircase of it with plateaus the target can
    sit on; targets past ``fn(1e12)`` must fail to bracket in both versions.
    """

    def fn(x):
        y = scale * x**power
        return math.floor(y * levels) / levels if levels else y

    try:
        want = reference_scale_reaching(fn, target)
    except ValueError:
        with pytest.raises(InvalidTestError):
            _scale_reaching(fn, target)
        return
    assert _scale_reaching(fn, target).hex() == want.hex()


def test_start_with_gap_matches_requested_gap():
    obj = make_sparse_quadratic(15, 4, seed=12)
    theta0, delta = start_with_gap(obj, 0.5)
    assert obj.value(theta0) - obj.f_min == pytest.approx(0.5, abs=1e-9)
    assert delta == pytest.approx(0.5, abs=1e-9)


# ----- sign agreement ---------------------------------------------------------


def linear_objective(d, direction):
    direction = np.asarray(direction, dtype=float)
    support = np.flatnonzero(direction)

    def value(theta):
        return float(np.dot(direction, theta))

    def gradient(_theta):
        return direction.copy()

    # ell is an upper bound on the gradient Lipschitz constant (0 for linear)
    return SyntheticObjective(
        dim=d, support=support, ell=1.0, f_min=-np.inf, value=value, gradient=gradient,
    )


def test_sign_agreement_exact_for_linear():
    obj = linear_objective(6, [0.0, 2.0, 0.0, -1.0, 0.0, 0.0])
    theta = np.zeros(6)
    agreement = check_sign_agreement(obj, theta, epsilon=1.0, n_samples=5000, rng=RngState(1))
    assert agreement == 1.0


def test_sign_agreement_draws_its_directions_as_rows_of_one_block():
    obj = make_sparse_quadratic(12, 3, seed=17)
    rng = RngState(18, counter=5)
    theta = point_with_gradient_norm(obj, 1.0, rng.substream(rng.next_block()))
    # three chunks of one key group each, the last one short
    n, block = 2 * (core._CHUNK_FLOATS // obj.dim) + 3, rng.counter
    # a radius at which about 7% of the signs disagree, so every row counts
    agreement = check_sign_agreement(obj, theta, 1.0, n, rng, radius=1.0)
    assert rng.counter == block + 1
    # the same rows drawn in one piece
    Z = RngState(18).sphere_rows(block, n, obj.dim)
    measured = np.array([-1 if obj.value(theta + z) < obj.value(theta) else 1 for z in Z])
    linear = np.where(Z @ obj.gradient(theta) < 0.0, -1, 1)
    assert agreement == np.count_nonzero(measured == linear) / n


def test_sign_agreement_requires_large_gradient():
    obj = make_sparse_quadratic(10, 3, seed=13)
    with pytest.raises(InvalidTestError):
        check_sign_agreement(obj, np.zeros(10), epsilon=1.0, n_samples=10, rng=RngState(0))


def test_sign_agreement_improves_as_radius_shrinks():
    obj = make_sparse_quadratic(50, 5, seed=14)
    rng = RngState(15)
    theta = point_with_gradient_norm(obj, 1.0, rng.substream(rng.next_block()))
    base = 1.0 / (40.0 * obj.ell * np.sqrt(obj.dim))
    fractions = [
        check_sign_agreement(obj, theta, 1.0, 20_000, RngState(16), radius=base * scale)
        for scale in (16.0, 4.0, 1.0)
    ]
    assert fractions[0] <= fractions[1] + 0.005
    assert fractions[1] <= fractions[2] + 0.005


# ----- estimator recovery -------------------------------------------------------


def test_estimator_error_one_dimensional_is_exact():
    report = check_estimator_error(d=1, s=1, flip_prob=0.0, m=8, trials=5, rng=RngState(2))
    assert np.array_equal(report.errors, np.zeros(5))


def test_estimator_error_decreases_with_m():
    medians = []
    for m in (40, 160, 640):
        report = check_estimator_error(d=50, s=3, flip_prob=0.0, m=m, trials=30, rng=RngState(3))
        medians.append(float(np.median(report.errors)))
    assert medians[2] < medians[0]


def test_estimator_error_measures_each_trial_on_the_rows_of_one_block():
    d, s, m, trials, flip_prob = 30, 3, 700, 4, 0.2
    report = check_estimator_error(d, s, flip_prob, m, trials, RngState(9, counter=2))
    # each trial: one block plants its direction and flips, the next gives its rows
    rng = RngState(9, counter=2)
    for trial in range(trials):
        gen = rng.substream(rng.next_block())
        planted = np.zeros(d)
        v = gen.standard_normal(s)
        planted[np.sort(gen.choice(d, size=s, replace=False))] = v / np.linalg.norm(v)
        Z = rng.sphere_rows(rng.next_block(), m, d)
        signs = np.where(Z @ planted < 0.0, -1, 1) * np.where(gen.random(m) < flip_prob, -1, 1)
        batch = BitMeasurementBatch.from_directions(Z, signs, radius=1.0, iteration=trial)
        error = np.linalg.norm(solve_1bge_exact(batch, s).direction - planted)
        assert report.errors[trial] == error


def test_estimator_error_holds_no_direction_matrix():
    # one trial's (m, d) rows would take 30.5 MiB
    tracemalloc.start()
    try:
        report = check_estimator_error(d=20_000, s=5, flip_prob=0.1, m=200, trials=1, rng=RngState(6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(report.errors[0])
    assert peak < 8 * 2**20


def test_estimator_error_deterministic():
    a = check_estimator_error(d=30, s=3, flip_prob=0.1, m=60, trials=10, rng=RngState(4))
    b = check_estimator_error(d=30, s=3, flip_prob=0.1, m=60, trials=10, rng=RngState(4))
    assert np.array_equal(a.errors, b.errors)


def test_estimator_error_validates_flip_probability():
    with pytest.raises(InvalidTestError):
        check_estimator_error(d=10, s=2, flip_prob=0.5, m=10, trials=2, rng=RngState(0))


# ----- convergence sweep ---------------------------------------------------------


def test_sweep_small_grid_converges():
    report = sweep_convergence([50, 100], 5, 0.1, 0.1, seeds=[0, 1], c_m=2.0)
    assert report.all_converged()
    assert report.mean_calls(50) is not None
    ratios = report.doubling_ratios()
    assert len(ratios) == 1 and ratios[0][:2] == (50, 100)


def test_sweep_dense_needs_more_calls_than_sparse():
    sparse = sweep_convergence([400], 5, 0.1, 0.1, seeds=[0], c_m=1.0)
    dense = sweep_convergence([400], 400, 0.1, 0.1, seeds=[0], c_m=1.0)
    assert sparse.all_converged() and dense.all_converged()
    assert dense.mean_calls(400) > sparse.mean_calls(400)


def test_sweep_halving_epsilon_multiplies_calls_reasonably():
    seeds = [0, 1, 2]
    coarse = sweep_convergence([100], 5, 0.2, 0.1, seeds=seeds, c_m=2.0)
    fine = sweep_convergence([100], 5, 0.1, 0.1, seeds=seeds, c_m=2.0)
    factor = fine.mean_calls(100) / coarse.mean_calls(100)
    assert 2.0 <= factor <= 8.0


def test_sweep_reports_are_deterministic():
    a = sweep_convergence([60], 4, 0.1, 0.1, seeds=[5], c_m=1.0)
    b = sweep_convergence([60], 4, 0.1, 0.1, seeds=[5], c_m=1.0)
    assert a.csv_rows() == b.csv_rows()


def test_sweep_censors_untracked_cells(tmp_path):
    from duelopt.bench import SweepCell, SweepReport

    report = SweepReport(
        cells=[
            SweepCell(d=10, seed=0, converged=True, oracle_calls=100, iterations=5, min_grad_norm=0.05),
            SweepCell(d=10, seed=1, converged=False, oracle_calls=None, iterations=50, min_grad_norm=0.5),
            SweepCell(d=20, seed=0, converged=True, oracle_calls=150, iterations=6, min_grad_norm=0.04),
        ],
    )
    assert not report.all_converged()
    assert report.mean_calls(10) == 100.0  # censored cell excluded, not fatal
    assert report.max_doubling_ratio() == pytest.approx(1.5)
    lines = export_results(report, tmp_path / "sweep_report.csv").read_text().splitlines()
    assert lines[2].split(",")[3] == ""  # censored cell exports an empty call count
