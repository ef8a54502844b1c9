import dataclasses
import math

import numpy as np
import pytest

from duelopt import (
    ParamVector,
    PracticalConfig,
    PreferencePair,
    RngState,
    Sign,
    TheoremSchedule,
    compare_function,
    make_sparse_quadratic,
    run_basic,
    run_practical,
    schedule_from_theorem,
)
from duelopt.bench import start_with_gap
from duelopt.errors import InvalidScheduleError
from duelopt.optimizer import loop_profile


def scripted_oracle(signs):
    """Oracle returning a fixed sign sequence in query order."""
    signs = list(signs)
    calls = {"i": 0}

    def oracle(_theta, _theta_prime):
        value = signs[calls["i"] % len(signs)]
        calls["i"] += 1
        return Sign(value)

    return oracle


def practical_config(**kw):
    base = dict(
        gamma=1.0, radius=0.5, m=10, lambda_g=0.0, skip_threshold=0.2, iterations=1, seed=0
    )
    base.update(kw)
    return PracticalConfig(**base)


# ----- schedule ---------------------------------------------------------


def test_schedule_iteration_count():
    sched = schedule_from_theorem(0.1, 0.1, ell=1.0, Delta=1.0, s=2, d=10)
    assert sched.T == 1000


def test_schedule_stepsize():
    sched = schedule_from_theorem(0.1, 0.1, ell=1.0, Delta=1.0, s=2, d=10)
    assert math.isclose(sched.eta, math.sqrt(2.0 / 1000.0), rel_tol=1e-12)


def test_schedule_radius():
    sched = schedule_from_theorem(0.1, 0.1, ell=1.0, Delta=1.0, s=2, d=100)
    assert math.isclose(sched.r, 0.1 / (40.0 * 10.0), rel_tol=1e-12)


def test_schedule_query_count_formula():
    sched = schedule_from_theorem(0.1, 0.1, ell=1.0, Delta=1.0, s=2, d=10, c_m=3.0)
    expected = math.ceil(3.0 * (2 * math.log(10.0) + math.log(1.0 / (0.1 * 0.01))))
    assert sched.m == expected


def test_schedule_rejects_bad_inputs():
    with pytest.raises(InvalidScheduleError):
        schedule_from_theorem(0.0, 0.1, 1.0, 1.0, 1, 4)
    with pytest.raises(InvalidScheduleError):
        schedule_from_theorem(0.1, 1.0, 1.0, 1.0, 1, 4)
    with pytest.raises(InvalidScheduleError):
        schedule_from_theorem(0.1, 0.1, -1.0, 1.0, 1, 4)
    with pytest.raises(InvalidScheduleError):
        schedule_from_theorem(0.1, 0.1, 1.0, 1.0, 5, 4)


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: practical_config(gamma=NAN),
        lambda: practical_config(radius=NAN),
        lambda: practical_config(lambda_g=NAN),
        lambda: schedule_from_theorem(0.1, 0.1, NAN, 1.0, 1, 4),
        lambda: schedule_from_theorem(0.1, 0.1, 1.0, NAN, 1, 4),
        lambda: schedule_from_theorem(0.1, 0.1, 1.0, 1.0, 1, 4, c_m=NAN),
    ],
    ids=["gamma", "radius", "lambda_g", "ell", "Delta", "c_m"],
)
def test_nan_inputs_are_schedule_errors(build):
    with pytest.raises(InvalidScheduleError):
        build()


# ----- basic loop -------------------------------------------------------


class _ConstantObjective:
    def value(self, _theta):
        return 2.0

    def gradient(self, theta):
        return np.zeros_like(theta)


def test_run_basic_constant_objective_makes_no_progress():
    schedule = TheoremSchedule(
        epsilon=0.1, Lambda=0.1, ell=1.0, Delta=1.0, s=2, d=3, c_m=1.0,
        T=5, eta=0.05, r=0.1, m=8,
    )
    diag = _ConstantObjective()
    oracle = lambda a, b: compare_function(diag.value, a, b)
    theta0 = ParamVector(np.array([1.0, -1.0, 0.5]))
    traj = run_basic(oracle, theta0, schedule, RngState(4), objective=diag)
    assert len(traj.records) == 5
    # every sign is +1, steps still fire, but the objective cannot move
    assert all(rec.negative_fraction == 0.0 for rec in traj.records)
    assert traj.final_f == traj.records[0].f_value == 2.0


def test_run_basic_descends_on_quadratic_monte_carlo():
    # small fixed stepsize, generous m: f = 0.5 ||theta||^2 (unit coefficients)
    # strictly decreases over the first 10 iterations for at least 18 of 20 seeds
    obj = make_sparse_quadratic(2, 2, seed=0, coeffs=np.array([1.0, 1.0]))
    schedule = TheoremSchedule(
        epsilon=0.1, Lambda=0.1, ell=1.0, Delta=0.5, s=2, d=2, c_m=1.0,
        T=10, eta=0.01, r=1e-3, m=64,
    )
    theta0 = np.array([0.8, 0.6])
    good = 0
    for seed in range(20):
        traj = run_basic(
            obj.comparison_oracle(), ParamVector(theta0), schedule, RngState(seed),
            objective=obj,
        )
        f_values = [rec.f_value for rec in traj.records] + [traj.final_f]
        good += int(all(b < a for a, b in zip(f_values, f_values[1:])))
    assert good >= 18


def test_run_basic_oracle_accounting_and_stop():
    obj = make_sparse_quadratic(40, 4, seed=2)
    theta0, Delta = start_with_gap(obj, 0.5)
    schedule = schedule_from_theorem(0.1, 0.1, obj.ell, Delta, 4, 40, c_m=2.0)
    traj = run_basic(
        obj.comparison_oracle(), ParamVector(theta0), schedule, RngState(11),
        objective=obj, stop_grad_norm=0.1,
    )
    assert traj.total_oracle_calls == schedule.m * len(traj.records)
    assert traj.min_grad_norm < 0.1
    calls = traj.oracle_calls_until_grad_below(0.1)
    assert calls is not None and calls <= traj.total_oracle_calls


# ----- practical step: one-iteration runs ----------------------------------


def test_step_practical_skips_at_threshold_bitwise():
    # one improving response out of ten: rho = 0.1 <= 0.2 skips
    theta = ParamVector(np.array([1.0, 2.0, 3.0]))
    oracle = scripted_oracle([-1] + [1] * 9)
    traj = run_practical(oracle, theta, practical_config(), rng=RngState(0))
    (record,) = traj.records
    assert record.skipped
    assert record.stepsize_applied == 0.0
    assert traj.final_theta is theta  # bitwise unchanged, same object
    assert traj.final_theta.values.tobytes() == theta.values.tobytes()


def test_step_practical_step_size_is_gamma_rho():
    theta = ParamVector(np.zeros(4))
    oracle = scripted_oracle([-1, -1, -1] + [1] * 7)
    (record,) = run_practical(oracle, theta, practical_config(), rng=RngState(1)).records
    assert not record.skipped
    assert record.stepsize_applied == pytest.approx(0.3)
    assert record.negative_fraction == pytest.approx(0.3)


def test_step_practical_full_negative_gives_gamma():
    theta = ParamVector(np.zeros(4))
    oracle = scripted_oracle([-1])
    config = practical_config(skip_threshold=0.0, gamma=0.7)
    (record,) = run_practical(oracle, theta, config, rng=RngState(2)).records
    assert record.stepsize_applied == pytest.approx(0.7)


def test_step_practical_degenerate_counts_as_skip():
    # scope dim 1 and m=2: the two directions are +/-1; with an always-better
    # oracle the signed sum cancels exactly when they differ
    theta = ParamVector(np.array([5.0, 1.0]), scope_mask=np.array([1]))
    oracle = scripted_oracle([-1])
    config = practical_config(m=2, skip_threshold=0.0)
    seed = None
    for candidate in range(200):
        rng = RngState(candidate)
        block = rng.counter
        # rows of one float share the key (block, 0): they are its first two runs
        a, b = rng.substream(block, 0).standard_normal((2, 1))
        if np.sign(a[0]) != np.sign(b[0]):
            seed = candidate
            break
    assert seed is not None
    traj = run_practical(oracle, theta, config, rng=RngState(seed))
    (record,) = traj.records
    assert record.degenerate
    assert record.skipped
    profile = loop_profile([traj])
    assert profile["degenerate_iterations"] == profile["skipped_iterations"] == 1
    assert profile["wasted_queries"] == 2
    assert traj.final_theta.values.tobytes() == theta.values.tobytes()


def test_step_practical_never_touches_out_of_scope():
    gen = np.random.default_rng(6)
    obj = make_sparse_quadratic(12, 12, seed=3)
    for trial in range(50):
        d = 12
        k = int(gen.integers(1, d))
        mask = np.sort(gen.choice(d, size=k, replace=False))
        theta = ParamVector(gen.standard_normal(d), scope_mask=mask)
        config = practical_config(m=6, skip_threshold=0.0, radius=0.05)
        traj = run_practical(obj.comparison_oracle(), theta, config, rng=RngState(trial))
        outside = np.setdiff1d(np.arange(d), mask)
        assert traj.final_theta.values[outside].tobytes() == theta.values[outside].tobytes()


# ----- practical loop -----------------------------------------------------


def test_run_practical_single_skip_returns_start():
    theta0 = ParamVector(np.array([0.5, -0.5]))
    oracle = scripted_oracle([1])  # nothing improves
    config = practical_config(iterations=1)
    traj = run_practical(oracle, theta0, config, rng=RngState(0))
    assert traj.records[0].skipped
    assert traj.final_theta.values.tobytes() == theta0.values.tobytes()


def test_run_practical_mask_stays_constant_across_run():
    obj = make_sparse_quadratic(10, 10, seed=1)
    mask = (1, 3, 4)
    theta0 = ParamVector(np.linspace(-1, 1, 10))
    config = practical_config(iterations=8, m=8, skip_threshold=0.0, scope_mask=mask, radius=0.05)
    traj = run_practical(obj.comparison_oracle(), theta0, config, rng=RngState(3))
    outside = np.setdiff1d(np.arange(10), np.array(mask))
    assert traj.final_theta.values[outside].tobytes() == theta0.values[outside].tobytes()
    assert traj.total_oracle_calls == 8 * 8


def test_run_practical_round_robin_binding():
    pairs = [
        PreferencePair((1,), (2,), (3,)),
        PreferencePair((2,), (3,), (4,)),
        PreferencePair((3,), (4,), (5,)),
    ]
    seen = []

    def oracle(_theta, _theta_prime, batch):
        seen.append(tuple(p.prompt[0] for p in batch))
        return Sign.PLUS

    theta0 = ParamVector(np.zeros(3))
    config = practical_config(iterations=5, m=2)
    run_practical(oracle, theta0, config, data_stream=pairs, rng=RngState(0))
    per_iteration = [seen[i * 2] for i in range(5)]  # m=2 queries per iteration
    assert per_iteration == [(1,), (2,), (3,), (1,), (2,)]


def test_run_practical_skip_rule_keeps_hash_chain():
    theta0 = ParamVector(np.array([1.0, 2.0]))
    oracle = scripted_oracle([1])
    config = practical_config(iterations=4)
    traj = run_practical(oracle, theta0, config, rng=RngState(5))
    hashes = [rec.theta_hash for rec in traj.records]
    for prev, rec in zip(traj.records, traj.records[1:]):
        if rec.skipped:
            assert rec.theta_hash == prev.theta_hash
    assert len(set(hashes)) == 1  # all iterations skipped here


def test_run_practical_equals_chained_one_iteration_runs():
    # n iterations in one run, or n one-iteration runs that pass the iterate
    # on and share one RngState: the same signs and theta bytes per iteration
    obj = make_sparse_quadratic(12, 4, seed=2)
    theta0 = ParamVector(np.linspace(-1.0, 1.0, 12))
    config = practical_config(m=9, skip_threshold=0.3, radius=0.05, scope_mask=(0, 2, 3, 7, 11))
    compare = obj.comparison_oracle()
    n = 6

    def answers_per_iteration(runs):
        signs, thetas, rng, theta = [], [], RngState(4), theta0
        for iterations in runs:
            batches = []

            def oracle(a, b):
                batches.append(compare(a, b))
                return batches[-1]

            traj = run_practical(
                oracle, theta, dataclasses.replace(config, iterations=iterations), rng=rng,
                objective=obj,
            )
            signs += [batches[i * config.m:(i + 1) * config.m] for i in range(iterations)]
            thetas += [rec.theta_hash for rec in traj.records]
            theta = traj.final_theta
        return signs, thetas, theta.values.tobytes(), rng.counter

    whole = answers_per_iteration([n])
    assert whole == answers_per_iteration([1] * n)
    _, thetas, _, counter = whole
    assert counter == n and len(set(thetas)) > 2  # some iterations step, not all skip


def test_descent_inequality_on_schedule():
    # mean per-iteration decrease is statistically no worse than the
    # smoothness-based bound -0.5*eta*||grad|| + 0.5*ell*eta^2
    per_seed = []
    for seed in range(20):
        obj = make_sparse_quadratic(50, 5, seed=seed)
        theta0, Delta = start_with_gap(obj, 0.5)
        schedule = schedule_from_theorem(0.1, 0.1, obj.ell, Delta, 5, 50, c_m=2.0)
        traj = run_basic(
            obj.comparison_oracle(), ParamVector(theta0), schedule, RngState(seed),
            objective=obj, stop_grad_norm=0.05,
        )
        f_values = [rec.f_value for rec in traj.records] + [traj.final_f]
        grads = [rec.grad_norm for rec in traj.records]
        gaps = []
        for t in range(len(traj.records)):
            if traj.records[t].skipped or grads[t] <= 0.05:
                continue
            bound = -0.5 * schedule.eta * grads[t] + 0.5 * obj.ell * schedule.eta**2
            gaps.append((f_values[t + 1] - f_values[t]) - bound)
        if gaps:
            per_seed.append(float(np.mean(gaps)))
    per_seed = np.asarray(per_seed)
    assert per_seed.size >= 15
    upper = per_seed.mean() + 1.645 * per_seed.std(ddof=1) / math.sqrt(per_seed.size)
    assert upper <= 0.0


# ----- trajectory export ---------------------------------------------------


def test_oracle_failures_carry_iteration_index():
    from duelopt.errors import OracleError

    def broken(theta, theta_prime):
        return compare_function(lambda _t: float("nan"), theta, theta_prime)

    schedule = TheoremSchedule(
        epsilon=0.1, Lambda=0.1, ell=1.0, Delta=1.0, s=1, d=2, c_m=1.0,
        T=3, eta=0.1, r=0.1, m=4,
    )
    with pytest.raises(OracleError, match="iteration 1"):
        run_basic(broken, ParamVector(np.zeros(2)), schedule, RngState(0))
    with pytest.raises(OracleError, match="iteration 1"):
        run_practical(broken, ParamVector(np.zeros(2)), practical_config(), rng=RngState(0))


def test_trajectory_csv_header_and_shape():
    theta0 = ParamVector(np.array([0.1, 0.2]))
    oracle = scripted_oracle([1])
    traj = run_practical(oracle, theta0, practical_config(iterations=1), rng=RngState(0))
    rows = traj.csv_rows()
    assert rows[0] == ("iter", "oracle_calls", "neg_fraction", "step", "skipped", "f", "grad_norm")
    assert len(rows) == 2
    assert rows[1][5] == "" and rows[1][6] == ""  # no diagnostics for opaque oracles
