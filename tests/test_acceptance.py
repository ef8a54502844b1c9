"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line (visible under ``pytest -s``) and then
asserts, so the suite doubles as a human-readable report. Tolerances are
fixed here and must not be loosened to make a failing build green.
"""

import math
from pathlib import Path

import numpy as np

from duelopt import (
    BitMeasurementBatch,
    ParamVector,
    PracticalConfig,
    PreferencePair,
    RngState,
    Sign,
    check_estimator_error,
    check_sign_agreement,
    clip_small_entries,
    compare_preference,
    dpo_grad,
    dpo_loss,
    generate_preference_data,
    log_likelihood,
    make_sparse_quadratic,
    make_toy_policy,
    point_with_gradient_norm,
    run_practical,
    solve_1bge_exact,
    split_by_margin,
    sweep_convergence,
)
from duelopt.cli import build_config, run_experiment

from reference_solvers import (
    central_difference_gradient,
    dual_upper_bound,
    maximize_linear_brute_batch,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


def test_criterion_1_sign_agreement():
    # sparse quadratic, d=100, unit gradient norm, epsilon=1, schedule radius,
    # 1e5 samples: empirical agreement >= 0.69
    objective = make_sparse_quadratic(100, 5, seed=1)
    rng = RngState(101)
    theta = point_with_gradient_norm(objective, 1.0, rng.substream(rng.next_block()))
    agreement = check_sign_agreement(objective, theta, epsilon=1.0, n_samples=100_000, rng=rng)
    passed = agreement >= 0.69
    report("criterion 1: sign agreement", passed, f"agreement={agreement:.4f} (floor 0.69)")
    assert passed


def test_criterion_2_one_bit_recovery():
    # d=500, s=5, kept-probability 0.8, m = 40 * s * log(2d/s), 100 trials:
    # recovery error <= 0.5 in at least 95 trials
    d, s = 500, 5
    m = int(math.ceil(40.0 * s * math.log(2.0 * d / s)))
    result = check_estimator_error(d=d, s=s, flip_prob=0.2, m=m, trials=100, rng=RngState(202))
    successes = result.count_within(0.5)
    passed = successes >= 95
    constant = m / (s * math.log(2.0 * d / s))
    report(
        "criterion 2: one-bit recovery",
        passed,
        f"{successes}/100 trials with error <= 0.5 at m={m} (constant {constant:.1f})",
    )
    assert passed


def test_criterion_3_convergence_and_dimension_scaling():
    # sparse quadratic, s=5, epsilon=0.1, d in {200,400,800}: every cell
    # reaches min grad norm < 0.1 and consecutive-dimension call ratios <= 2
    sweep = sweep_convergence(
        [200, 400, 800], 5, epsilon=0.1, Lambda=0.1, seeds=[0, 1, 2, 3, 4], c_m=2.0
    )
    ratios = sweep.doubling_ratios()
    max_ratio = sweep.max_doubling_ratio()
    passed = sweep.all_converged() and max_ratio is not None and max_ratio <= 2.0
    calls = {d: sweep.mean_calls(d) for d in (200, 400, 800)}
    report(
        "criterion 3: convergence scaling",
        passed,
        f"mean calls {calls}, ratios {[(lo, hi, round(r, 3)) for lo, hi, r in ratios]} (max <= 2)",
    )
    assert sweep.all_converged()
    assert max_ratio <= 2.0


def test_criterion_4_exact_solver_vs_brute_force():
    # 200 random instances, k <= 6, s in {1,2,3}: solver objective within 1e-6
    # of the projected-ascent oracle; feasibility within 1e-9. A weak-duality
    # certificate (independent of both) additionally pins each solution to its
    # true optimum, so a stalled ascent cannot hollow the test out.
    gen = np.random.default_rng(404)
    padded, radii, exact_vals = [], [], []
    worst_dual_gap = -np.inf
    for _ in range(200):
        k = int(gen.integers(2, 7))
        s = int(gen.integers(1, 4))
        m = int(gen.integers(max(k, 3), 12))
        directions = gen.standard_normal((m, k))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        signs = np.where(gen.random(m) < 0.5, 1, -1)
        batch = BitMeasurementBatch.from_directions(directions, signs, radius=1.0, iteration=0)
        c = batch.signed_direction_sum()
        if np.linalg.norm(c) == 0.0:
            continue
        estimate = solve_1bge_exact(batch, s)
        assert estimate.l1_norm <= math.sqrt(s) + 1e-9
        assert estimate.l2_norm <= 1.0 + 1e-9
        exact_val = float(np.dot(c, estimate.direction))
        dual = dual_upper_bound(c, s)
        assert dual >= exact_val - 1e-9  # weak duality must hold
        assert exact_val >= dual - 1e-6  # certified optimal
        worst_dual_gap = max(worst_dual_gap, dual - exact_val)
        row = np.zeros(6)
        row[:k] = c
        padded.append(row)
        radii.append(math.sqrt(s))
        exact_vals.append(exact_val)
    brute_vals = maximize_linear_brute_batch(np.array(padded), np.array(radii), steps=2000)
    gaps = np.array(exact_vals) - brute_vals
    assert np.all(gaps >= -1e-6)
    report(
        "criterion 4: exact solver",
        True,
        f"{len(exact_vals)} instances: solver >= ascent-oracle - 1e-6 "
        f"(min gap {gaps.min():.2e}); dual certificate gap <= {worst_dual_gap:.2e}",
    )


def test_criterion_5_likelihood_displacement_direction():
    # toy policy, one noisy pair, gamma=1, one epoch of the practical scheme:
    # preferred log-likelihood up AND dispreferred down in >= 4 of 5 seeds
    ref = make_toy_policy(vocab_size=8, feature_dim=16, feature_seed=7, weight_seed=11)
    gen = np.random.default_rng(55)
    noisy_pair = next(
        p
        for p in generate_preference_data(ref, n_clean=0, n_noisy=3, delta=3.0, gen=gen)
    )
    wins = 0
    outcomes = []
    for seed in range(5):
        config = PracticalConfig(
            gamma=1.0, radius=0.01, m=400, lambda_g=0.01, skip_threshold=0.1,
            iterations=1, seed=seed,
        )
        theta0 = ParamVector(ref.flat_params)
        oracle = lambda a, b, pairs: compare_preference(ref.log_likelihood_at, a, b, pairs)
        traj = run_practical(oracle, theta0, config, data_stream=[noisy_pair], rng=RngState(seed))
        after = ref.with_flat_params(traj.final_theta.values)
        d_pos = log_likelihood(after, noisy_pair.prompt, noisy_pair.preferred) - log_likelihood(
            ref, noisy_pair.prompt, noisy_pair.preferred
        )
        d_neg = log_likelihood(after, noisy_pair.prompt, noisy_pair.dispreferred) - log_likelihood(
            ref, noisy_pair.prompt, noisy_pair.dispreferred
        )
        outcomes.append((round(d_pos, 4), round(d_neg, 4)))
        wins += int(d_pos > 0 and d_neg < 0)
    passed = wins >= 4
    report(
        "criterion 5: likelihood displacement direction",
        passed,
        f"{wins}/5 seeds moved preferred up and dispreferred down: {outcomes}",
    )
    assert passed


def test_criterion_6_dpo_gradient_and_loss():
    # analytic gradient vs central differences on 50 random instances
    # (relative error < 1e-5); loss at the reference equals log 2 to 1e-12
    gen = np.random.default_rng(606)
    worst = 0.0
    for trial in range(50):
        policy = make_toy_policy(vocab_size=4, feature_dim=6, weight_seed=1000 + trial)
        ref = make_toy_policy(vocab_size=4, feature_dim=6, weight_seed=2000 + trial)
        pair = PreferencePair(
            tuple(gen.integers(0, 4, int(gen.integers(1, 3)))),
            tuple(gen.integers(0, 4, int(gen.integers(1, 4)))),
            tuple(gen.integers(0, 4, int(gen.integers(1, 4)))),
        )
        beta = float(gen.uniform(0.05, 1.0))
        analytic = dpo_grad(policy, ref, [pair], beta)

        def loss_at(theta):
            return dpo_loss(policy.with_flat_params(theta), ref, [pair], beta)

        numeric = central_difference_gradient(loss_at, policy.flat_params, step=1e-5)
        rel = float(
            np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        )
        worst = max(worst, rel)
        assert rel < 1e-5
        ref_loss = dpo_loss(ref, ref, [pair], beta)
        assert abs(ref_loss - math.log(2.0)) < 1e-12
    report(
        "criterion 6: margin-loss gradient",
        True,
        f"50 instances, worst relative error {worst:.2e} (tol 1e-5); loss(ref)=log 2 to 1e-12",
    )


def test_criterion_7_exactness_properties():
    cases = 1000
    gen = np.random.default_rng(707)

    # (a) skip rule: rho <= lambda leaves theta bitwise unchanged
    for i in range(cases):
        m = int(gen.integers(2, 9))
        lam = float(gen.uniform(0.0, 0.9))
        n_improving = int(gen.integers(0, m + 1))
        rho = n_improving / m
        signs = [-1] * n_improving + [1] * (m - n_improving)
        calls = {"i": 0}

        def oracle(_a, _b):
            value = signs[calls["i"]]
            calls["i"] += 1
            return Sign(value)

        theta = ParamVector(gen.standard_normal(int(gen.integers(1, 6))))
        config = PracticalConfig(
            gamma=1.0, radius=0.3, m=m, lambda_g=0.0, skip_threshold=lam, iterations=1
        )
        traj = run_practical(oracle, theta, config, rng=RngState(i))
        if rho <= lam:
            assert traj.records[0].skipped
            assert traj.final_theta.values.tobytes() == theta.values.tobytes()

    # (b) clip semantics: no surviving entry below the threshold, idempotent
    for _ in range(cases):
        v = gen.standard_normal(int(gen.integers(1, 25)))
        lam = float(gen.uniform(0.0, 1.2))
        clipped = clip_small_entries(v, lam)
        surviving = clipped[clipped != 0.0]
        assert np.all(np.abs(surviving) >= lam)
        assert np.array_equal(clip_small_entries(clipped, lam), clipped)

    # (c) mask safety: out-of-scope coordinates bitwise constant over a run
    quadratic = make_sparse_quadratic(8, 8, seed=3)
    for i in range(cases):
        d = 8
        k = int(gen.integers(1, d))
        mask = tuple(int(t) for t in np.sort(gen.choice(d, size=k, replace=False)))
        theta0 = ParamVector(gen.standard_normal(d))
        config = PracticalConfig(
            gamma=float(gen.uniform(0.1, 2.0)), radius=0.05, m=4, lambda_g=0.0,
            skip_threshold=0.0, iterations=2, scope_mask=mask,
        )
        traj = run_practical(
            quadratic.comparison_oracle(), theta0, config, rng=RngState(10_000 + i)
        )
        outside = np.setdiff1d(np.arange(d), np.asarray(mask))
        assert traj.final_theta.values[outside].tobytes() == theta0.values[outside].tobytes()

    # (d) split partition: disjoint, exhaustive, boundary margin classified noisy
    class StubRef:
        def __init__(self, margins):
            self.margins = margins

        def sequence_log_likelihood(self, _prompt, response):
            idx = response[0]
            return self.margins[idx] if len(response) == 1 else 0.0

    for _ in range(cases):
        n = int(gen.integers(1, 12))
        delta = float(gen.uniform(0.1, 4.0))
        margins = {}
        pairs = []
        for j in range(n):
            margins[2 * j] = float(gen.standard_normal() * 3)
            margins[2 * j + 1] = 0.0
            pairs.append(PreferencePair((0,), (2 * j,), (2 * j + 1,)))
        if gen.random() < 0.5:  # plant an exact-boundary pair
            margins[2 * n] = delta
            margins[2 * n + 1] = 0.0
            pairs.append(PreferencePair((0,), (2 * n,), (2 * n + 1,)))
        split = split_by_margin(StubRef(margins), pairs, delta)
        assert len(split.clean) + len(split.noisy) == len(pairs)
        keys = {(p.preferred, p.dispreferred) for p in split.clean} & {
            (p.preferred, p.dispreferred) for p in split.noisy
        }
        assert not keys
        assert all(abs(p.ref_margin) <= delta for p in split.noisy)
        assert all(abs(p.ref_margin) > delta for p in split.clean)
        boundary = [p for p in split.clean + split.noisy if p.ref_margin == delta]
        assert all(p in split.noisy for p in boundary)

    report(
        "criterion 7: exactness properties",
        True,
        f"skip rule, clip, mask safety, split partition: {cases} randomized cases each",
    )


def test_criterion_8_byte_identical_artifacts(tmp_path):
    # identical (config, seed) must reproduce every CSV artifact byte for byte
    bundled = Path(__file__).resolve().parents[1] / "src" / "duelopt" / "data" / "toy_pairs.jsonl"
    payload = {
        "mode": "pipeline", "dataset": str(bundled), "seed": 12,
        "m": 60, "dpo_epochs": 5, "skip_threshold": 0.05,
    }
    first = run_experiment(build_config(dict(payload, out_dir=str(tmp_path / "a"))))
    second = run_experiment(build_config(dict(payload, out_dir=str(tmp_path / "b"))))
    csv_count = 0
    for name, path_a in first.artifacts.items():
        path_b = second.artifacts[name]
        assert Path(path_a).read_bytes() == Path(path_b).read_bytes(), name
        csv_count += int(path_a.endswith(".csv"))
    assert csv_count >= 3
    report(
        "criterion 8: determinism",
        True,
        f"{len(first.artifacts)} artifacts ({csv_count} CSV) byte-identical across two runs",
    )
