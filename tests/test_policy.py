import collections
import dataclasses
import math
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duelopt import policy as policy_mod
from duelopt import (
    DpoConfig,
    ParamVector,
    PipelineConfig,
    PracticalConfig,
    PreferencePair,
    RngState,
    ToyPolicy,
    compare_preference,
    dpo_grad,
    dpo_loss,
    generate_preference_data,
    likelihood_report,
    load_preference_dataset,
    log_likelihood,
    make_toy_policy,
    measure_bits,
    run_pipeline,
    run_practical,
    save_preference_dataset,
    split_by_margin,
    train_dpo,
)
from duelopt.errors import InvalidScheduleError, VocabularyError

from reference_solvers import central_difference_gradient, enumerate_sequence_probs


def small_policy(seed=17, V=4, F=6):
    return make_toy_policy(vocab_size=V, feature_dim=F, weight_seed=seed)


# ----- likelihood -----------------------------------------------------------


def test_uniform_policy_log_likelihood():
    policy = ToyPolicy(vocab_size=4, feature_dim=5)  # zero weights -> uniform
    value = log_likelihood(policy, (0, 1), (2, 3))
    assert value == pytest.approx(2 * math.log(0.25), abs=1e-12)


def test_saturated_softmax_approaches_zero():
    policy = ToyPolicy(vocab_size=2, feature_dim=3)
    phi = policy.features((1,), ())
    weights = np.vstack([1e4 * phi, -1e4 * phi])
    saturated = policy.with_weights(weights)
    value = log_likelihood(saturated, (1,), (0,))
    assert -1e-6 < value <= 0.0


def test_log_likelihood_matches_enumeration():
    policy = small_policy(V=3, F=4)
    probs = enumerate_sequence_probs(policy, (0, 2), length=2)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)
    for seq, prob in probs.items():
        assert log_likelihood(policy, (0, 2), seq) == pytest.approx(math.log(prob), rel=1e-9)


def test_token_distributions_normalize():
    policy = small_policy()
    gen = np.random.default_rng(0)
    for _ in range(100):
        prompt = tuple(gen.integers(0, 4, size=int(gen.integers(1, 4))))
        prefix = tuple(gen.integers(0, 4, size=int(gen.integers(0, 4))))
        logp = policy.token_log_probs(prompt, prefix)
        assert np.all(logp <= 0.0)
        assert float(np.exp(logp).sum()) == pytest.approx(1.0, abs=1e-10)


def test_toy_policy_rejects_degenerate_shapes():
    with pytest.raises(ValueError, match="vocab_size"):
        ToyPolicy(vocab_size=1, feature_dim=3)
    with pytest.raises(ValueError, match="feature_dim"):
        ToyPolicy(vocab_size=2, feature_dim=0)
    # a zero context would slice as ctx[-0:], i.e. the whole context
    with pytest.raises(ValueError, match="max_context"):
        ToyPolicy(vocab_size=2, feature_dim=3, max_context=0)


def test_out_of_vocab_token_raises():
    policy = small_policy()
    with pytest.raises(VocabularyError):
        log_likelihood(policy, (0,), (9,))
    with pytest.raises(VocabularyError):
        log_likelihood(policy, (9,), (0,))


BATCH_PAIRS = [
    PreferencePair((0, 1), (2, 3, 1), (3, 0)),
    PreferencePair((2,), (0,), (1,)),
    PreferencePair((3, 3, 0), (1, 2), (2, 0, 3)),
]


def test_preference_oracle_evaluates_each_base_likelihood_once_per_batch():
    policy = small_policy()
    base_calls = collections.Counter()
    theta = None

    def counted(values, prompt, response):
        if np.array_equal(values, theta.values):
            base_calls[prompt, response] += 1
        return policy.log_likelihood_at(values, prompt, response)

    oracle = partial(compare_preference, counted)
    m = 17
    asked = set()
    for t, scale in enumerate((1.0, 0.5, 0.5)):
        theta = ParamVector(scale * policy.flat_params)
        base_calls.clear()
        batch = measure_bits(
            lambda a, b: oracle(a, b, BATCH_PAIRS), theta, 0.5, m, RngState(5, counter=t)
        )
        # at most once per (pair, response), not once per query
        assert batch.m == m and max(base_calls.values()) == 1
        asked |= set(base_calls)
    assert len(asked) == 2 * len(BATCH_PAIRS)


def test_preference_oracle_does_not_keep_the_base_point_alive():
    policy = small_policy()
    oracle = partial(compare_preference, policy.log_likelihood_at)
    theta = ParamVector(policy.flat_params)
    measure_bits(lambda a, b: oracle(a, b, BATCH_PAIRS), theta, 0.5, 8, RngState(0))
    ref = weakref.ref(theta)
    del theta
    assert ref() is None


# ----- margin loss -----------------------------------------------------------


def test_dpo_loss_at_reference_is_log_two():
    policy = small_policy()
    pairs = [PreferencePair((0, 1), (2,), (3, 1)), PreferencePair((2,), (1, 1), (0,))]
    assert dpo_loss(policy, policy, pairs, beta=0.1) == pytest.approx(math.log(2.0), abs=1e-12)


def test_dpo_loss_saturates_with_margin():
    # loss equals -log sigmoid(beta*h); a huge positive margin drives it to 0
    policy = small_policy()
    ref = small_policy()
    pair = PreferencePair((0,), (1,), (2,))
    h = (
        log_likelihood(policy, (0,), (1,)) - log_likelihood(ref, (0,), (1,))
    ) - (log_likelihood(policy, (0,), (2,)) - log_likelihood(ref, (0,), (2,)))
    direct = -math.log(1.0 / (1.0 + math.exp(-1.0 * h)))
    assert dpo_loss(policy, ref, [pair], beta=1.0) == pytest.approx(direct, rel=1e-12)
    phi = policy.features((0,), ())
    boosted = policy.with_weights(policy.weights + 50 * np.outer(np.eye(4)[1], phi))
    assert dpo_loss(boosted, ref, [pair], beta=1.0) < 1e-8


def test_dpo_loss_matches_raw_probability_recomputation():
    policy = small_policy(seed=3)
    ref = small_policy(seed=8)
    pair = PreferencePair((1, 0), (2, 3), (0,))
    beta = 0.25

    def raw_prob(p, response):
        return math.exp(log_likelihood(p, pair.prompt, response))

    ratio_pos = raw_prob(policy, pair.preferred) / raw_prob(ref, pair.preferred)
    ratio_neg = raw_prob(policy, pair.dispreferred) / raw_prob(ref, pair.dispreferred)
    h = math.log(ratio_pos) - math.log(ratio_neg)
    expected = -math.log(1.0 / (1.0 + math.exp(-beta * h)))
    assert dpo_loss(policy, ref, [pair], beta) == pytest.approx(expected, rel=1e-10)


def test_dpo_grad_zero_for_identical_responses():
    policy = small_policy()
    pair = PreferencePair((0,), (1, 2), (1, 2))
    grad = dpo_grad(policy, policy, [pair], beta=0.1)
    assert np.array_equal(grad, np.zeros_like(grad))


def test_dpo_grad_saturates_where_exp_overflows():
    # -beta / (1 + exp(beta h)) tends to -0.0; past exp's float range the
    # gradient is that limit instead of an OverflowError
    policy, ref = small_policy(seed=3), small_policy(seed=4)
    pair = PreferencePair((0,), (1, 2), (3, 0))
    h = policy_mod._pair_margin(policy, ref, pair)
    if h < 0:
        pair = PreferencePair(pair.prompt, pair.dispreferred, pair.preferred)
        h = -h
    assert h > 0
    saturated = dpo_grad(policy, ref, [pair], beta=1000.0 / h)
    assert np.all(saturated == 0.0)
    # just inside the range the expression itself is kept
    beta = 700.0 / h
    inside = dpo_grad(policy, ref, [pair], beta)
    assert np.any(inside != 0.0)
    assert inside.tobytes() == reference_dpo_grad(policy, ref, [pair], beta).tobytes()


def test_dpo_grad_matches_finite_differences_sample():
    gen = np.random.default_rng(12)
    for trial in range(10):
        policy = small_policy(seed=100 + trial)
        ref = small_policy(seed=200 + trial)
        pair = PreferencePair(
            tuple(gen.integers(0, 4, 2)), tuple(gen.integers(0, 4, 2)), tuple(gen.integers(0, 4, 3))
        )
        beta = float(gen.uniform(0.05, 1.0))
        analytic = dpo_grad(policy, ref, [pair], beta)

        def loss_at(theta):
            return dpo_loss(policy.with_flat_params(theta), ref, [pair], beta)

        numeric = central_difference_gradient(loss_at, policy.flat_params, step=1e-5)
        denom = max(np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-5


def reference_log_likelihood(policy, prompt, response):
    total = 0.0
    prefix = ()
    for tok in response:
        total += float(policy.token_log_probs(prompt, prefix)[tok])
        prefix = prefix + (tok,)
    return total


def reference_dpo_grad(policy, ref, batch, beta):
    """Two log-softmax passes per token: one for the margin, one for the gradient."""

    def loglik_grad(prompt, response):
        grad = np.zeros((policy.vocab_size, policy.feature_dim))
        prefix = ()
        for tok in response:
            coeff = -np.exp(policy.token_log_probs(prompt, prefix))
            coeff[tok] += 1.0
            grad += np.outer(coeff, policy.features(prompt, prefix))
            prefix = prefix + (tok,)
        return grad

    grad = np.zeros((policy.vocab_size, policy.feature_dim))
    for pair in batch:
        h = (
            reference_log_likelihood(policy, pair.prompt, pair.preferred)
            - reference_log_likelihood(ref, pair.prompt, pair.preferred)
        ) - (
            reference_log_likelihood(policy, pair.prompt, pair.dispreferred)
            - reference_log_likelihood(ref, pair.prompt, pair.dispreferred)
        )
        coeff = -beta / (1.0 + math.exp(beta * h))
        grad += coeff * (
            loglik_grad(pair.prompt, pair.preferred) - loglik_grad(pair.prompt, pair.dispreferred)
        )
    return (grad / len(batch)).ravel()


def test_likelihoods_and_dpo_grad_bit_equal_to_token_log_probs_recomputation():
    """The response-level logits, log-softmax and ordered gradient sum keep every bit.

    Shapes: the narrowest policy (vocab 2 x feature 1, where V * F = 2 is the
    narrowest width at which numpy still adds the gradient rows in order),
    an odd one, and the pipeline's 8 x 16; responses of 1 to 12 tokens. The
    stacked logits matmul is also compared with one ``W @ phi`` per position
    at wider shapes.
    """
    gen = np.random.default_rng(21)
    for vocab, feat in ((5, 7), (2, 1), (8, 16)):

        def seq(lo, hi):
            return tuple(int(t) for t in gen.integers(0, vocab, size=int(gen.integers(lo, hi))))

        for trial in range(25):
            policy = make_toy_policy(vocab_size=vocab, feature_dim=feat, max_context=4,
                                     weight_seed=trial)
            ref = make_toy_policy(vocab_size=vocab, feature_dim=feat, max_context=4,
                                  weight_seed=99 - trial)
            size = int(gen.integers(1, 4))
            batch = [PreferencePair(seq(1, 4), seq(1, 13), seq(1, 13)) for _ in range(size)]
            beta = float(gen.uniform(0.05, 2.0))
            expected = reference_dpo_grad(policy, ref, batch, beta)
            # twice: the second call answers the reference likelihoods from the memo
            for _ in range(2):
                assert dpo_grad(policy, ref, batch, beta).tobytes() == expected.tobytes()
            for pair in batch:
                for response in (pair.preferred, pair.dispreferred):
                    want = reference_log_likelihood(policy, pair.prompt, response)
                    assert policy.sequence_log_likelihood(pair.prompt, response) == want
                    got_at = policy.log_likelihood_at(ref.flat_params, pair.prompt, response)
                    assert got_at == reference_log_likelihood(ref, pair.prompt, response)

    for vocab, feat in ((2, 1), (3, 2), (5, 7), (8, 16), (16, 128), (32, 64)):
        W = gen.standard_normal((vocab, feat))
        for n in range(1, 13):
            features = gen.standard_normal((n, feat))
            per_position = np.empty((n, vocab))
            for i, phi in enumerate(features):
                np.matmul(W, phi, out=per_position[i])
            logits, _, _ = policy_mod._response_logits(W, features)
            assert logits.tobytes() == per_position.tobytes()


def test_dpo_grad_batch_mean_of_duplicates():
    policy = small_policy(seed=5)
    ref = small_policy(seed=6)
    pair = PreferencePair((1,), (0, 2), (3,))
    single = dpo_grad(policy, ref, [pair], beta=0.2)
    doubled = dpo_grad(policy, ref, [pair, pair], beta=0.2)
    assert np.allclose(single, doubled, atol=1e-15)


# ----- training ---------------------------------------------------------------


def test_train_dpo_zero_epochs_is_identity():
    policy = small_policy()
    ref = small_policy(seed=2)
    pair = PreferencePair((0,), (1,), (2,))
    out = train_dpo(policy, ref, [pair], DpoConfig(epochs=0))
    assert np.array_equal(out.weights, policy.weights)


def test_train_dpo_separable_pair_converges():
    ref = ToyPolicy(vocab_size=2, feature_dim=4)
    pair = PreferencePair((0,), (1,), (0,))
    trained = train_dpo(ref, ref, [pair], DpoConfig(beta=1.0, learning_rate=2.0, epochs=400))
    assert dpo_loss(trained, ref, [pair], beta=1.0) < 0.1


def test_train_dpo_beta_point_one_reduces_loss():
    ref = small_policy(seed=31)
    gen = np.random.default_rng(4)
    pairs = generate_preference_data(ref, n_clean=4, n_noisy=4, delta=3.0, gen=gen)
    trained = train_dpo(ref, ref, pairs, DpoConfig(beta=0.1, learning_rate=1.0, epochs=30))
    assert dpo_loss(trained, ref, pairs, beta=0.1) < math.log(2.0)


def test_train_dpo_loss_nonincreasing_at_small_rate():
    ref = small_policy(seed=41)
    gen = np.random.default_rng(9)
    pairs = generate_preference_data(ref, n_clean=3, n_noisy=3, delta=3.0, gen=gen)
    config = DpoConfig(beta=0.1, learning_rate=0.2, epochs=1)
    losses = [dpo_loss(ref, ref, pairs, 0.1)]
    policy = ref
    for _ in range(15):
        policy = train_dpo(policy, ref, pairs, config)
        losses.append(dpo_loss(policy, ref, pairs, 0.1))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


# ----- margin split ------------------------------------------------------------


class StubRefPolicy:
    """Duck-typed reference policy yielding exact, prescribed log-likelihoods."""

    def __init__(self, table):
        self.table = table

    def sequence_log_likelihood(self, _prompt, response):
        return self.table[tuple(response)]


def test_split_boundary_semantics_exact():
    stub = StubRefPolicy({(1,): 0.0, (2,): -2.5, (3,): -3.0, (4,): -3.5})
    pairs = [
        PreferencePair((0,), (1,), (2,)),  # margin 2.5 -> noisy
        PreferencePair((0,), (1,), (3,)),  # margin 3.0 -> noisy (boundary inclusive)
        PreferencePair((0,), (1,), (4,)),  # margin 3.5 -> clean
    ]
    split = split_by_margin(stub, pairs, delta=3.0)
    assert [p.dispreferred for p in split.noisy] == [(2,), (3,)]
    assert [p.dispreferred for p in split.clean] == [(4,)]
    assert all(p.ref_margin is not None for p in split.noisy + split.clean)


def test_split_is_partition():
    ref = small_policy(seed=1)
    gen = np.random.default_rng(2)
    pairs = [
        PreferencePair(
            tuple(gen.integers(0, 4, 2)),
            tuple(gen.integers(0, 4, int(gen.integers(1, 5)))),
            tuple(gen.integers(0, 4, int(gen.integers(1, 5)))),
        )
        for _ in range(200)
    ]
    for delta in (0.5, 1.5, 3.0, 8.0):
        split = split_by_margin(ref, pairs, delta)
        assert len(split.clean) + len(split.noisy) == len(pairs)
        assert all(abs(p.ref_margin) <= delta for p in split.noisy)
        assert all(abs(p.ref_margin) > delta for p in split.clean)


def test_split_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        split_by_margin(small_policy(), [], delta=0.0)


# ----- pipeline -----------------------------------------------------------------


def pipeline_config(**kw):
    practical = PracticalConfig(
        gamma=1.0, radius=0.01, m=kw.pop("m", 150), lambda_g=0.01,
        skip_threshold=0.05, iterations=1, seed=kw.pop("seed", 0),
    )
    defaults = dict(practical=practical, delta=3.0, dpo=DpoConfig(epochs=25))
    defaults.update(kw)
    return PipelineConfig(**defaults)


def test_pipeline_all_noisy_when_delta_large():
    ref = make_toy_policy(weight_seed=11)
    gen = np.random.default_rng(3)
    pairs = generate_preference_data(ref, n_clean=0, n_noisy=4, delta=3.0, gen=gen)
    result = run_pipeline(pairs, pipeline_config(delta=1e6), ref_policy=ref)
    assert not result.split.clean
    assert np.array_equal(result.dpo_clean_policy.weights, ref.weights)
    assert result.trajectory is not None  # pure comparison-driven refinement


def test_pipeline_all_clean_when_delta_tiny():
    ref = make_toy_policy(weight_seed=11)
    gen = np.random.default_rng(5)
    pairs = generate_preference_data(ref, n_clean=4, n_noisy=0, delta=1e-9, gen=gen)
    result = run_pipeline(pairs, pipeline_config(delta=1e-9), ref_policy=ref)
    assert not result.split.noisy
    assert result.trajectory is None
    assert any("noisy subset empty" in w for w in result.warnings)


def test_pipeline_improves_noisy_margin():
    # end-to-end: the refined policy widens the mean log-margin on the noisy
    # pairs relative to the clean-trained baseline in most seeds
    ref = make_toy_policy(weight_seed=11)
    gen = np.random.default_rng(10)
    pairs = generate_preference_data(ref, n_clean=50, n_noisy=10, delta=3.0, gen=gen)
    wins = 0
    for seed in range(5):
        result = run_pipeline(pairs, pipeline_config(seed=seed), ref_policy=ref)
        assert len(result.split.noisy) == 10

        def mean_margin(policy):
            return float(
                np.mean(
                    [
                        log_likelihood(policy, p.prompt, p.preferred)
                        - log_likelihood(policy, p.prompt, p.dispreferred)
                        for p in result.split.noisy
                    ]
                )
            )

        wins += int(mean_margin(result.final_policy) > mean_margin(result.dpo_clean_policy))
    assert wins >= 4


def test_pipeline_zero_refine_epochs_is_an_error():
    ref = make_toy_policy(weight_seed=11)
    gen = np.random.default_rng(12)
    pairs = generate_preference_data(ref, n_clean=0, n_noisy=2, delta=3.0, gen=gen)
    with pytest.raises(InvalidScheduleError, match="iterations"):
        run_pipeline(pairs, pipeline_config(delta=1e6, refine_epochs=0), ref_policy=ref)


def test_pipeline_respects_scope_mask():
    ref = make_toy_policy(weight_seed=11)
    gen = np.random.default_rng(12)
    pairs = generate_preference_data(ref, n_clean=2, n_noisy=3, delta=3.0, gen=gen)
    mask = tuple(int(i) for i in ref.token_row_indices([0, 3]))
    config = pipeline_config(delta=1e6)  # skip the clean stage entirely
    config = dataclasses.replace(
        config, practical=dataclasses.replace(config.practical, scope_mask=mask)
    )
    result = run_pipeline(pairs, config, ref_policy=ref)
    before = result.dpo_clean_policy.flat_params
    after = result.final_policy.flat_params
    outside = np.setdiff1d(np.arange(before.size), np.asarray(mask))
    assert after[outside].tobytes() == before[outside].tobytes()


MASK_PAIRS = [
    PreferencePair((0, 1), (2, 3, 1), (3, 0)),
    PreferencePair((2,), (0, 1), (1, 1)),
    PreferencePair((3, 3, 0), (1, 2), (2, 0, 3)),
]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(0, 23), min_size=1, max_size=24, unique=True),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.3, 0.5]),
    st.integers(1, 2),
)
def test_practical_preference_run_never_touches_out_of_scope(mask, seed, skip, per_batch):
    policy = small_policy(seed=seed % 1000)  # 4 x 6 = 24 weights
    theta0 = policy.flat_params
    config = PracticalConfig(
        gamma=1.0, radius=0.05, m=12, lambda_g=0.0, skip_threshold=skip, iterations=4,
        scope_mask=tuple(sorted(mask)), seed=seed, pairs_per_batch=per_batch,
    )
    oracle = partial(compare_preference, policy.log_likelihood_at)
    iterates = []  # the base point of every query, in query order

    def recording(theta, theta_prime, pairs):
        iterates.append(theta.values.copy())
        return oracle(theta, theta_prime, pairs)

    traj = run_practical(recording, ParamVector(theta0), config, data_stream=MASK_PAIRS)
    # one base point per iteration, then the final iterate
    points = iterates[:: config.m] + [traj.final_theta.values]
    assert len(points) == config.iterations + 1
    outside = np.setdiff1d(np.arange(theta0.size), np.asarray(mask))
    inside = np.asarray(sorted(mask))
    for record, before, after in zip(traj.records, points, points[1:]):
        assert after[outside].tobytes() == theta0[outside].tobytes()
        if record.skipped:
            assert after.tobytes() == before.tobytes()
        else:
            assert after[inside].tobytes() != before[inside].tobytes()


# ----- reports and data ----------------------------------------------------------


def test_likelihood_report_zero_deltas_for_identical_policies():
    policy = small_policy()
    pairs = [PreferencePair((0,), (1,), (2,)), PreferencePair((1,), (3, 2), (0, 0))]
    report = likelihood_report(policy, policy, pairs)
    assert all(row.delta_preferred == 0.0 and row.delta_dispreferred == 0.0 for row in report.rows)
    assert not any(row.verdict for row in report.rows)


def test_dataset_roundtrip(tmp_path):
    ref = make_toy_policy(weight_seed=11)
    gen = np.random.default_rng(8)
    pairs = generate_preference_data(ref, n_clean=3, n_noisy=3, delta=3.0, gen=gen)
    path = tmp_path / "pairs.jsonl"
    save_preference_dataset(pairs, path)
    loaded = load_preference_dataset(path)
    assert [
        (p.prompt, p.preferred, p.dispreferred) for p in loaded
    ] == [(p.prompt, p.preferred, p.dispreferred) for p in pairs]


def test_generator_fills_requested_buckets():
    ref = make_toy_policy(weight_seed=11)
    gen = np.random.default_rng(14)
    pairs = generate_preference_data(ref, n_clean=7, n_noisy=5, delta=3.0, gen=gen)
    split = split_by_margin(ref, pairs, 3.0)
    assert len(split.clean) == 7
    assert len(split.noisy) == 5
