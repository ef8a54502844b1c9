import collections
import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc
import warnings
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
    embed_perturbation,
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
from duelopt.errors import InvalidBatchError, InvalidScheduleError, VocabularyError

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


def fresh_feature_draw(policy, prompt, prefix):
    """``policy.features(prompt, prefix)`` from a Philox generator built for it."""
    ctx = (tuple(prompt) + tuple(prefix))[-policy.max_context:]
    raw = np.asarray((len(ctx),) + ctx, dtype="<i8").tobytes()
    raw += policy.feature_seed.to_bytes(8, "little", signed=True)
    key = int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "big")
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal(policy.feature_dim) / math.sqrt(policy.feature_dim)


def test_features_equal_fresh_philox_draws_also_when_threads_draw_at_once():
    gen = np.random.default_rng(4)
    contexts = [
        (tuple(int(t) for t in gen.integers(0, 8, size=int(gen.integers(1, 5)))),
         tuple(int(t) for t in gen.integers(0, 8, size=int(gen.integers(0, 6)))))
        for _ in range(200)
    ]
    # a negative feature seed packs as a signed word, as a positive one does
    for feature_seed in (7, -3):
        policy = make_toy_policy(feature_dim=16, max_context=5, feature_seed=feature_seed)
        for prompt, prefix in contexts:
            want = fresh_feature_draw(policy, prompt, prefix)
            assert policy.features(prompt, prefix).tobytes() == want.tobytes()

    # four threads (more than the cores of a small host), each with a policy of
    # its own so that every context is a miss, draw at once; a switch interval
    # of 1 us makes them take turns between a re-key and its draw
    def fresh_policy():
        return make_toy_policy(feature_dim=16, max_context=5, feature_seed=-3)

    want = [fresh_feature_draw(fresh_policy(), *context).tobytes() for context in contexts]
    start = threading.Barrier(4, timeout=60)

    def draw(out):
        fresh = fresh_policy()
        start.wait()
        out.extend(fresh.features(prompt, prefix).tobytes() for prompt, prefix in contexts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            got = [[] for _ in range(4)]
            threads = [threading.Thread(target=draw, args=(out,)) for out in got]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert got == [want] * 4
    finally:
        sys.setswitchinterval(interval)


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

    def counted(values, pairs):
        if np.array_equal(values, theta.values):
            for pair in pairs:
                for response in (pair.preferred, pair.dispreferred):
                    base_calls[pair.prompt, response] += 1
        return policy.log_likelihood_at(values, pairs)

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


def pair_margin(policy, ref, pair):
    """The reference-adjusted margin of ``pair``, in the order ``dpo_loss`` forms it."""
    return (
        log_likelihood(policy, pair.prompt, pair.preferred)
        - log_likelihood(ref, pair.prompt, pair.preferred)
    ) - (
        log_likelihood(policy, pair.prompt, pair.dispreferred)
        - log_likelihood(ref, pair.prompt, pair.dispreferred)
    )


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


def test_dpo_loss_keeps_the_bits_of_per_pair_margins():
    # one stacked pass per policy gives each margin the bits of per-pair calls
    gen = np.random.default_rng(5)
    for vocab, feat in ((2, 1), (5, 7)):
        policy, ref = (make_toy_policy(vocab_size=vocab, feature_dim=feat, max_context=4,
                                       weight_seed=seed) for seed in (1, 2))
        batch = [
            PreferencePair(*(tuple(int(t) for t in gen.integers(0, vocab, size=n))
                             for n in gen.integers(1, 9, size=3)))
            for _ in range(17)
        ]
        for beta in (0.1, 3.0):
            total = 0.0
            for pair in batch:
                total += float(np.logaddexp(0.0, -beta * pair_margin(policy, ref, pair)))
            assert dpo_loss(policy, ref, batch, beta) == total / len(batch)


def test_dpo_grad_zero_for_identical_responses():
    policy = small_policy()
    pair = PreferencePair((0,), (1, 2), (1, 2))
    grad = dpo_grad(policy, policy, [pair], beta=0.1)
    assert np.array_equal(grad, np.zeros_like(grad))
    # a stacked batch of them, of lengths 1 to 12, against another policy:
    # each term is -0.0, and the sum from +0.0 is +0.0
    batch = [PreferencePair((3, 1), (n % 4,) * n, (n % 4,) * n) for n in range(12, 0, -1)]
    grad = dpo_grad(small_policy(seed=9), policy, batch, beta=0.7)
    assert grad.tobytes() == np.zeros_like(grad).tobytes()


def test_dpo_grad_saturates_where_exp_overflows():
    # -beta / (1 + exp(beta h)) tends to -0.0; past exp's float range the
    # gradient is that limit instead of an OverflowError
    policy, ref = small_policy(seed=3), small_policy(seed=4)
    pair = PreferencePair((0,), (1, 2), (3, 0))
    h = pair_margin(policy, ref, pair)
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
        try:
            coeff = -beta / (1.0 + math.exp(beta * h))
        except OverflowError:
            coeff = -0.0
        grad += coeff * (
            loglik_grad(pair.prompt, pair.preferred) - loglik_grad(pair.prompt, pair.dispreferred)
        )
    return (grad / len(batch)).ravel()


def test_likelihoods_and_dpo_grad_bit_equal_to_token_log_probs_recomputation():
    """The response-level logits, log-softmax and ordered gradient sum keep every bit.

    Shapes: the narrowest policy (vocab 2 x feature 1, where V * F = 2 is the
    narrowest width at which numpy still adds the gradient rows in order),
    an odd one, and the pipeline's 8 x 16; responses of 1 to 12 tokens.
    Likelihoods are checked at the policy's own weights (memoized), and
    through ``log_likelihood_at`` at another policy's and at explicit
    weights. The stacked logits matmul is also compared with one
    ``W @ phi`` per position at wider shapes.
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
            # one stacked pass over the batch gives each response's bits
            got_at = policy.log_likelihood_at(ref.flat_params, batch)
            want_at = [reference_log_likelihood(ref, pair.prompt, response)
                       for pair in batch for response in (pair.preferred, pair.dispreferred)]
            assert np.array(got_at).tobytes() == np.array(want_at).tobytes()
            # explicit weights, large enough to push the softmax to its tails
            W = 30.0 * np.random.default_rng(trial).standard_normal((vocab, feat))
            got_w = policy.log_likelihood_at(W.ravel(), batch)
            for pair in batch:
                for response in (pair.preferred, pair.dispreferred):
                    want = reference_log_likelihood(policy, pair.prompt, response)
                    assert policy.sequence_log_likelihood(pair.prompt, response) == want
                    assert got_w.pop(0) == reference_log_likelihood(
                        policy.with_weights(W), pair.prompt, response
                    )

    for vocab, feat in ((2, 1), (3, 2), (5, 7), (8, 16), (16, 128), (32, 64)):
        W = gen.standard_normal((vocab, feat))
        for n in range(1, 13):
            features = gen.standard_normal((n, feat))
            per_position = np.empty((n, vocab))
            for i, phi in enumerate(features):
                np.matmul(W, phi, out=per_position[i])
            logits, _, _ = policy_mod._response_logits(W, features[:, :, None])
            assert logits.tobytes() == per_position.tobytes()


def test_an_empty_response_has_log_likelihood_plus_zero():
    # a layout with no positions: the sum over no tokens, as the per-token loop gives it
    policy = make_toy_policy(weight_seed=1)
    total = policy.sequence_log_likelihood((1, 2), ())
    assert total == reference_log_likelihood(policy, (1, 2), ()) and math.copysign(1.0, total) == 1.0
    assert policy.log_likelihood_at(policy.flat_params, []) == []


@st.composite
def row_pass_cases(draw):
    """A candidate build and a pair batch: random weights, radius and mask.

    The build has the rows one ``measure_bits`` build of m rows has:
    min(m, max(1, 65,536 // dim)). Policies go down to V x F = 2 x 1 and
    responses to one token. A long case (8 x 16, 512 rows, 8 pairs of 2 to
    12 tokens) has at least 512 * 32 * 8 floats of logits, so its pass runs
    in several row groups.
    """
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    long = draw(st.booleans())
    if long:
        (V, F), m, n_pairs, shortest, longest = (8, 16), 512, 8, 2, 12
    else:
        V, F = draw(st.sampled_from([(2, 1), (3, 2), (4, 3), (8, 16)]))
        m, n_pairs, shortest = draw(st.integers(2, 600)), draw(st.integers(1, 8)), 1
        longest = draw(st.sampled_from([1, 3, 6]))  # 1: every response is one token
    policy = make_toy_policy(V, F, weight_seed=draw(st.integers(0, 999)),
                             weight_scale=draw(st.sampled_from([0.1, 1.0, 30.0])))

    def tokens():
        size = int(gen.integers(shortest, longest + 1))
        return tuple(int(t) for t in gen.integers(0, V, size=size))

    pairs = tuple(PreferencePair(tokens(), tokens(), tokens()) for _ in range(n_pairs))
    mask = None
    if draw(st.booleans()):
        mask = np.sort(gen.choice(V * F, size=int(gen.integers(1, V * F + 1)), replace=False))
    theta = ParamVector(gen.standard_normal(V * F), scope_mask=mask)
    n = min(m, max(1, 65536 // theta.dim))
    rows = RngState(draw(st.integers(0, 2**64 - 1))).sphere_rows(0, n, theta.scope_dim)
    positions = sum(len(p.preferred) + len(p.dispreferred) for p in pairs)
    # the rows of one group of the pass, whose (rows, positions, V) logits take about 65,536 floats
    assert (n > policy_mod._rows_per_chunk(positions * V)) >= long
    return policy, pairs, theta, rows, draw(st.floats(1e-3, 3.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(row_pass_cases())
def test_row_pass_equals_the_one_point_values(case):
    policy, pairs, theta, rows, radius = case
    candidates = embed_perturbation(theta, rows, radius)
    evaluator = policy.preference_evaluator()
    # every candidate reads its row of its group's one pass
    got = np.array([candidate.evaluate(evaluator, pairs) for candidate in candidates])
    want = np.array([policy.log_likelihood_at(c.values, pairs) for c in candidates])
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape, n_pairs, lengths, m", [
    # 8 pairs of 12-token responses: 192 positions, whose logits for the
    # whole build take 512 * 192 * 8 floats (6 MiB) in each temporary
    ((8, 16), 8, (3, 12), 512),
    # 20 pairs of 1-token responses at V x F = 2 x 1: a build of 32,768
    # candidates, whose results held at once take about 44 MiB
    ((2, 1), 20, (1, 1), 32768),
], ids=["long-responses", "narrow-policy"])
def test_a_build_is_evaluated_one_row_group_at_a_time(shape, n_pairs, lengths, m):
    (V, F), (prompt, response) = shape, lengths
    policy = make_toy_policy(V, F, weight_seed=4)
    gen = np.random.default_rng(0)

    def tokens(n):
        return tuple(int(t) for t in gen.integers(0, V, size=n))

    pairs = tuple(PreferencePair(tokens(prompt), tokens(response), tokens(response))
                  for _ in range(n_pairs))
    theta = ParamVector(policy.flat_params)
    candidates = embed_perturbation(theta, RngState(0).sphere_rows(0, m, V * F), 0.1)
    evaluator = policy.preference_evaluator()
    want = [policy.log_likelihood_at(candidates[i].values, pairs) for i in (0, -1)]
    tracemalloc.start()
    try:
        got = [candidates[0].evaluate(evaluator, pairs)]
        for candidate in candidates[1:]:  # in index order, as measure_bits asks
            last = candidate.evaluate(evaluator, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one group's temporaries and results, and the results of the group
    # before, keep it near 1.6 and 3.9 MiB
    assert peak < 6 * 2**20, peak
    assert got + [last] == want


def test_dpo_grad_batch_mean_of_duplicates():
    policy = small_policy(seed=5)
    ref = small_policy(seed=6)
    pair = PreferencePair((1,), (0, 2), (3,))
    single = dpo_grad(policy, ref, [pair], beta=0.2)
    doubled = dpo_grad(policy, ref, [pair, pair], beta=0.2)
    # (0 + t + t) / 2 rounds to t exactly
    assert single.tobytes() == doubled.tobytes()


def test_dpo_grad_from_a_kept_layout_equals_a_fresh_policy():
    """A batch's kept token-major layout gives the bits of a policy with no cache.

    The layout is kept per batch in the context cache that ``with_weights``
    shares, so a later epoch at other weights, and the same pairs in another
    order, each read the right one.
    """
    batch = [
        PreferencePair((0, 1), (2, 3, 1, 0), (3,)),
        PreferencePair((2,), (0, 1), (1, 2, 3)),
        PreferencePair((3, 3, 0), (1,), (2, 0)),
    ]
    policy, ref = small_policy(seed=3), small_policy(seed=4)
    later = policy.flat_params + 0.5

    def fresh_grad(theta, pairs):
        fresh = small_policy(seed=3).with_flat_params(theta)
        return dpo_grad(fresh, small_policy(seed=4), pairs, 0.3).tobytes()

    for pairs in (batch, batch, batch[::-1]):
        assert dpo_grad(policy, ref, pairs, 0.3).tobytes() == fresh_grad(policy.flat_params, pairs)
        moved = policy.with_flat_params(later)
        assert dpo_grad(moved, ref, pairs, 0.3).tobytes() == fresh_grad(later, pairs)
    assert dpo_grad(policy, ref, batch, 0.3).tobytes() != dpo_grad(moved, ref, batch, 0.3).tobytes()


def test_context_cache_keeps_only_pair_batch_stacks_and_dpo_layouts():
    """The context cache keeps only what is read again.

    A pair batch's stack and a DPO batch's token-major layout are kept; a
    single response's stack, and the item-order stack a layout is gathered
    from, are built and dropped. ``with_weights`` shares both caches by
    identity and starts an empty likelihood memo.
    """
    pairs = (PreferencePair((0, 1), (2, 3), (1,)), PreferencePair((2,), (0, 1, 3), (3,)))
    dpo_batch = (PreferencePair((3,), (1, 2), (0, 0, 2)),)
    policy, ref = small_policy(seed=3), small_policy(seed=4)
    policy.sequence_log_likelihood((0, 1), (2, 3))
    policy.log_likelihood_at(policy.weights, pairs[:1])
    policy.log_likelihood_rows(policy.flat_params[None, :], pairs)
    dpo_grad(policy, ref, dpo_batch, 0.3)
    assert set(policy._context_cache) == {pairs[:1], pairs, ("dpo", dpo_batch)}
    # the reference answered only sequence_log_likelihood calls
    assert ref._context_cache == {} and len(ref._loglik_memo) == 2

    moved = policy.with_flat_params(policy.flat_params + 0.5)
    assert moved._feature_cache is policy._feature_cache
    assert moved._context_cache is policy._context_cache
    assert moved._loglik_memo == {} and policy._loglik_memo


def test_dpo_grad_bit_equal_to_per_pair_reference_at_batch_sizes_up_to_40():
    """The stacked pass keeps every bit of the per-pair loop over whole batches.

    Responses of 1 to 12 tokens stack in another order than the batch's, so
    a wrong offset or pair order changes bits. Each batch also holds an
    identical-response pair (an exact zero term) and a duplicate pair; the
    second beta saturates the pair of largest margin and keeps pairs of
    negative margin inside exp's range, in one batch.
    """
    gen = np.random.default_rng(34)
    for vocab, feat in ((2, 1), (5, 7), (8, 16)):

        def seq(lo, hi):
            return tuple(int(t) for t in gen.integers(0, vocab, size=int(gen.integers(lo, hi))))

        for trial, size in enumerate((3, 8, 19, 33, 40)):
            policy = make_toy_policy(vocab_size=vocab, feature_dim=feat, max_context=4,
                                     weight_seed=trial)
            ref = make_toy_policy(vocab_size=vocab, feature_dim=feat, max_context=4,
                                  weight_seed=50 + trial)
            pair = PreferencePair(seq(1, 4), seq(1, 13), seq(1, 13))
            if pair_margin(policy, ref, pair) < 0:
                pair = PreferencePair(pair.prompt, pair.dispreferred, pair.preferred)
            same = seq(1, 13)
            batch = [PreferencePair(seq(1, 4), same, same), pair, pair]
            batch += [PreferencePair(seq(1, 4), seq(1, 13), seq(1, 13)) for _ in range(size - 3)]
            batch = [batch[i] for i in gen.permutation(size)]
            margins = [pair_margin(policy, ref, pair) for pair in batch]
            saturating = 1000.0 / max(margins)
            if size > 3:
                assert min(margins) < 0
            for beta in (float(gen.uniform(0.05, 2.0)), saturating):
                expected = reference_dpo_grad(policy, ref, batch, beta)
                assert dpo_grad(policy, ref, batch, beta).tobytes() == expected.tobytes()


# ----- training ---------------------------------------------------------------


def test_train_dpo_zero_epochs_is_identity():
    policy = small_policy()
    ref = small_policy(seed=2)
    pair = PreferencePair((0,), (1,), (2,))
    out = train_dpo(policy, ref, [pair], DpoConfig(epochs=0))
    assert np.array_equal(out.weights, policy.weights)


def test_train_dpo_bit_equal_to_per_pair_reference_loop():
    policy = make_toy_policy(vocab_size=5, feature_dim=7, max_context=4, weight_seed=3)
    ref = make_toy_policy(vocab_size=5, feature_dim=7, max_context=4, weight_seed=4)
    gen = np.random.default_rng(8)

    def seq(lo, hi):
        return tuple(int(t) for t in gen.integers(0, 5, size=int(gen.integers(lo, hi))))

    dataset = [PreferencePair(seq(1, 4), seq(1, 13), seq(1, 13)) for _ in range(24)]
    config = DpoConfig(beta=0.5, learning_rate=0.5, epochs=3)
    expected = policy
    for _ in range(config.epochs):
        grad = reference_dpo_grad(expected, ref, dataset, config.beta)
        expected = expected.with_flat_params(expected.flat_params - config.learning_rate * grad)
    trained = train_dpo(policy, ref, dataset, config)
    assert trained.weights.tobytes() == expected.weights.tobytes()
    assert trained.weights.tobytes() != policy.weights.tobytes()


def test_train_dpo_raises_at_the_first_epoch_whose_weights_are_not_finite():
    ref = small_policy(seed=31)
    pairs = generate_preference_data(ref, 4, 4, 3.0, np.random.default_rng(4))
    # ascent at this rate leaves float range in epoch 20, overflowing on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trained = train_dpo(ref, ref, pairs, DpoConfig(learning_rate=-1e308, epochs=19))
        assert np.isfinite(trained.weights).all()
        with pytest.raises(InvalidScheduleError, match="not finite after epoch 20;"):
            train_dpo(ref, ref, pairs, DpoConfig(learning_rate=-1e308, epochs=25))


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_split_rejects_a_reference_margin_that_is_not_finite(value):
    stub = StubRefPolicy({(1,): 0.0, (2,): -1.0, (3,): value})
    pairs = [PreferencePair((0,), (1,), (2,)), PreferencePair((0,), (1,), (3,))]
    with pytest.raises(InvalidBatchError, match=r"pair 0\|1\|3 is"):
        split_by_margin(stub, pairs, delta=3.0)


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


def test_pipeline_evaluates_the_baseline_on_the_noisy_pairs_once(monkeypatch):
    # refine's checked starting values are the report's before values
    ref = make_toy_policy(weight_seed=11)
    gen = np.random.default_rng(3)
    pairs = generate_preference_data(ref, n_clean=0, n_noisy=4, delta=3.0, gen=gen)
    evaluate, keys = ToyPolicy.log_likelihood_at, collections.Counter()

    def counted(self, theta_values, pairs):
        keys[np.asarray(theta_values).tobytes(), tuple(pairs)] += 1
        return evaluate(self, theta_values, pairs)

    monkeypatch.setattr(ToyPolicy, "log_likelihood_at", counted)
    result = run_pipeline(pairs, pipeline_config(delta=1e6, m=20), ref_policy=ref)
    noisy = tuple(result.split.noisy)
    assert keys[result.dpo_clean_policy.weights.tobytes(), noisy] == 1
    before = evaluate(result.dpo_clean_policy, result.dpo_clean_policy.weights, noisy)
    assert [value for row in result.report.rows for value in dataclasses.astuple(row)[1:3]] == before


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
    F = ref.feature_dim  # rows 0 and 3 of the output map
    mask = (*range(0, F), *range(3 * F, 4 * F))
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
    report = likelihood_report(policy.log_likelihood_at(policy.weights, pairs), policy, pairs)
    assert all(row.delta_preferred == 0.0 and row.delta_dispreferred == 0.0 for row in report.rows)
    assert not any(row.verdict for row in report.rows)


def test_likelihood_report_rows_hold_each_policys_per_response_values():
    before, after = make_toy_policy(weight_seed=1), make_toy_policy(weight_seed=2)
    pairs = [PreferencePair((0,), (1,), (2,)), PreferencePair((1,), (3, 2), (0, 0, 5))]
    rows = likelihood_report(before.log_likelihood_at(before.weights, pairs), after, pairs).rows
    assert [dataclasses.astuple(row) for row in rows] == [
        (i, *(policy.sequence_log_likelihood(pair.prompt, response)
              for policy in (before, after)
              for response in (pair.preferred, pair.dispreferred)))
        for i, pair in enumerate(pairs)
    ]


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
