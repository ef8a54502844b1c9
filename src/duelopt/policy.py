"""Toy auto-regressive softmax policy and the preference-alignment pipeline.

The policy is deliberately the smallest model with a frozen/trainable layer
split: a fixed random feature embedding of (prompt, prefix) followed by a
trainable linear map to vocabulary logits. The linear map plays the role of
the output layer, so perturbation-scope masks over its flattened entries
express single-block or multi-block fine-tuning.

The pipeline has three stages: split pairs into clean/noisy by the reference
model's log-likelihood margin, train the margin-based baseline on the clean
pairs, then run the practical comparison-driven scheme on the noisy pairs
starting from that baseline.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .core import ParamVector, _fresh_philox, _rows_per_chunk, with_row_form
from .errors import InvalidBatchError, InvalidScheduleError, VocabularyError
from .optimizer import PracticalConfig, Trajectory, run_practical
from .oracles import compare_preference


@dataclass(frozen=True)
class PreferencePair:
    """A (prompt, preferred response, dispreferred response) token triple."""

    prompt: tuple[int, ...]
    preferred: tuple[int, ...]
    dispreferred: tuple[int, ...]
    ref_margin: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "prompt", tuple(int(t) for t in self.prompt))
        object.__setattr__(self, "preferred", tuple(int(t) for t in self.preferred))
        object.__setattr__(self, "dispreferred", tuple(int(t) for t in self.dispreferred))
        if not self.prompt or not self.preferred or not self.dispreferred:
            raise InvalidBatchError("prompt and both responses must be nonempty")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    peak = logits.max()
    return logits - (peak + math.log(np.exp(logits - peak).sum()))


def _response_logits(
    W: np.ndarray, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, V) logits of a response's n positions, their row maxima and exp-sums.

    ``columns`` is the (n, F, 1) stack of the positions' feature columns.
    The logits are one stacked matmul of ``W`` with them, which numpy runs
    as one ``W @ phi`` gemv per position, as ``token_log_probs`` computes
    it; a (V, F) @ (F, n) gemm instead can change logit bits. The max, exp
    and sum of ``_log_softmax`` then run once over the whole response; numpy
    reduces each row as it reduces a lone 1-D array, so every value has the
    bits a per-token ``_log_softmax`` gives. The reductions are the ufunc
    kernels ``.max`` and ``.sum`` call, without the method wrappers.
    """
    logits = np.matmul(W, columns)[:, :, 0]
    peak = np.maximum.reduce(logits, axis=1)
    return logits, peak, np.add.reduce(np.exp(logits - peak[:, None]), axis=1)


def _log_likelihoods(W: np.ndarray, stack: tuple) -> list[float]:
    """Log-likelihoods of a ``ToyPolicy._stack``'s responses, from one ``_response_logits``."""
    _, _, picks, columns, lengths = stack
    logits, peak, sums = _response_logits(W, columns)
    terms = zip(logits.ravel().take(picks).tolist(), peak.tolist(), sums.tolist())
    totals = []
    for length in lengths:
        total = 0.0
        # the one log-softmax entry needed per token, added in token order
        for _, (lp, top, norm) in zip(range(length), terms):
            total += lp - (top + math.log(norm))
        totals.append(total)
    return totals


def _log_likelihood_rows(W: np.ndarray, stack: tuple) -> list[list[float]]:
    """``_log_likelihoods`` of a leading group of the (n, 1, V, F) weights ``W``, value for value.

    The group is the first rows whose (rows, positions, V) logits take about
    ``core._CHUNK_FLOATS`` floats, at least one. Its logits are one stacked
    matmul, one ``W @ phi`` gemv per row and position as in
    ``_response_logits``; the exp-sums are the same per-row reduction, and
    each norm is a ``math.log``, since ``np.log`` differs from it in some
    last bits. The peak is taken as V strided maxima, which is exact in any
    order (a peak's zero sign cancels in every use) and faster than a
    reduction of V floats per row. Each response's terms are added in token
    order from +0.0, as ``_log_likelihoods`` adds them.
    """
    _, _, picks, columns, lengths = stack
    logits = np.matmul(W[:_rows_per_chunk(max(len(picks), 1) * W.shape[2])], columns)[..., 0]
    peak = logits[..., 0].copy()
    for v in range(1, logits.shape[2]):
        np.maximum(peak, logits[..., v], out=peak)
    sums = np.add.reduce(np.exp(logits - peak[..., None]), axis=2)
    norms = np.fromiter(map(math.log, sums.ravel().tolist()), np.float64, sums.size)
    terms = logits.reshape(len(logits), -1).take(picks, axis=1)
    terms -= peak + norms.reshape(sums.shape)
    totals = np.zeros((len(lengths), len(terms)))
    positions = iter(terms.T)
    for total, length in zip(totals, lengths):
        for _, term in zip(range(length), positions):
            total += term
    return totals.T.tolist()


def _responses(pairs: Sequence[PreferencePair]) -> list[tuple]:
    """(prompt, response) items: pair j's preferred one is item 2j, its dispreferred 2j + 1."""
    return [(pair.prompt, resp) for pair in pairs for resp in (pair.preferred, pair.dispreferred)]


@functools.cache
def _feature_generator() -> np.random.Generator:
    """The one generator feature draws re-key; made on first use, not at import."""
    return np.random.Generator(np.random.Philox(key=0))


_feature_lock = threading.Lock()  # holds a re-key and its draw together


class ToyPolicy:
    """Linear-softmax policy over fixed random context features.

    Token probabilities are ``softmax(W @ phi(x, y_<k))`` where phi is a
    deterministic unit-scale Gaussian feature of the (truncated) context,
    derived by hashing the token sequence together with ``feature_seed``.
    Instances sharing (vocab_size, feature_dim, max_context, feature_seed)
    share the same feature map and differ only in weights.

    ``sequence_log_likelihood`` caches its value per (prompt, response):
    the weights are a read-only copy and ``with_weights`` builds a new
    instance, so the value can never go stale. The preference oracle keeps a
    base point's values on the base ``ParamVector``, and a candidate build's
    on the record its candidates share. ``_context_cache``, shared by
    ``with_weights`` like the feature cache, keeps what depends only on the
    feature map and is read again: the ``_stack`` of each pair batch that
    ``log_likelihood_at`` or ``log_likelihood_rows`` is asked about, and
    each DPO batch's token-major layout.
    """

    def __init__(
        self,
        vocab_size: int,
        feature_dim: int,
        weights: np.ndarray | None = None,
        max_context: int = 16,
        feature_seed: int = 7,
    ):
        if vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
        if feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
        if max_context < 1:
            raise ValueError(f"max_context must be >= 1, got {max_context}")
        self.vocab_size = int(vocab_size)
        self.feature_dim = int(feature_dim)
        self.max_context = int(max_context)
        self.feature_seed = int(feature_seed)
        if weights is None:
            weights = np.zeros((vocab_size, feature_dim))
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (vocab_size, feature_dim):
            raise ValueError(f"weights must have shape {(vocab_size, feature_dim)}")
        self.weights = weights.copy()
        self.weights.setflags(write=False)
        self._feature_cache: dict = {}
        self._context_cache: dict = {}
        self._loglik_memo: dict = {}

    # ----- parameters ---------------------------------------------------

    @property
    def flat_params(self) -> np.ndarray:
        """Row-major flattening of the weight matrix."""
        return self.weights.ravel().copy()

    def with_weights(self, weights: np.ndarray) -> "ToyPolicy":
        policy = ToyPolicy(
            self.vocab_size, self.feature_dim, weights, self.max_context, self.feature_seed
        )
        policy._feature_cache = self._feature_cache
        policy._context_cache = self._context_cache
        return policy

    def with_flat_params(self, theta: np.ndarray) -> "ToyPolicy":
        theta = np.asarray(theta, dtype=np.float64)
        return self.with_weights(theta.reshape(self.vocab_size, self.feature_dim))

    # ----- evaluation ---------------------------------------------------

    def features(self, prompt: Sequence[int], prefix: Sequence[int]) -> np.ndarray:
        ctx = (tuple(prompt) + tuple(prefix))[-self.max_context:]
        feat = self._feature_cache.get(ctx)
        if feat is None:
            raw = np.asarray((len(ctx),) + ctx, dtype="<i8").tobytes()
            raw += self.feature_seed.to_bytes(8, "little", signed=True)
            digest = hashlib.blake2b(raw, digest_size=8).digest()
            with _feature_lock:  # the bytes of a fresh Philox(key=digest)
                gen = _feature_generator()
                gen.bit_generator.state = _fresh_philox([int.from_bytes(digest, "big"), 0])
                feat = gen.standard_normal(self.feature_dim)
            feat /= math.sqrt(self.feature_dim)
            feat.setflags(write=False)
            self._feature_cache[ctx] = feat
        return feat

    def token_log_probs(self, prompt: Sequence[int], prefix: Sequence[int]) -> np.ndarray:
        """Log-softmax over the vocabulary for the next token."""
        return _log_softmax(self.weights @ self.features(prompt, prefix))

    def _stack(self, responses: Sequence[tuple]) -> tuple:
        """Tokens, features, picks, columns and lengths of (prompt, response) items.

        Positions are stacked in item order: ``features`` row i is position
        i's context feature, ``columns`` its (n, F, 1) view, and ``picks``
        holds ``i * V + tokens[i]``, the flat index of each token's logit.
        The stack is not kept: ``_pairs_stack`` keeps a pair batch's, the one
        kind of stack that is read again.
        """
        rows, tokens, lengths = [], [], []
        for prompt, response in responses:
            for tok in prompt:
                self._check_token(tok)
            prefix: tuple[int, ...] = ()
            for tok in response:
                self._check_token(tok)
                rows.append(self.features(prompt, prefix))
                prefix = prefix + (int(tok),)
            tokens.extend(prefix)
            lengths.append(len(prefix))
        tokens = np.asarray(tokens, dtype=np.intp)
        features = np.array(rows, dtype=np.float64).reshape(len(rows), self.feature_dim)
        picks = np.arange(tokens.size) * self.vocab_size + tokens
        for array in (tokens, features, picks):
            array.setflags(write=False)
        return tokens, features, picks, features[:, :, None], tuple(lengths)

    def sequence_log_likelihood(self, prompt: Sequence[int], response: Sequence[int]) -> float:
        key = (tuple(prompt), tuple(response))
        total = self._loglik_memo.get(key)
        if total is None:
            (total,) = _log_likelihoods(self.weights, self._stack((key,)))
            self._loglik_memo[key] = total
        return total

    def log_likelihood_at(self, theta_values: np.ndarray, pairs: Sequence) -> list[float]:
        """``[pref_0, disp_0, pref_1, ...]``, the pairs' log-likelihoods at ``theta_values``.

        One stacked pass gives each value the bits ``sequence_log_likelihood``
        gives it. This is the point form of ``preference_evaluator``: the
        oracle asks for a base point's values once, through
        ``ParamVector.evaluate``, and for a candidate build's through
        ``log_likelihood_rows``, which costs less per row for a build but
        more for one point.
        """
        W = np.asarray(theta_values, dtype=np.float64).reshape(self.vocab_size, self.feature_dim)
        return _log_likelihoods(W, self._pairs_stack(pairs))

    def log_likelihood_rows(self, theta_rows: np.ndarray, pairs: Sequence) -> list[list[float]]:
        """``log_likelihood_at`` of a leading group of the rows of the (n, V * F) ``theta_rows``.

        One stacked pass evaluates the first rows whose logits take about
        ``core._CHUNK_FLOATS`` floats, at least one, and returns one list
        per row, each with the bits ``log_likelihood_at`` gives its row, so
        a large batch of pairs makes neither a large temporary nor a large
        result. This is the row form of ``preference_evaluator``, which
        ``ParamVector.evaluate`` runs once per group of a candidate build.
        At one row it costs more than ``log_likelihood_at``.
        """
        W = np.asarray(theta_rows, dtype=np.float64)
        W = W.reshape(len(W), 1, self.vocab_size, self.feature_dim)
        return _log_likelihood_rows(W, self._pairs_stack(pairs))

    def preference_evaluator(self) -> Callable:
        """``log_likelihood_at`` with its row form ``log_likelihood_rows``.

        This is the evaluator ``refine`` hands the preference oracle: a
        candidate build's values come from one pass per group of rows, and
        a single point's from the point form.
        """
        return with_row_form(self.log_likelihood_at, self.log_likelihood_rows)

    def _pairs_stack(self, pairs: Sequence) -> tuple:
        pairs = tuple(pairs)
        stack = self._context_cache.get(pairs)
        if stack is None:
            stack = self._context_cache[pairs] = self._stack(_responses(pairs))
        return stack

    def _check_token(self, tok: int) -> None:
        if not (0 <= int(tok) < self.vocab_size):
            raise VocabularyError(f"token {tok} outside vocabulary of size {self.vocab_size}")


def make_toy_policy(
    vocab_size: int = 8,
    feature_dim: int = 16,
    max_context: int = 16,
    feature_seed: int = 7,
    weight_seed: int | None = None,
    weight_scale: float = 1.0,
) -> ToyPolicy:
    """Construct a toy policy; random weights when ``weight_seed`` is given."""
    weights = None
    if weight_seed is not None:
        gen = np.random.Generator(np.random.Philox(key=int(weight_seed)))
        weights = weight_scale * gen.standard_normal((vocab_size, feature_dim))
    return ToyPolicy(
        vocab_size, feature_dim, weights, max_context=max_context, feature_seed=feature_seed
    )


# ----- alignment objective ----------------------------------------------


def log_likelihood(policy: ToyPolicy, prompt: Sequence[int], response: Sequence[int]) -> float:
    """Auto-regressive sequence log-likelihood; always <= 0."""
    return policy.sequence_log_likelihood(prompt, response)


def dpo_loss(
    policy: ToyPolicy, ref_policy: ToyPolicy, batch: Sequence[PreferencePair], beta: float
) -> float:
    """Mean ``-log sigmoid(beta * margin)`` over the batch.

    The margin is the reference-adjusted log-likelihood gap between preferred
    and dispreferred responses; equal policies give exactly log 2 per pair.
    Each policy's values come from one ``log_likelihood_at`` pass.
    """
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if len(batch) == 0:
        raise InvalidBatchError("batch must be nonempty")
    own = policy.log_likelihood_at(policy.weights, batch)
    ref = ref_policy.log_likelihood_at(ref_policy.weights, batch)
    total = 0.0
    for pp, pd, rp, rd in zip(own[::2], own[1::2], ref[::2], ref[1::2]):
        total += float(np.logaddexp(0.0, -beta * ((pp - rp) - (pd - rd))))
    return total / len(batch)


def dpo_grad(
    policy: ToyPolicy, ref_policy: ToyPolicy, batch: Sequence[PreferencePair], beta: float
) -> np.ndarray:
    """Analytic gradient of the margin loss w.r.t. the flattened weights.

    One stacked pass serves every response of the batch, with the float
    operations of a per-pair loop in the same order. The positions are laid
    out token-major, longest response first, so the responses still running
    at token t are a prefix; the layout depends only on the feature map, so
    it is kept per batch in ``_context_cache``, and the item-order
    ``_stack`` it is gathered from is not. One ``_response_logits``
    call gives every position's log-softmax (``math.log`` per row, as
    ``_log_softmax`` takes it). Each response's log-likelihood and its
    gradient, the sum over tokens of ``outer(onehot(tok) - softmax, phi)``,
    are accumulated token by token from +0.0. The pair terms are added in batch order from +0.0 by
    one reduction over the first axis of a C-contiguous array at least 2
    wide (V * F >= 2, since V >= 2), which adds its rows in order.
    """
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if len(batch) == 0:
        raise InvalidBatchError("batch must be nonempty")
    batch = tuple(batch)
    layout = policy._context_cache.get(("dpo", batch))
    if layout is None:
        responses = _responses(batch)
        tokens, features, _, _, lengths = policy._stack(responses)
        # sorted, not np.argsort: its first call pages in sort kernels (~0.4 MiB of peak RSS)
        order = np.array(sorted(range(len(lengths)), key=lambda i: -lengths[i]))
        by_length = np.array(lengths)[order]
        running = [int(np.count_nonzero(by_length > t)) for t in range(int(by_length[0]))]
        # row r of token t's block is position t of the r-th longest response
        starts = (np.cumsum(lengths) - lengths)[order]
        gather = np.concatenate([starts[:count] + t for t, count in enumerate(running)])
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        arrays = (np.arange(gather.size), tokens[gather], features[gather], rank[0::2], rank[1::2])
        for array in arrays:
            array.setflags(write=False)
        layout = policy._context_cache["dpo", batch] = (responses, running, *arrays)
    responses, running, rows, tokens, features, pos, neg = layout

    logits, peak, sums = _response_logits(policy.weights, features[:, :, None])
    logp = logits - (peak + np.array([math.log(norm) for norm in sums.tolist()]))[:, None]
    picked = logp[rows, tokens]
    coeff = -np.exp(logp)
    coeff[rows, tokens] += 1.0
    totals = np.zeros(len(responses))
    grads = np.zeros((len(responses), policy.vocab_size, policy.feature_dim))
    lo = 0
    for count in running:
        hi = lo + count
        totals[:count] += picked[lo:hi]
        grads[:count] += coeff[lo:hi, :, None] * features[lo:hi, None, :]
        lo = hi

    ref = np.array([ref_policy.sequence_log_likelihood(*item) for item in responses])
    margins = (totals[pos] - ref[0::2]) - (totals[neg] - ref[1::2])
    scales = []
    for h in margins.tolist():
        # d/dh of -log sigmoid(beta h) is -beta * sigmoid(-beta h); past
        # exp's float range (beta h > 709.78) it is its limit, -0.0
        try:
            scales.append(-beta / (1.0 + math.exp(beta * h)))
        except OverflowError:
            scales.append(-0.0)
    # a leading zero row, so the sum starts from +0.0 as ``grad +=`` does
    terms = np.zeros((len(batch) + 1,) + grads.shape[1:])
    np.multiply(np.array(scales)[:, None, None], grads[pos] - grads[neg], out=terms[1:])
    return (np.add.reduce(terms, axis=0) / len(batch)).ravel()


@dataclass(frozen=True)
class DpoConfig:
    beta: float = 0.1
    learning_rate: float = 0.5
    epochs: int = 50


def train_dpo(
    policy: ToyPolicy,
    ref_policy: ToyPolicy,
    dataset: Sequence[PreferencePair],
    config: DpoConfig,
) -> ToyPolicy:
    """Full-batch gradient descent on the margin loss; 0 epochs is a no-op.

    The first epoch whose weights are not finite raises ``InvalidScheduleError``.
    """
    if len(dataset) == 0:
        raise InvalidBatchError("dataset must be nonempty")
    current = policy
    for epoch in range(1, config.epochs + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            grad = dpo_grad(current, ref_policy, dataset, config.beta)
            theta = current.flat_params - config.learning_rate * grad
        if not np.isfinite(theta).all():
            raise InvalidScheduleError(
                f"DPO weights are not finite after epoch {epoch}; lower learning_rate or beta"
            )
        current = current.with_flat_params(theta)
    return current


# ----- clean/noisy split ------------------------------------------------


@dataclass(frozen=True)
class SplitDataset:
    """Partition of a preference dataset by reference log-likelihood margin."""

    clean: tuple[PreferencePair, ...]
    noisy: tuple[PreferencePair, ...]

    def csv_rows(self) -> list[tuple]:
        return [("pair", "subset", "ref_margin")] + [
            (_pair_token_key(pair), label, pair.ref_margin)
            for label, pairs in (("clean", self.clean), ("noisy", self.noisy))
            for pair in pairs
        ]


def _pair_token_key(pair: PreferencePair) -> str:
    """Comma-free pair identifier for CSV cells: tokens '.'-joined, parts '|'-joined."""
    return "|".join(
        ".".join(str(t) for t in seq)
        for seq in (pair.prompt, pair.preferred, pair.dispreferred)
    )


def split_by_margin(
    ref_policy: ToyPolicy, dataset: Sequence[PreferencePair], delta: float
) -> SplitDataset:
    """Noisy iff ``|log-lik margin under the reference| <= delta`` (boundary noisy).

    A margin that is not finite raises ``InvalidBatchError`` naming the pair.
    """
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    clean: list[PreferencePair] = []
    noisy: list[PreferencePair] = []
    for pair in dataset:
        margin = _ref_margin(ref_policy, pair)
        tagged = dataclasses.replace(pair, ref_margin=float(margin))
        (noisy if abs(margin) <= delta else clean).append(tagged)
    return SplitDataset(clean=tuple(clean), noisy=tuple(noisy))


def _ref_margin(ref_policy: ToyPolicy, pair: PreferencePair) -> float:
    """Preferred minus dispreferred log-likelihood under the reference policy."""
    # numpy's overflow warnings are off: the finite check below names the pair instead
    with np.errstate(over="ignore", invalid="ignore"):
        margin = ref_policy.sequence_log_likelihood(
            pair.prompt, pair.preferred
        ) - ref_policy.sequence_log_likelihood(pair.prompt, pair.dispreferred)
    if not math.isfinite(margin):
        key = _pair_token_key(pair)
        raise InvalidBatchError(f"reference log-likelihood margin of pair {key} is {margin}")
    return margin


# ----- likelihood report ------------------------------------------------


@dataclass(frozen=True)
class LikelihoodRow:
    pair_index: int
    logp_preferred_before: float
    logp_dispreferred_before: float
    logp_preferred_after: float
    logp_dispreferred_after: float

    @property
    def delta_preferred(self) -> float:
        return self.logp_preferred_after - self.logp_preferred_before

    @property
    def delta_dispreferred(self) -> float:
        return self.logp_dispreferred_after - self.logp_dispreferred_before

    @property
    def verdict(self) -> bool:
        """True when the preferred likelihood rose and the dispreferred fell."""
        return self.delta_preferred > 0 and self.delta_dispreferred < 0


@dataclass
class LikelihoodReport:
    rows: list[LikelihoodRow]

    def csv_rows(self) -> list[tuple]:
        header = (
            "pair", "logp_pos_before", "logp_neg_before", "logp_pos_after",
            "logp_neg_after", "delta_pos", "delta_neg", "verdict",
        )
        return [header] + [
            (*dataclasses.astuple(row), row.delta_preferred, row.delta_dispreferred, row.verdict)
            for row in self.rows
        ]


def likelihood_report(
    before: Sequence[float], policy_after: ToyPolicy, pairs: Sequence[PreferencePair]
) -> LikelihoodReport:
    """Before/after log-likelihoods per pair with the displacement verdict.

    ``before`` is ``[pref_0, disp_0, pref_1, ...]`` as ``log_likelihood_at``
    gives it, such as the starting values ``refine`` returns; the after
    values are one ``log_likelihood_at`` pass of ``policy_after``.
    """
    after = policy_after.log_likelihood_at(policy_after.weights, pairs)
    rows = [
        LikelihoodRow(i, *before[2 * i : 2 * i + 2], *after[2 * i : 2 * i + 2])
        for i in range(len(before) // 2)
    ]
    return LikelihoodReport(rows=rows)


# ----- end-to-end pipeline ----------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of the three-stage split/train/refine pipeline.

    ``practical.iterations`` is derived from ``refine_epochs`` and the noisy
    subset size (one epoch = one round-robin pass), so the value carried by
    ``practical`` itself is ignored.
    """

    practical: PracticalConfig
    delta: float = 3.0
    dpo: DpoConfig = field(default_factory=DpoConfig)
    refine_epochs: int = 1


@dataclass
class PipelineResult:
    final_policy: ToyPolicy
    dpo_clean_policy: ToyPolicy
    split: SplitDataset
    trajectory: Trajectory | None
    # the noisy pairs' likelihoods, clean baseline against final policy
    report: LikelihoodReport | None
    warnings: tuple[str, ...]
    # wall-clock seconds of the split, dpo, refine and likelihood_report
    # stages; 0.0 for the two skipped with the noisy subset empty
    stage_seconds: dict[str, float]


def refine(
    policy: ToyPolicy, pairs: Sequence[PreferencePair], practical: PracticalConfig
) -> tuple[Trajectory, ToyPolicy, list[float]]:
    """Run the practical scheme from ``policy`` on ``pairs``.

    Returns the trajectory, the final policy and the starting policy's
    values on ``pairs``, which ``likelihood_report`` takes as its before
    values. They are computed in one pass and checked: one that is not
    finite raises ``InvalidBatchError`` naming its pair, since every query
    would compare it and every step would be skipped.
    """
    # numpy's overflow warnings are off: the finite check below names the pair instead
    with np.errstate(over="ignore", invalid="ignore"):
        values = policy.log_likelihood_at(policy.weights, pairs)
    for j, value in enumerate(values):
        if not math.isfinite(value):
            key = _pair_token_key(pairs[j // 2])
            raise InvalidBatchError(f"starting log-likelihood of pair {key} is {value}")
    oracle = partial(compare_preference, policy.preference_evaluator())
    start = ParamVector(policy.flat_params)
    trajectory = run_practical(oracle, start, practical, data_stream=pairs)
    return trajectory, policy.with_flat_params(trajectory.final_theta.values), values


def run_pipeline(
    dataset: Sequence[PreferencePair],
    config: PipelineConfig,
    ref_policy: ToyPolicy,
) -> PipelineResult:
    """Split by margin, train the baseline on clean pairs, refine on noisy ones.

    Degenerate splits degrade gracefully: no clean pairs leaves the baseline
    equal to the reference; no noisy pairs ends the pipeline after stage two
    with a warning record. A refinement that skips every step also leaves a
    warning, since its final policy is the clean baseline.
    """
    warnings: list[str] = []
    started = time.perf_counter()
    split = split_by_margin(ref_policy, dataset, config.delta)
    split_done = time.perf_counter()

    if split.clean:
        dpo_clean = train_dpo(ref_policy, ref_policy, split.clean, config.dpo)
    else:
        warnings.append("clean subset empty; baseline equals the reference policy")
        dpo_clean = ref_policy
    dpo_done = time.perf_counter()
    stage_seconds = {"split": split_done - started, "dpo": dpo_done - split_done,
                     "refine": 0.0, "likelihood_report": 0.0}
    final_policy, trajectory, report = dpo_clean, None, None

    if split.noisy:
        noisy = list(split.noisy)
        # one epoch is one round-robin pass over the noisy pairs
        steps = config.refine_epochs * math.ceil(len(noisy) / config.practical.pairs_per_batch)
        practical = dataclasses.replace(config.practical, iterations=steps)
        trajectory, final_policy, before = refine(dpo_clean, noisy, practical)
        if all(rec.skipped for rec in trajectory.records):
            warnings.append(
                f"all {len(trajectory.records)} refinement steps skipped; "
                "final policy equals the clean baseline"
            )
        refine_done = time.perf_counter()
        report = likelihood_report(before, final_policy, noisy)
        stage_seconds["refine"] = refine_done - dpo_done
        stage_seconds["likelihood_report"] = time.perf_counter() - refine_done
    else:
        warnings.append("noisy subset empty; refinement stage skipped")
    return PipelineResult(
        final_policy=final_policy,
        dpo_clean_policy=dpo_clean,
        split=split,
        trajectory=trajectory,
        report=report,
        warnings=tuple(warnings),
        stage_seconds=stage_seconds,
    )


# ----- dataset I/O and synthesis -----------------------------------------


def _token_array(rec: dict, name: str) -> tuple[int, ...]:
    tokens = rec[name]
    # bool is an int subclass; floats and strings would be truncated or parsed
    if not isinstance(tokens, list) or not all(type(t) is int for t in tokens):
        raise TypeError(f"{name!r} must be an array of integers, got {tokens!r}")
    return tuple(tokens)


def load_preference_dataset(path: str | Path) -> list[PreferencePair]:
    """Read line-delimited JSON records with integer token arrays."""
    pairs = []
    try:
        with open(path, "r", encoding="utf8") as handle:
            lines = handle.read().split("\n")
    except UnicodeDecodeError as exc:
        raise InvalidBatchError(f"{path}: dataset is not valid UTF-8: {exc}") from None
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            pairs.append(
                PreferencePair(
                    prompt=_token_array(rec, "prompt"),
                    preferred=_token_array(rec, "preferred"),
                    dispreferred=_token_array(rec, "dispreferred"),
                )
            )
        except (KeyError, TypeError, ValueError, InvalidBatchError) as exc:
            raise InvalidBatchError(f"{path}:{line_no}: bad preference record: {exc}")
    return pairs


def save_preference_dataset(pairs: Sequence[PreferencePair], path: str | Path) -> None:
    with open(path, "w", encoding="utf8") as handle:
        for pair in pairs:
            record = {"prompt": list(pair.prompt), "preferred": list(pair.preferred),
                      "dispreferred": list(pair.dispreferred)}
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")


# inclusive length ranges of synthesized prompts, responses, and the extra
# length of a clean pair's dispreferred response
PROMPT_LEN = (2, 4)
RESPONSE_LEN = (2, 5)
CLEAN_LEN_GAP = (3, 6)
MAX_ATTEMPTS_PER_PAIR = 500


def generate_preference_data(
    ref_policy: ToyPolicy, n_clean: int, n_noisy: int, delta: float, gen: np.random.Generator
) -> list[PreferencePair]:
    """Synthesize pairs with controllable clean/noisy proportions.

    Noisy candidates use equal-length responses (margins cluster near zero);
    clean candidates lengthen one response so the margin's length component
    pushes it past delta. Candidates landing in the wrong bucket are rejected.
    """
    V = ref_policy.vocab_size

    def rand_seq(length: int) -> tuple[int, ...]:
        return tuple(int(t) for t in gen.integers(0, V, size=length))

    # made whole up front, so a count no list can hold is a MemoryError at once
    out: list = [None] * (n_noisy + n_clean)
    filled = 0
    for want_noisy, quota in ((True, n_noisy), (False, n_clean)):
        for _ in range(quota):
            for attempt in range(MAX_ATTEMPTS_PER_PAIR):
                prompt = rand_seq(int(gen.integers(PROMPT_LEN[0], PROMPT_LEN[1] + 1)))
                base_len = int(gen.integers(RESPONSE_LEN[0], RESPONSE_LEN[1] + 1))
                if want_noisy:
                    other_len = base_len
                else:
                    gap = int(gen.integers(CLEAN_LEN_GAP[0], CLEAN_LEN_GAP[1] + 1))
                    other_len = base_len + gap
                preferred = rand_seq(base_len)
                dispreferred = rand_seq(other_len)
                if preferred == dispreferred:
                    continue
                pair = PreferencePair(prompt, preferred, dispreferred)
                if (abs(_ref_margin(ref_policy, pair)) <= delta) == want_noisy:
                    out[filled] = pair
                    filled += 1
                    break
            else:
                kind = "noisy" if want_noisy else "clean"
                raise InvalidBatchError(
                    f"could not synthesize a {kind} pair within "
                    f"{MAX_ATTEMPTS_PER_PAIR} attempts (delta={delta})"
                )
    order = gen.permutation(len(out))
    return [out[i] for i in order]
