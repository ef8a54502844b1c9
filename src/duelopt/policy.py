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
import hashlib
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .core import ParamVector
from .errors import InvalidBatchError, VocabularyError
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
    W: np.ndarray, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, V) logits of a response's n positions, their row maxima and exp-sums.

    The logits are one stacked matmul of ``W`` with the n feature columns,
    which numpy runs as one ``W @ phi`` gemv per position, as
    ``token_log_probs`` computes it; a (V, F) @ (F, n) gemm instead can
    change logit bits. The max, exp and sum of ``_log_softmax`` then run
    once over the whole response; numpy reduces each row as it reduces a
    lone 1-D array, so every value has the bits a per-token
    ``_log_softmax`` gives.
    """
    logits = np.matmul(W, features[:, :, None])[:, :, 0]
    peak = logits.max(axis=1)
    return logits, peak, np.exp(logits - peak[:, None]).sum(axis=1)


class ToyPolicy:
    """Linear-softmax policy over fixed random context features.

    Token probabilities are ``softmax(W @ phi(x, y_<k))`` where phi is a
    deterministic unit-scale Gaussian feature of the (truncated) context,
    derived by hashing the token sequence together with ``feature_seed``.
    Instances sharing (vocab_size, feature_dim, max_context, feature_seed)
    share the same feature map and differ only in weights.

    ``sequence_log_likelihood`` at the policy's own weights caches its value
    per (prompt, response): the weights are a read-only copy and
    ``with_weights`` builds a new instance, so the value can never go stale.
    ``log_likelihood_at`` keeps nothing; the preference oracle keeps a base
    point's likelihoods on the base ``ParamVector`` (``ParamVector.evaluate``).
    The per-response context features (tokens checked once) live in a dict
    that ``with_weights`` shares, like the feature cache itself.
    """

    def __init__(
        self,
        vocab_size: int,
        feature_dim: int,
        weights: np.ndarray | None = None,
        max_context: int = 16,
        feature_seed: int = 7,
        _feature_cache: dict | None = None,
        _context_cache: dict | None = None,
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
        self._feature_cache = _feature_cache if _feature_cache is not None else {}
        self._context_cache = _context_cache if _context_cache is not None else {}
        self._loglik_memo: dict = {}

    # ----- parameters ---------------------------------------------------

    @property
    def param_dim(self) -> int:
        return self.vocab_size * self.feature_dim

    @property
    def flat_params(self) -> np.ndarray:
        """Row-major flattening of the weight matrix."""
        return self.weights.ravel().copy()

    def with_weights(self, weights: np.ndarray) -> "ToyPolicy":
        return ToyPolicy(
            self.vocab_size,
            self.feature_dim,
            weights,
            max_context=self.max_context,
            feature_seed=self.feature_seed,
            _feature_cache=self._feature_cache,
            _context_cache=self._context_cache,
        )

    def with_flat_params(self, theta: np.ndarray) -> "ToyPolicy":
        theta = np.asarray(theta, dtype=np.float64)
        return self.with_weights(theta.reshape(self.vocab_size, self.feature_dim))

    def token_row_indices(self, tokens: Sequence[int]) -> np.ndarray:
        """Flat parameter indices of the logit rows for the given tokens.

        Useful for scope masks restricted to part of the output map.
        """
        idx = []
        for tok in tokens:
            self._check_token(tok)
            idx.extend(range(tok * self.feature_dim, (tok + 1) * self.feature_dim))
        return np.asarray(sorted(set(idx)), dtype=np.intp)

    # ----- evaluation ---------------------------------------------------

    def features(self, prompt: Sequence[int], prefix: Sequence[int]) -> np.ndarray:
        ctx = (tuple(prompt) + tuple(prefix))[-self.max_context:]
        key = ctx
        feat = self._feature_cache.get(key)
        if feat is None:
            raw = np.asarray((len(ctx),) + ctx, dtype="<i8").tobytes()
            raw += self.feature_seed.to_bytes(8, "little", signed=True)
            digest = hashlib.blake2b(raw, digest_size=8).digest()
            gen = np.random.Generator(np.random.Philox(key=int.from_bytes(digest, "big")))
            feat = gen.standard_normal(self.feature_dim) / math.sqrt(self.feature_dim)
            feat.setflags(write=False)
            self._feature_cache[key] = feat
        return feat

    def token_log_probs(self, prompt: Sequence[int], prefix: Sequence[int]) -> np.ndarray:
        """Log-softmax over the vocabulary for the next token."""
        return _log_softmax(self.weights @ self.features(prompt, prefix))

    def _response_features(
        self, prompt: Sequence[int], response: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Response tokens and the (n, F) matrix of their context features, tokens checked.

        Row i is ``features(prompt, response[:i])``. Depends only on the
        feature map, so instances built by ``with_weights`` share the table.
        """
        key = (tuple(prompt), tuple(response))
        steps = self._context_cache.get(key)
        if steps is None:
            for tok in prompt:
                self._check_token(tok)
            rows = []
            prefix: tuple[int, ...] = ()
            for tok in response:
                self._check_token(tok)
                rows.append(self.features(prompt, prefix))
                prefix = prefix + (int(tok),)
            tokens = np.asarray(prefix, dtype=np.intp)
            features = np.array(rows, dtype=np.float64).reshape(len(rows), self.feature_dim)
            tokens.setflags(write=False)
            features.setflags(write=False)
            steps = self._context_cache[key] = (tokens, features)
        return steps

    def sequence_log_likelihood(
        self, prompt: Sequence[int], response: Sequence[int], weights: np.ndarray | None = None
    ) -> float:
        key = (tuple(prompt), tuple(response))
        if weights is None and key in self._loglik_memo:
            return self._loglik_memo[key]
        W = self.weights if weights is None else weights
        tokens, features = self._response_features(prompt, response)
        logits, peak, sums = _response_logits(W, features)
        picked = logits[np.arange(tokens.size), tokens]
        total = 0.0
        # the one log-softmax entry needed per token, added in token order
        for lp, top, norm in zip(picked.tolist(), peak.tolist(), sums.tolist()):
            total += lp - (top + math.log(norm))
        if weights is None:
            self._loglik_memo[key] = total
        return total

    def log_likelihood_at(
        self, theta_values: np.ndarray, prompt: Sequence[int], response: Sequence[int]
    ) -> float:
        """Likelihood evaluator over an arbitrary flat parameter vector.

        This is the adapter handed to the preference comparison oracle. It
        computes every value it is asked for; the oracle asks for the base
        point's likelihoods through ``ParamVector.evaluate``, once per batch.
        """
        W = np.asarray(theta_values, dtype=np.float64).reshape(self.vocab_size, self.feature_dim)
        return self.sequence_log_likelihood(prompt, response, weights=W)

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


def _pair_margin(policy: ToyPolicy, ref: ToyPolicy, pair: PreferencePair) -> float:
    return (
        policy.sequence_log_likelihood(pair.prompt, pair.preferred)
        - ref.sequence_log_likelihood(pair.prompt, pair.preferred)
    ) - (
        policy.sequence_log_likelihood(pair.prompt, pair.dispreferred)
        - ref.sequence_log_likelihood(pair.prompt, pair.dispreferred)
    )


def dpo_loss(
    policy: ToyPolicy, ref_policy: ToyPolicy, batch: Sequence[PreferencePair], beta: float
) -> float:
    """Mean ``-log sigmoid(beta * margin)`` over the batch.

    The margin is the reference-adjusted log-likelihood gap between preferred
    and dispreferred responses; equal policies give exactly log 2 per pair.
    """
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if len(batch) == 0:
        raise InvalidBatchError("batch must be nonempty")
    total = 0.0
    for pair in batch:
        h = _pair_margin(policy, ref_policy, pair)
        total += float(np.logaddexp(0.0, -beta * h))
    return total / len(batch)


def _loglik_and_grad(policy: ToyPolicy, prompt, response) -> tuple[float, np.ndarray]:
    """Sequence log-likelihood and its gradient w.r.t. the weight matrix.

    One log-softmax per response serves both, with ``_log_softmax``'s
    operations row by row. The gradient is the sum over tokens of
    ``outer(onehot(tok) - softmax, phi)``; numpy's reduction over the first
    axis of a C-contiguous array at least 2 wide (V * F >= 2, since V >= 2)
    adds the rows in token order from +0.0, as a ``grad += outer`` loop does.
    """
    tokens, features = policy._response_features(prompt, response)
    logits, peak, sums = _response_logits(policy.weights, features)
    # math.log, as _log_softmax takes it: np.log need not round the same way
    shift = peak + np.array([math.log(norm) for norm in sums.tolist()])
    logp = logits - shift[:, None]
    rows = np.arange(tokens.size)
    total = 0.0
    for lp in logp[rows, tokens].tolist():
        total += lp
    coeff = -np.exp(logp)
    coeff[rows, tokens] += 1.0
    grad = np.add.reduce(coeff[:, :, None] * features[:, None, :], axis=0)
    return total, grad


def dpo_grad(
    policy: ToyPolicy, ref_policy: ToyPolicy, batch: Sequence[PreferencePair], beta: float
) -> np.ndarray:
    """Analytic gradient of the margin loss w.r.t. the flattened weights."""
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    if len(batch) == 0:
        raise InvalidBatchError("batch must be nonempty")
    grad = np.zeros((policy.vocab_size, policy.feature_dim))
    for pair in batch:
        pos, grad_pos = _loglik_and_grad(policy, pair.prompt, pair.preferred)
        neg, grad_neg = _loglik_and_grad(policy, pair.prompt, pair.dispreferred)
        h = (pos - ref_policy.sequence_log_likelihood(pair.prompt, pair.preferred)) - (
            neg - ref_policy.sequence_log_likelihood(pair.prompt, pair.dispreferred)
        )
        # d/dh of -log sigmoid(beta h) is -beta * sigmoid(-beta h); past
        # exp's float range (beta h > 709.78) it is its limit, -0.0
        try:
            coeff = -beta / (1.0 + math.exp(beta * h))
        except OverflowError:
            coeff = -0.0
        grad += coeff * (grad_pos - grad_neg)
    return (grad / len(batch)).ravel()


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
    """Full-batch gradient descent on the margin loss; 0 epochs is a no-op."""
    if len(dataset) == 0:
        raise InvalidBatchError("dataset must be nonempty")
    current = policy
    for _ in range(config.epochs):
        grad = dpo_grad(current, ref_policy, dataset, config.beta)
        theta = current.flat_params - config.learning_rate * grad
        current = current.with_flat_params(theta)
    return current


# ----- clean/noisy split ------------------------------------------------


@dataclass(frozen=True)
class SplitDataset:
    """Partition of a preference dataset by reference log-likelihood margin."""

    clean: tuple[PreferencePair, ...]
    noisy: tuple[PreferencePair, ...]
    delta: float

    def csv_rows(self) -> list[tuple[str, ...]]:
        rows = [("pair", "subset", "ref_margin")]
        for label, pairs in (("clean", self.clean), ("noisy", self.noisy)):
            for pair in pairs:
                rows.append((_pair_token_key(pair), label, repr(pair.ref_margin)))
        return rows


def _pair_json(pair: PreferencePair) -> str:
    return json.dumps(
        {"prompt": list(pair.prompt), "preferred": list(pair.preferred),
         "dispreferred": list(pair.dispreferred)},
        separators=(",", ":"),
    )


def _pair_token_key(pair: PreferencePair) -> str:
    """Comma-free pair identifier for CSV cells: tokens '.'-joined, parts '|'-joined."""
    return "|".join(
        ".".join(str(t) for t in seq)
        for seq in (pair.prompt, pair.preferred, pair.dispreferred)
    )


def split_by_margin(
    ref_policy: ToyPolicy, dataset: Sequence[PreferencePair], delta: float
) -> SplitDataset:
    """Noisy iff ``|log-lik margin under the reference| <= delta`` (boundary noisy)."""
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    clean: list[PreferencePair] = []
    noisy: list[PreferencePair] = []
    for pair in dataset:
        margin = _ref_margin(ref_policy, pair)
        tagged = dataclasses.replace(pair, ref_margin=float(margin))
        (noisy if abs(margin) <= delta else clean).append(tagged)
    return SplitDataset(clean=tuple(clean), noisy=tuple(noisy), delta=float(delta))


def _ref_margin(ref_policy: ToyPolicy, pair: PreferencePair) -> float:
    """Preferred minus dispreferred log-likelihood under the reference policy."""
    return ref_policy.sequence_log_likelihood(
        pair.prompt, pair.preferred
    ) - ref_policy.sequence_log_likelihood(pair.prompt, pair.dispreferred)


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

    def csv_rows(self) -> list[tuple[str, ...]]:
        out = [(
            "pair", "logp_pos_before", "logp_neg_before", "logp_pos_after",
            "logp_neg_after", "delta_pos", "delta_neg", "verdict",
        )]
        for row in self.rows:
            out.append((
                str(row.pair_index),
                repr(row.logp_preferred_before),
                repr(row.logp_dispreferred_before),
                repr(row.logp_preferred_after),
                repr(row.logp_dispreferred_after),
                repr(row.delta_preferred),
                repr(row.delta_dispreferred),
                str(int(row.verdict)),
            ))
        return out


def likelihood_report(
    policy_before: ToyPolicy, policy_after: ToyPolicy, pairs: Sequence[PreferencePair]
) -> LikelihoodReport:
    """Before/after log-likelihoods per pair with the displacement verdict."""
    rows = []
    for i, pair in enumerate(pairs):
        rows.append(
            LikelihoodRow(
                pair_index=i,
                logp_preferred_before=policy_before.sequence_log_likelihood(
                    pair.prompt, pair.preferred
                ),
                logp_dispreferred_before=policy_before.sequence_log_likelihood(
                    pair.prompt, pair.dispreferred
                ),
                logp_preferred_after=policy_after.sequence_log_likelihood(
                    pair.prompt, pair.preferred
                ),
                logp_dispreferred_after=policy_after.sequence_log_likelihood(
                    pair.prompt, pair.dispreferred
                ),
            )
        )
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
    ref_policy: ToyPolicy
    split: SplitDataset
    trajectory: Trajectory | None
    warnings: tuple[str, ...]


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
    split = split_by_margin(ref_policy, dataset, config.delta)

    if split.clean:
        dpo_clean = train_dpo(ref_policy, ref_policy, split.clean, config.dpo)
    else:
        warnings.append("clean subset empty; baseline equals the reference policy")
        dpo_clean = ref_policy

    if not split.noisy:
        warnings.append("noisy subset empty; refinement stage skipped")
        return PipelineResult(
            final_policy=dpo_clean,
            dpo_clean_policy=dpo_clean,
            ref_policy=ref_policy,
            split=split,
            trajectory=None,
            warnings=tuple(warnings),
        )

    per_pass = math.ceil(len(split.noisy) / config.practical.pairs_per_batch)
    practical = dataclasses.replace(config.practical, iterations=config.refine_epochs * per_pass)
    oracle = partial(compare_preference, dpo_clean.log_likelihood_at)
    trajectory = run_practical(
        oracle, ParamVector(dpo_clean.flat_params), practical, data_stream=list(split.noisy)
    )
    if trajectory.skipped_iterations == len(trajectory.records):
        warnings.append(
            f"all {len(trajectory.records)} refinement steps skipped; "
            "final policy equals the clean baseline"
        )
    final_policy = dpo_clean.with_flat_params(trajectory.final_theta.values)
    return PipelineResult(
        final_policy=final_policy,
        dpo_clean_policy=dpo_clean,
        ref_policy=ref_policy,
        split=split,
        trajectory=trajectory,
        warnings=tuple(warnings),
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
    with open(path, "r", encoding="utf8") as handle:
        for line_no, line in enumerate(handle, 1):
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
            handle.write(_pair_json(pair) + "\n")


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

    out: list[PreferencePair] = []
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
                    out.append(pair)
                    break
            else:
                kind = "noisy" if want_noisy else "clean"
                raise InvalidBatchError(
                    f"could not synthesize a {kind} pair within "
                    f"{MAX_ATTEMPTS_PER_PAIR} attempts (delta={delta})"
                )
    order = gen.permutation(len(out))
    return [out[i] for i in order]
