"""Independent oracles the tests compare the production code against.

Nothing here may import from the code paths it checks: the linear-objective
maximizer uses projected ascent with Dykstra's alternating projections, the
optimality certificate uses weak duality over a one-dimensional multiplier
grid, the gradient oracle uses central finite differences, and the policy
oracle uses exhaustive sequence enumeration. The two bisections are the
fixed-step versions the early-stopping ones must equal bit for bit, and the
two sphere draws are the plain one-generator draws every keyed direction row
must equal. Perturbed candidates are built one row at a time.
"""

from __future__ import annotations

import numpy as np


def _rows_project_l2(x: np.ndarray, radius: float = 1.0) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return x * scale


def _rows_project_l1(x: np.ndarray, radii: np.ndarray) -> np.ndarray:
    mags = np.abs(x)
    feasible = mags.sum(axis=1) <= radii
    sorted_desc = -np.sort(-mags, axis=1)
    cumsum = np.cumsum(sorted_desc, axis=1)
    ks = np.arange(1, x.shape[1] + 1)
    active = sorted_desc - (cumsum - radii[:, None]) / ks > 0
    counts = np.maximum(active.sum(axis=1), 1)
    picked = cumsum[np.arange(x.shape[0]), counts - 1]
    tau = (picked - radii) / counts
    tau = np.where(feasible, 0.0, np.maximum(tau, 0.0))
    return np.sign(x) * np.maximum(mags - tau[:, None], 0.0)


def maximize_linear_brute_batch(
    cs: np.ndarray, radii_l1: np.ndarray, steps: int = 2000, lr: float = 0.05, iters: int = 60
) -> np.ndarray:
    """Row-wise projected ascent for max c.g over {||g||_1 <= r_i, ||g||_2 <= 1}.

    Each row ascends along its normalized objective direction and is projected
    back onto the intersection with Dykstra's algorithm; the returned values
    are the best objectives seen, in the original scale.
    """
    cs = np.asarray(cs, dtype=np.float64)
    scales = np.linalg.norm(cs, axis=1)
    unit = cs / np.maximum(scales, 1e-300)[:, None]
    g = np.zeros_like(cs)
    best_val = np.full(cs.shape[0], -np.inf)
    for _ in range(steps):
        # one Dykstra solve per ascent step
        p = np.zeros_like(g)
        q = np.zeros_like(g)
        y = g + lr * unit
        for _ in range(iters):
            z = _rows_project_l2(y + p)
            p = y + p - z
            y = _rows_project_l1(z + q, radii_l1)
            q = z + q - y
        g = y
        best_val = np.maximum(best_val, np.sum(unit * g, axis=1))
    return best_val * scales


def dual_upper_bound(c: np.ndarray, s: int, grid: int = 4000) -> float:
    """Certified upper bound on max c.g over {||g||_1 <= sqrt(s), ||g||_2 <= 1}.

    Weak duality: for any mu >= 0 and feasible g,
        c.g <= max_{||g||_2 <= 1} (c.g - mu ||g||_1) + mu sqrt(s)
             = ||soft_threshold(c, mu)||_2 + mu sqrt(s),
    so minimizing the right side over a multiplier grid (then refining by
    golden section; the function is convex in mu) certifies optimality.
    """
    c = np.asarray(c, dtype=np.float64)
    root_s = np.sqrt(s)
    mags = np.abs(c)

    def h(mu: float) -> float:
        return float(np.linalg.norm(np.maximum(mags - mu, 0.0))) + mu * root_s

    hi = float(mags.max())
    mus = np.linspace(0.0, hi, grid)
    values = [h(m) for m in mus]
    i = int(np.argmin(values))
    lo = mus[max(i - 1, 0)]
    up = mus[min(i + 1, grid - 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, up
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = h(x1), h(x2)
    for _ in range(200):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = h(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = h(x2)
    return min(values[i], f1, f2)


def central_difference_gradient(fn, theta: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = step
        grad[i] = (fn(theta + bump) - fn(theta - bump)) / (2.0 * step)
    return grad


def enumerate_sequence_probs(policy, prompt: tuple[int, ...], length: int) -> dict[tuple[int, ...], float]:
    """Raw probability of every response of the given length, by enumeration."""
    V = policy.vocab_size
    out: dict[tuple[int, ...], float] = {(): 1.0}
    for _ in range(length):
        nxt: dict[tuple[int, ...], float] = {}
        for prefix, prob in out.items():
            token_probs = np.exp(policy.token_log_probs(prompt, prefix))
            for tok in range(V):
                nxt[prefix + (tok,)] = prob * float(token_probs[tok])
        out = nxt
    return out


def reference_threshold_for_ratio(mags: np.ndarray, s: float) -> float:
    """The exact solver's threshold search in numpy scalars, 100 bisection steps always."""
    a = np.sort(mags[mags > 0])[::-1]
    k = a.size
    prefix_sum = np.cumsum(a)
    prefix_sq = np.cumsum(a * a)

    def ratio_sq(tau: float, j: int) -> float:
        l1 = prefix_sum[j - 1] - j * tau
        l2_sq = prefix_sq[j - 1] - 2.0 * prefix_sum[j - 1] * tau + j * tau * tau
        return l1 * l1 / l2_sq

    for j in range(1, k + 1):
        lo = float(a[j]) if j < k else 0.0
        hi = float(a[j - 1])
        if lo < hi and ratio_sq(lo, j) >= s:
            break
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if ratio_sq(mid, j) > s:
            lo = mid
        else:
            hi = mid
    return hi


def reference_scale_reaching(fn, target: float) -> float:
    """Scale at which the increasing ``fn`` reaches ``target``: 200 bisection steps always."""
    hi = 1.0
    while fn(hi) < target:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"could not bracket the target {target}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def reference_sphere_rows(gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
    # normalized Gaussian rows are uniform on the sphere by rotational invariance
    return _unit_rows(gen.standard_normal((count, dim)))


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` scaled to unit length; a row of norm zero becomes e0, as the sampler makes it."""
    norms = np.linalg.norm(rows, axis=1)
    zero = norms == 0.0
    rows[zero, 0] = norms[zero] = 1.0
    return rows / norms[:, None]


def reference_grouped_rows(substream, per_key: int, count: int, dim: int, start: int = 0):
    """Rows ``start``... of a block whose rows share keys in groups of ``per_key``.

    Row i is run ``i % per_key`` of ``dim`` normals of ``substream(i // per_key)``,
    each group drawn whole by a fresh generator. A run of norm zero becomes
    e0 = (1, 0, ..., 0).
    """
    runs, raw = {}, np.empty((count, dim))
    for j, i in enumerate(range(start, start + count)):
        group, pos = divmod(i, per_key)
        if group not in runs:
            runs[group] = substream(group).standard_normal((per_key, dim))
        raw[j] = runs[group][pos]
    return _unit_rows(raw)


def reference_candidate_values(theta, rows, radius: float) -> list[np.ndarray]:
    """Each row's candidate values ``theta + radius * row``, one plain copy per row."""
    in_scope = np.arange(theta.dim) if theta.scope_mask is None else theta.scope_mask
    out = []
    for row in rows:
        values = theta.values.copy()
        values[in_scope] += radius * row
        out.append(values)
    return out
