"""Shared reference computations for the tests.

The trial generator and evaluation loop here are literal copies of the
one-tau-at-a-time code the package replaced, kept as references: a trial
block drawn with its fault count, and `evaluate` drawing every block again
at each tau and fusing one 128-trial block per kernel call.

The quadratic objective here is reconstructed from direction moments alone,
independently of the solver code: with unit-variance zero-mean directions
f_1..f_m and estimates c_j*f_j + b_j,

    accuracy_j = var_x + mean_x^2 + c_j^2 + b_j^2 - 2*c_j*target_j - 2*b_j*mean_x
    gap_{j,k}  = c_j^2 + c_k^2 - 2*c_j*c_k*cross_{j,k} + (b_j - b_k)^2

and the objective is lam * sum_j accuracy_j plus (1-lam)/(m-1) times the sum
of gap over unordered pairs.
"""

import numpy as np

from intervalfusion import DirectionMoments, TrialBatch, metrics


def _reference_cells(x, prec, x_max):
    u = (x + x_max) * prec / (2.0 * x_max)
    d = np.minimum(np.maximum(np.ceil(u), 1), prec)
    lo = -x_max + (d - 1) * (2.0 * x_max) / prec
    hi = -x_max + d * (2.0 * x_max) / prec
    return lo, hi


def reference_sample_batch(params, size, rng):
    """`size` trials at params.tau, drawn as the one-tau generator drew them."""
    n, m, x_max = params.n, params.m, params.x_max

    order = np.argsort(rng.random((size, n)), axis=1)
    faulty = np.zeros((size, n), dtype=bool)
    np.put_along_axis(faulty, order[:, : params.tau], True, axis=1)

    precisions = rng.integers(1, x_max + 1, size=(size, n))
    x = rng.uniform(-x_max, x_max, size=size)

    true_lo, true_hi = _reference_cells(x[:, None], precisions, x_max)

    fake_prec = rng.integers(1, x_max + 1, size=(size, n, m))
    phantom = rng.uniform(-x_max, x_max, size=(size, n, m))
    fake_lo, fake_hi = _reference_cells(phantom, fake_prec, x_max)

    mask = faulty[:, :, None]
    lo = np.where(mask, fake_lo, true_lo[:, :, None])
    hi = np.where(mask, fake_hi, true_hi[:, :, None])
    return TrialBatch(x=x, lo=lo, hi=hi, faulty=faulty, precisions=precisions)


def reference_trials(params, start, stop):
    """Trials start..stop-1 at params.tau: block b is drawn from the substream (seed, b)."""
    blocks = [
        reference_sample_batch(params, 128, np.random.default_rng(np.random.SeedSequence((params.seed & (2**64 - 1), b))))
        for b in range(start // 128, (stop - 1) // 128 + 1)
    ]
    rows = slice(start - start // 128 * 128, stop - start // 128 * 128)
    return TrialBatch(**{
        name: np.concatenate([getattr(block, name) for block in blocks])[rows]
        for name in ("x", "lo", "hi", "faulty", "precisions")
    })


def reference_evaluate(algos, params, trials):
    """Per-trial sq_err, pair gaps and degenerate counts at params.tau, one 128-trial block at a time."""
    m = params.m
    pairs = np.triu_indices(m, 1)
    sq_err = np.empty((len(algos), m, trials))
    gap_sq = np.empty((len(algos), pairs[0].size, trials))
    degenerate = np.zeros(len(algos), dtype=int)
    for start in range(0, trials, 128):
        stop = min(start + 128, trials)
        batch = reference_trials(params, start, stop)
        estimates, flagged = metrics._block_estimates(algos, batch, params.tau)
        degenerate += flagged
        sq_err[:, :, start:stop], gap_sq[:, :, start:stop] = metrics._score(batch.x, estimates, pairs)
    return sq_err, gap_sq, degenerate


def random_direction_moments(rng, m):
    """Direction moments realizable by an actual joint law.

    Builds a random covariance for (X, f_1..f_m) from Gaussian factors, then
    normalizes the f block to unit variance.  Returns (dm, var_x, mean_x).
    """
    factors = rng.normal(size=(m + 1, m + 3))
    cov = factors @ factors.T
    sig = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sig, sig)
    cross = corr[1:, 1:].copy()
    np.fill_diagonal(cross, 1.0)
    var_x = float(cov[0, 0])
    target = cov[0, 1:] / sig[1:]
    mean_x = float(rng.normal(scale=0.5))
    return DirectionMoments(cross=cross, target=target), var_x, mean_x


def reconstructed_objective(dm, var_x, mean_x, c, b, lam):
    """Objective value implied by the direction moments at amplitudes c, biases b."""
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    m = c.size
    acc = var_x + mean_x**2 + c**2 + b**2 - 2.0 * c * dm.target - 2.0 * b * mean_x
    total = lam * float(acc.sum())
    if m > 1:
        gap = 0.0
        for j in range(m):
            for k in range(j + 1, m):
                gap += c[j] ** 2 + c[k] ** 2 - 2.0 * c[j] * c[k] * dm.cross[j, k] + (b[j] - b[k]) ** 2
        total += (1.0 - lam) / (m - 1) * gap
    return total


def objective_gradient(dm, c, lam):
    """Gradient of the reconstructed objective with respect to the amplitudes."""
    c = np.asarray(c, dtype=float)
    m = c.size
    grad = 2.0 * lam * (c - dm.target)
    if m > 1:
        for j in range(m):
            others = sum(c[j] - dm.cross[j, k] * c[k] for k in range(m) if k != j)
            grad[j] += 2.0 * (1.0 - lam) / (m - 1) * others
    return grad
