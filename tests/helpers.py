"""Shared reference computations for the tests.

The trial generator and evaluation loop here are literal copies of the
one-tau-at-a-time code the package replaced, kept as references: a trial
block drawn with its fault count, and `evaluate` drawing every block again
at each tau and fusing one 128-trial block per kernel call.  The
Brooks-Iyengar rows here are a literal copy of the two-step region rule the
package replaced: the regions n - tau readings cover, then the
maximal-coverage regions patched in on degenerate rows.  The region GBI rows
here are a literal copy of the kernel before its coverage counts came from
one endpoint sweep: a (rows, n, 2n) array of which reading covers which gap,
summed into the counts and gathered at the kept regions.  The exact
posterior rows here are a literal copy of the oracle before it summed over
the cells n - tau readings cover: every pattern's truthful intersection from
a (rows, patterns, n - tau) gather, and its level summed into every region
through a (rows, patterns, regions) membership array.  The enumerative GBI
weight table here is a literal copy of `fusion.gbi_bayes_weights`'s fold
before it ran over sensor-major (S, B) tables: the members folded in over
(B, S) arrays gathered from the row-major readings.

The moment estimates and the linear fit here are literal copies of the
package's formulas before their products and sensor sums were formed once,
in place: every endpoint product is formed again for its row sums, and each
agent's sensor sums come from `sum(axis=1)`.  They read the package's
`sample_batch` unless given another draw, such as the one-tau generator
here, whose C-ordered arrays pin the bits of the package's sampled views.  The exact fit here is the
package's before it took its closed form, on the Fraction reference's Gram
and target rounded to floats: the quadratic system of
`optimal._quadratic_system` and the minimum-norm solution of
`np.linalg.lstsq`, whose last bits follow the BLAS kernel.

The two-agent recipe's search engine, objective kernel and root formula
here are literal copies of the package's before the engine held its simplex
as scalars and tested for a fixed point with == first, and before the kernel
took its roots inline: `_nelder_mead`, the `evaluate` closure of
`solve_linear_two_agent` with the constants it closes over, and
`_delta_roots`, renamed to reference_*.

The law's exact moments here are a `fractions.Fraction` reference for
`oracle.law_moments`, built another way: every pair of cells of two
truthful readings is enumerated with the length of their overlap, and the
feature Gram sums the covariance of every (sensor, agent) pair of endpoints.
The linear fusers' exact mse and cns are formed from that Gram and target.
The lattice sum B is also given by its definition, as a Fraction, and by
the package's pair-by-pair route before its Jordan-totient sieve, a literal
copy renamed to reference_lattice_b_by_pairs.

The quadratic objective here is reconstructed from direction moments alone,
independently of the solver code: with unit-variance zero-mean directions
f_1..f_m and estimates c_j*f_j + b_j,

    accuracy_j = var_x + mean_x^2 + c_j^2 + b_j^2 - 2*c_j*target_j - 2*b_j*mean_x
    gap_{j,k}  = c_j^2 + c_k^2 - 2*c_j*c_k*cross_{j,k} + (b_j - b_k)^2

and the objective is lam * sum_j accuracy_j plus (1-lam)/(m-1) times the sum
of gap over unordered pairs.
"""

import collections
import functools
import itertools
import math
import struct
from fractions import Fraction
from typing import Callable

import numpy as np

from intervalfusion import DirectionMoments, MomentSet, TrialBatch, fusion, metrics, optimal, oracle, sample_batch


def _reference_cells(x, prec, x_max):
    u = (x + x_max) * prec / (2.0 * x_max)
    d = np.minimum(np.maximum(np.ceil(u), 1), prec)
    lo = -x_max + (d - 1) * (2.0 * x_max) / prec
    hi = -x_max + d * (2.0 * x_max) / prec
    return lo, hi


def reference_draw(params, size, rng):
    """The one-tau generator's draws: the fault order (size, n), the targets,
    the precisions and truthful cells (size, n) and the phantom cells (size, n, m)."""
    n, m, x_max = params.n, params.m, params.x_max

    order = np.argsort(rng.random((size, n)), axis=1)

    precisions = rng.integers(1, x_max + 1, size=(size, n))
    x = rng.uniform(-x_max, x_max, size=size)

    true_lo, true_hi = _reference_cells(x[:, None], precisions, x_max)

    fake_prec = rng.integers(1, x_max + 1, size=(size, n, m))
    phantom = rng.uniform(-x_max, x_max, size=(size, n, m))
    fake_lo, fake_hi = _reference_cells(phantom, fake_prec, x_max)
    return order, x, precisions, true_lo, true_hi, fake_lo, fake_hi


def reference_sample_batch(params, size, rng):
    """`size` trials at params.tau, drawn as the one-tau generator drew them."""
    order, x, precisions, true_lo, true_hi, fake_lo, fake_hi = reference_draw(params, size, rng)
    faulty = np.zeros(order.shape, dtype=bool)
    np.put_along_axis(faulty, order[:, : params.tau], True, axis=1)

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


def reference_estimate_moments(params, samples, rng, draw=sample_batch):
    """`estimate_moments` with each endpoint product formed again for its row sums, on draw's batch."""
    batch = draw(params, samples, rng)
    n = params.n
    L = batch.lo[:, :, 0]
    U = batch.hi[:, :, 0]
    X = batch.x

    mean_x = float(X.mean())
    var_x = float(X.var(ddof=1))
    mean_l = float(L.mean())
    mean_u = float(U.mean())

    e_l2 = float((L * L).mean())
    e_u2 = float((U * U).mean())
    e_lu = float((L * U).mean())
    e_lx = float((L * X[:, None]).mean())
    e_ux = float((U * X[:, None]).mean())

    sl = L.sum(axis=1)
    su = U.sum(axis=1)
    pairs = n * (n - 1)
    e_ll_cross = float(((sl * sl - (L * L).sum(axis=1)) / pairs).mean()) if n > 1 else e_l2
    e_uu_cross = float(((su * su - (U * U).sum(axis=1)) / pairs).mean()) if n > 1 else e_u2
    e_lu_cross = float(((sl * su - (L * U).sum(axis=1)) / pairs).mean()) if n > 1 else e_lu

    return MomentSet(
        mean_x=mean_x,
        var_x=var_x,
        mean_l=mean_l,
        mean_u=mean_u,
        var_l=e_l2 - mean_l * mean_l,
        cov_ll=e_ll_cross - mean_l * mean_l,
        var_u=e_u2 - mean_u * mean_u,
        cov_uu=e_uu_cross - mean_u * mean_u,
        cov_lu_same=e_lu - mean_l * mean_u,
        cov_lu_cross=e_lu_cross - mean_l * mean_u,
        cov_lx=e_lx - mean_l * mean_x,
        cov_ux=e_ux - mean_u * mean_x,
    )


def reference_fit_linear_empirical(params, lam, samples, rng, draw=sample_batch):
    """`fit_linear_empirical` with each agent's sensor sums from `sum(axis=1)`, on draw's batch."""
    batch = draw(params, samples, rng)
    n, m = params.n, params.m
    mean_l = float(batch.lo[:, :, 0].mean())
    mean_u = float(batch.hi[:, :, 0].mean())

    feats = np.stack(
        [batch.lo.sum(axis=1) - n * mean_l, batch.hi.sum(axis=1) - n * mean_u], axis=2
    ).reshape(samples, 2 * m)
    gram = feats.T @ feats / samples
    agent = np.arange(2 * m) // 2
    q = np.where(agent[:, None] == agent[None, :], gram, -(1.0 - lam) / (m - 1) * gram)
    b = lam * (feats.T @ batch.x) / samples
    v = np.linalg.lstsq(q, b, rcond=None)[0]

    eps, delta = v[0::2], v[1::2]
    gamma = -n * (eps * mean_l + delta * mean_u)
    return optimal._shared_coefficients(eps, delta, gamma, n)


def reference_fit_linear_lstsq(params, lam):
    """`fit_linear_exact` as a least-squares solve of the quadratic system on `reference_law_moments`."""
    fields, gram, target = reference_law_moments(params.n, params.m, params.tau, params.x_max)
    gram = np.array([[float(g) for g in row] for row in gram])
    q, b = optimal._quadratic_system(gram, np.array([float(t) for t in target]), lam, per_agent=2)
    v = np.linalg.lstsq(q, b, rcond=None)[0]
    eps, delta = v[0::2], v[1::2]
    gamma = -params.n * (eps * float(fields["mean_l"]) + delta * float(fields["mean_u"]))
    return optimal._shared_coefficients(eps, delta, gamma, params.n)


def reference_bi_rows(cov, tau):
    """Brooks-Iyengar estimates and degenerate flags of B rows, by the two-step region rule."""
    n = cov.lo.shape[1]
    counts = cov.counts
    top = counts.max(axis=1)
    qualified = counts >= n - tau
    degenerate = ~qualified.any(axis=1)
    uncovered = top == 0
    qualified[degenerate] = (counts[degenerate] == top[degenerate, None]) & ~uncovered[degenerate, None]
    rows, regions = np.nonzero(qualified)
    mids = (cov.left[rows, regions] + cov.right[rows, regions]) / 2.0
    values = fusion._row_means(rows, counts[rows, regions].astype(float), mids,
                               np.bincount(rows, minlength=counts.shape[0]) > 0)
    values[uncovered] = ((cov.lo[uncovered] + cov.hi[uncovered]) / 2.0).mean(axis=1)
    return values, degenerate


def reference_gbi_rows(lo, hi, tau):
    """Region GBI estimates and degenerate flags of B rows, through the (rows, n, 2n) cover array.

    A degenerate row takes its two-step BI estimate.
    """
    points = np.sort(np.concatenate([lo, hi], axis=1), axis=1)
    left, right = points[:, :-1], points[:, 1:]
    cover = (lo[:, :, None] <= left[:, None, :]) & (hi[:, :, None] >= right[:, None, :])
    cover &= (right > left)[:, None, :]
    counts = cover.sum(axis=1)
    n = lo.shape[1]
    widths = hi - lo
    shortest = widths.min(axis=1, keepdims=True)
    if (shortest <= 0).any():
        raise ValueError("every reading must have positive width")
    k = n - tau
    keep = counts >= k
    degenerate = ~keep.any(axis=1)
    rows, regions = np.nonzero(keep)
    factors = (cover[rows, :, regions] * (shortest / widths)[rows]).T
    esym = np.zeros((k + 1, rows.size))
    esym[0] = 1.0
    upper, lower = esym[1:], esym[:-1]
    for row in factors:
        upper += row * lower
    left, right = left[rows, regions], right[rows, regions]
    values = fusion._row_means(rows, esym[k] * (right - left), (left + right) / 2.0, keep.any(axis=1))
    profile = fusion.TransitionProfile(points=points, counts=counts, lo=lo, hi=hi)
    values[degenerate] = reference_bi_rows(profile, tau)[0][degenerate]
    return values, degenerate


def reference_posterior_rows(lo, hi, params):
    """Unnormalized posterior densities of B reading rows, through the (rows, patterns, regions) membership."""
    n = lo.shape[1]
    tau, x_max = params.tau, params.x_max
    if n != params.n:
        raise ValueError(f"expected {params.n} readings, got {n}")
    precisions = oracle._implied_precisions(hi - lo, x_max)

    bound = float(x_max)
    edges = np.full((lo.shape[0], 1), bound)
    points = np.sort(np.clip(np.concatenate([lo, hi, -edges, edges], axis=1), -bound, bound), axis=1)
    left, right = points[:, None, :-1], points[:, None, 1:]

    truthful = np.array(list(itertools.combinations(range(n), n - tau)), dtype=np.intp)
    faulty = np.array(list(itertools.combinations(range(n), tau)), dtype=np.intp).reshape(len(truthful), tau)[::-1]

    a = np.maximum(lo[:, truthful].max(axis=2), -bound)[:, :, None]
    b = np.minimum(hi[:, truthful].min(axis=2), bound)[:, :, None]
    coeff = np.full((lo.shape[0], truthful.shape[0]), 1.0 / (2.0 * x_max) * (1.0 / x_max) ** (n - tau))
    for slot in range(tau):
        coeff /= x_max * precisions[:, faulty[:, slot]]
    member = (b > a) & (a <= left) & (right <= b)
    levels = np.einsum("rp,rpg->rg", coeff, member)
    return oracle.PiecewiseDensity(breakpoints=points, levels=levels)


def reference_gbi_bayes_weights(lo, hi, tau):
    """The (B, S) GBI weights and midpoints of B reading rows, folded over row-major (B, S) arrays."""
    n = lo.shape[1]
    widths = hi - lo
    idx = fusion._subset_indices(n, n - tau)
    inv = 1.0 / widths
    cols = idx.T
    max_lo, min_hi, scale = lo[:, cols[0]], hi[:, cols[0]], inv[:, cols[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        for col in cols[1:]:
            max_lo = np.maximum(max_lo, lo[:, col])
            min_hi = np.minimum(min_hi, hi[:, col])
            scale = scale * inv[:, col]
        weights = np.maximum(min_hi - max_lo, 0.0) * scale
    midpoints = np.where(weights > 0, (min_hi + max_lo) / 2.0, 0.0)
    return weights, midpoints


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


@functools.cache
def _reading_law(x_max):
    """Exact moments of one reading, and of two truthful readings of one target, as Fractions.

    A reading picks a precision p in 1..x_max, then one of its p cells, each
    with probability 1/(x_max*p); a truthful reading is the cell holding the
    uniform target X, and two truthful readings pick their precisions
    independently.
    """
    cells = []
    for p in range(1, x_max + 1):
        width = Fraction(2 * x_max, p)
        cells += [(Fraction(1, x_max * p), -x_max + k * width, -x_max + (k + 1) * width) for k in range(p)]
    one = {
        "L": sum(w * lo for w, lo, _ in cells),
        "U": sum(w * hi for w, _, hi in cells),
        "LL": sum(w * lo * lo for w, lo, _ in cells),
        "UU": sum(w * hi * hi for w, _, hi in cells),
        "LU": sum(w * lo * hi for w, lo, hi in cells),
        # E[X L] = sum over cells of lo * (integral of x over the cell) / (2 x_max), over precisions
        "XL": sum(Fraction(1, x_max) * lo * (hi * hi - lo * lo) / 2 / (2 * x_max) for _, lo, hi in cells),
        "XU": sum(Fraction(1, x_max) * hi * (hi * hi - lo * lo) / 2 / (2 * x_max) for _, lo, hi in cells),
    }
    two = {"LL": Fraction(0), "UU": Fraction(0), "LU": Fraction(0)}
    for _, a_lo, a_hi in cells:
        for _, b_lo, b_hi in cells:
            overlap = min(a_hi, b_hi) - max(a_lo, b_lo)
            if overlap > 0:
                # P(precisions) * P(X in both cells | precisions)
                w = Fraction(1, x_max * x_max) * overlap / (2 * x_max)
                two["LL"] += w * a_lo * b_lo
                two["UU"] += w * a_hi * b_hi
                two["LU"] += w * a_lo * b_hi
    return one, two


@functools.cache
def reference_law_moments(n, m, tau, x_max):
    """MomentSet fields, feature Gram and E[X F] of the law at (n, m, tau, x_max), as Fractions.

    At n = 1 the cross-sensor fields repeat the same-sensor ones, the
    package's convention when there is no distinct pair.  Cached: callers
    read the result and never change it.
    """
    one, two = _reading_law(x_max)
    keep = Fraction(n - tau, n)
    both = Fraction((n - tau) * (n - tau - 1), n * (n - 1)) if n > 1 else None
    mean = {"L": one["L"], "U": one["U"]}

    @functools.cache
    def cov(a, b, same_sensor, same_agent):
        """Cov(A_ij, B_i'k) of endpoints a, b of sensors i, i' at agents j, k."""
        key = a + b if a + b in one else b + a
        if same_sensor:
            # one reading at one agent; at two agents, shared only when truthful
            return (one[key] - mean[a] * mean[b]) * (1 if same_agent else keep)
        # distinct sensors: dependent only when both are truthful
        return both * (two[key] - mean[a] * mean[b])

    fields = dict(
        mean_x=Fraction(0), var_x=Fraction(x_max * x_max, 3), mean_l=one["L"], mean_u=one["U"],
        var_l=cov("L", "L", True, True), cov_ll=cov("L", "L", n == 1, True),
        var_u=cov("U", "U", True, True), cov_uu=cov("U", "U", n == 1, True),
        cov_lu_same=cov("L", "U", True, True), cov_lu_cross=cov("L", "U", n == 1, True),
        cov_lx=keep * one["XL"], cov_ux=keep * one["XU"],
    )
    features = [(j, a) for j in range(m) for a in "LU"]
    # every ordered pair of sensors (i, k), counted by whether i == k
    sensor_pairs = collections.Counter(i == k for i in range(n) for k in range(n))
    gram = [
        [sum(count * cov(a, b, same, j == l) for same, count in sensor_pairs.items()) for l, b in features]
        for j, a in features
    ]
    target = [n * keep * one["X" + a] for _, a in features]
    return fields, gram, target


def reference_lattice_b_by_pairs(x_max):
    """`oracle._lattice_sums`' B before its sieve: every pair of precisions with a common factor, through math.fsum."""
    a = math.fsum((p * p - 1) / (p * p) for p in range(1, x_max + 1))
    pairs = ((2 - (p == q)) * (g * g - 1) / (p * p * q * q)
             for p in range(2, x_max + 1) for q in range(p, x_max + 1) if (g := math.gcd(p, q)) > 1)
    return math.fsum(itertools.chain((a * a,), pairs))


def reference_lattice_b(x_max):
    """B = A^2 + sum_{p,q} (gcd(p,q)^2 - 1)/(p^2 q^2) over precisions 1..x_max, as a Fraction, by its definition."""
    a = sum(Fraction(p * p - 1, p * p) for p in range(1, x_max + 1))
    return a * a + sum(Fraction(math.gcd(p, q) ** 2 - 1, p * p * q * q)
                       for p in range(1, x_max + 1) for q in range(1, x_max + 1))


def reference_population_scores(n, tau, x_max, coeffs):
    """Exact per-agent mse and per-pair cns of shared-coefficient fusers, from `reference_law_moments`, as Fractions.

    Each score is formed from the Gram and target as a quadratic form in the
    coefficients, read as the Fractions of their float values.
    """
    m = len(coeffs)
    fields, gram, target = reference_law_moments(n, m, tau, x_max)
    v = [(Fraction(c.eps[0]), Fraction(c.delta[0])) for c in coeffs]
    offset = [Fraction(c.gamma) + n * (e * fields["mean_l"] + d * fields["mean_u"]) for c, (e, d) in zip(coeffs, v)]

    def quad(j, k):
        return sum(v[j][a] * gram[2 * j + a][2 * k + b] * v[k][b] for a in range(2) for b in range(2))

    mse = [fields["var_x"] + fields["mean_x"] ** 2 + quad(j, j) + offset[j] ** 2
           - 2 * (e * target[2 * j] + d * target[2 * j + 1] + offset[j] * fields["mean_x"])
           for j, (e, d) in enumerate(v)]
    cns = [quad(j, j) + quad(k, k) - 2 * quad(j, k) + (offset[j] - offset[k]) ** 2
           for j, k in itertools.combinations(range(m), 2)]
    return mse, cns


def reference_delta_roots(xi1: float, xi2: float, xi3: float) -> tuple[float, ...]:
    """Real roots of xi1*d^2 + xi2*d + xi3 = 0 (stable two-root form)."""
    if xi1 == 0.0:
        if xi2 == 0.0:
            return (0.0,) if xi3 == 0.0 else ()
        return (-xi3 / xi2,)
    disc = xi2 * xi2 - 4.0 * xi1 * xi3
    if disc < 0.0:
        return ()
    root = math.sqrt(disc)
    q = -(xi2 + math.copysign(root, xi2)) / 2.0 if xi2 != 0.0 else root / 2.0
    if q == 0.0:
        return (0.0,)
    r1, r2 = q / xi1, xi3 / q
    return (r1,) if r1 == r2 else (r1, r2)


def reference_nelder_mead(f: Callable[..., float], x0: list[float]) -> tuple[tuple[float, ...], float]:
    """Minimize f(*x) over one or two coordinates from x0; returns the best vertex and its value.

    This is scipy.optimize.minimize(method="Nelder-Mead") with its default
    non-adaptive coefficients (reflection 1, expansion 2, contraction 0.5,
    shrink 0.5), its initial simplex (x0 plus 5% along each coordinate, or
    0.00025 where x0 is 0) and options xatol=1e-10, fatol=1e-12, maxiter=600,
    on Python floats.  Every step is written in scipy's arithmetic form and
    the vertices are re-sorted stably (nan last, as np.argsort does), so the
    iterates and the result equal scipy's bit for bit.  Vertices are (x, y)
    tuples; a one-coordinate search pins y at 0.0, which every step keeps.
    It stops early once an iteration leaves the sorted simplex and its values
    bit for bit as they were: the step is a deterministic function of that
    state and f is pure, so scipy would repeat it up to maxiter and return
    the same point and value.
    """
    n = len(x0)
    if n not in (1, 2):
        raise ValueError(f"_nelder_mead searches one or two coordinates, got {n}")
    g = f if n == 2 else lambda x, y: f(x)
    x, y = x0 if n == 2 else (x0[0], 0.0)
    sim = [(x, y), (1.05 * x if x != 0 else 0.00025, y), (x, 1.05 * y if y != 0 else 0.00025)][: n + 1]
    fsim = [g(*v) for v in sim]
    pack = struct.Struct(f"{3 * (n + 1)}d").pack
    state, iterations = None, 1
    while True:
        # stable insertion sort of the two or three vertices by value, nan last
        for i in range(1, n + 1):
            while i and (fsim[i] < fsim[i - 1] or fsim[i - 1] != fsim[i - 1] and fsim[i] == fsim[i]):
                sim[i - 1], sim[i], fsim[i - 1], fsim[i] = sim[i], sim[i - 1], fsim[i], fsim[i - 1]
                i -= 1
        (bx, by), (wx, wy) = sim[0], sim[-1]
        # bits, not ==: -0.0 and 0.0, or two nan payloads, are different states
        last, state = state, pack(*fsim, *[c for v in sim for c in v])
        if iterations >= 600 or state == last or (
            all(abs(vx - bx) <= 1e-10 and abs(vy - by) <= 1e-10 for vx, vy in sim[1:])
            and all(abs(fsim[0] - v) <= 1e-12 for v in fsim[1:])
        ):
            break
        # centroid of all but the worst vertex; np.add.reduce starts from +0.0,
        # which decides the sign of a zero centroid
        cx, cy = ((0.0 + bx + sim[1][0]) / 2, (0.0 + by + sim[1][1]) / 2) if n == 2 else ((0.0 + bx) / 1, 0.0)
        xr = (2 * cx - wx, 2 * cy - wy)
        fxr = g(*xr)
        shrink = False
        if fxr < fsim[0]:
            xe = (3 * cx - 2 * wx, 3 * cy - 2 * wy)
            fxe = g(*xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            # outside contraction when the reflection beats the worst vertex, else inside
            outside = fxr < fsim[-1]
            xc = ((1.5 * cx - 0.5 * wx, 1.5 * cy - 0.5 * wy) if outside
                  else (0.5 * cx + 0.5 * wx, 0.5 * cy + 0.5 * wy))
            fxc = g(*xc)
            shrink = not (fxc <= fxr if outside else fxc < fsim[-1])
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
        if shrink:
            for j in range(1, n + 1):
                sx, sy = sim[j]
                sim[j] = (bx + 0.5 * (sx - bx), by + 0.5 * (sy - by))
                fsim[j] = g(*sim[j])
        iterations += 1
    # scipy reports np.min over the sorted simplex: nan if any vertex is, and
    # on tied values it picks numpy's zero, which may differ from fsim[0] in sign
    return sim[0][:n], float(np.min(fsim))


def reference_recipe_kernel(moments, lam, n):
    """The recipe's evaluate(e1, e2) on moments at lam and n, as solve_linear_two_agent built it."""
    nn1 = n * (n - 1)
    xi1 = n * moments.var_u + nn1 * moments.cov_uu
    xi3 = n * moments.var_l + nn1 * moments.cov_ll
    kappa = n * moments.cov_lu_same + nn1 * moments.cov_lu_cross
    z_ll = moments.var_l + nn1 * moments.cov_ll
    z_uu = moments.var_u + nn1 * moments.cov_uu

    # loop invariants of evaluate, each computed as its expression there would
    four_xi13, coupling = 4.0 * xi1 * xi3, -(1.0 - lam)

    def evaluate(e1: float, e2: float):
        """Best (objective, delta pair, z) over real-root combinations, or a penalty."""
        roots1 = reference_delta_roots(xi1, 2.0 * e1 * kappa, xi3)
        roots2 = reference_delta_roots(xi1, 2.0 * e2 * kappa, xi3)
        if not roots1 or not roots2:
            gap1 = max(0.0, four_xi13 - (2.0 * e1 * kappa) ** 2)
            gap2 = max(0.0, four_xi13 - (2.0 * e2 * kappa) ** 2)
            return 1e12 + gap1 + gap2, None, None
        best = None
        z_excess = None
        e12 = e1 * e2
        for d1 in roots1:
            for d2 in roots2:
                z = coupling * (e12 * z_ll + d1 * d2 * z_uu + (e1 * d2 + e2 * d1) * kappa)
                if abs(z) >= 1.0:
                    excess = abs(z) - 1.0
                    z_excess = excess if z_excess is None else min(z_excess, excess)
                    continue
                th1 = n * (e1 * moments.cov_lx + d1 * moments.cov_ux)
                th2 = n * (e2 * moments.cov_lx + d2 * moments.cov_ux)
                one = 1.0 - z * z
                value = (th1 * th1 + th2 * th2) / one + 2.0 * z * (th1 + th2) ** 2 / (one * one)
                if best is None or value < best[0]:
                    best = (value, (d1, d2), z)
        if best is None:
            return 1e9 * (1.0 + z_excess), None, None
        return best

    return evaluate
