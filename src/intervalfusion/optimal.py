"""Moment estimation and accuracy/consensus-optimal linear fusers.

The tunable objective is L = lam * sum_j mse_j + (1-lam)/(m-1) * sum_pairs cns
with mse_j the squared error of agent j's estimate and cns the squared gap
between two agents' estimates, summed over unordered agent pairs.  It is
defined for any number m >= 2 of agents; m = 1 is refused, since the
consensus term has no pairs to count.  Given unit variance zero-mean
directions f_j, the optimal amplitudes solve a small linear system
(amplitude_solution), and fit_linear_empirical minimizes the empirical
objective exactly (one least-squares solve of the same quadratic system,
built from sample second moments of the fitting batch).  For two agents and
endpoint-sum directions there is also a closed-form moment recipe
(solve_linear_two_agent); it is implemented exactly as published even though
parts of it look inconsistent, so select_linear_coefficients cross-checks it
against the fit, which serves as the authority when they disagree.  The
recipe's coefficient search runs on a local Nelder-Mead (_nelder_mead) that
reproduces scipy's default non-adaptive method bit for bit, so the package
does not import scipy.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fusion import LinearCoefficients, linear_rows
from .metrics import _objective_per_trial
from .scenario import ScenarioParams, TrialBatch, sample_batch

__all__ = [
    "SingularSystemError",
    "InfeasibleSearchError",
    "MomentSet",
    "DirectionMoments",
    "AmplitudeSolution",
    "TwoAgentLinearSolution",
    "LinearFitResult",
    "LinearSelection",
    "estimate_moments",
    "amplitude_solution",
    "solve_linear_two_agent",
    "fit_linear_empirical",
    "empirical_objective",
    "select_linear_coefficients",
]

_COND_LIMIT = 1e10
_RECIPE_RESTARTS = 20


class SingularSystemError(ValueError):
    """The amplitude system is numerically singular for the given moments."""


class InfeasibleSearchError(RuntimeError):
    """No candidate in the coefficient search satisfied the feasibility constraints."""


@dataclass(frozen=True)
class MomentSet:
    """First and second moments of the target and one agent's endpoint vector.

    Cross-sensor entries (cov_ll, cov_uu, cov_lu_cross) refer to two distinct
    sensors at the same agent; sensors are exchangeable, so the estimates pool
    every sensor (or ordered sensor pair) before averaging over trials.
    """

    mean_x: float
    var_x: float
    mean_l: float
    mean_u: float
    var_l: float
    cov_ll: float
    var_u: float
    cov_uu: float
    cov_lu_same: float
    cov_lu_cross: float
    cov_lx: float
    cov_ux: float
    sample_count: int

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be positive, got {self.sample_count}")
        if self.var_x < 0 or self.var_l < 0 or self.var_u < 0:
            raise ValueError("variances must be nonnegative")


def estimate_moments(params: ScenarioParams, samples: int, rng: np.random.Generator) -> MomentSet:
    """Monte Carlo moment estimates from `samples` fresh trials (agent 1's view)."""
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples for stable moments, got {samples}")
    batch = sample_batch(params, samples, rng)
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

    # distinct-sensor products, pooled over the n*(n-1) ordered pairs per trial
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
        sample_count=samples,
    )


@dataclass(frozen=True)
class DirectionMoments:
    """Second moments of unit-variance zero-mean directions f_1..f_m.

    cross[j][k] = E[f_j f_k] (unit diagonal); target[j] = E[X f_j].
    """

    cross: np.ndarray
    target: np.ndarray

    def __post_init__(self) -> None:
        cross = np.asarray(self.cross, dtype=float)
        target = np.asarray(self.target, dtype=float)
        object.__setattr__(self, "cross", cross)
        object.__setattr__(self, "target", target)
        m = target.size
        if cross.shape != (m, m):
            raise ValueError(f"cross must be {m}x{m}, got {cross.shape}")
        if not np.allclose(cross, cross.T, atol=1e-12):
            raise ValueError("cross matrix must be symmetric")
        if not np.allclose(np.diag(cross), 1.0, atol=1e-9):
            raise ValueError("cross matrix must have unit diagonal")


@dataclass(frozen=True)
class AmplitudeSolution:
    """Optimal per-agent amplitudes c and intercepts b for fixed directions."""

    c: np.ndarray
    b: np.ndarray
    a_matrix: np.ndarray
    theta: np.ndarray
    objective_value: float


def amplitude_solution(dm: DirectionMoments, mean_x: float, lam: float) -> AmplitudeSolution:
    """Closed-form amplitudes for the accuracy/consensus objective.

    Solves A c = theta where A has unit diagonal and off-diagonal entries
    -(1-lam)/(m-1) * cross[j][k], and theta = lam * target.  The intercept is
    b_j = mean_x (the estimators are built on centered directions).  Raises
    SingularSystemError when A's condition number exceeds 1e10, and
    ValueError for fewer than two agents.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    m = dm.target.size
    if m < 2:
        raise ValueError(f"the objective is defined for m >= 2 agents, got m={m}")
    theta = lam * dm.target
    if lam == 1.0:
        # A is the identity and the answer exact
        a = np.eye(m)
        c = theta.copy()
    else:
        a = -(1.0 - lam) / (m - 1) * dm.cross
        np.fill_diagonal(a, 1.0)
        if not theta.any():
            c = np.zeros(m)
        else:
            cond = float(np.linalg.cond(a))
            if not np.isfinite(cond) or cond > _COND_LIMIT:
                raise SingularSystemError(
                    f"amplitude system is ill-conditioned (cond={cond:.3g}) at lam={lam}; "
                    f"cross matrix:\n{dm.cross}"
                )
            c = np.linalg.solve(a, theta)
    objective = float(theta @ np.linalg.solve(a @ a.T, theta)) if theta.any() else 0.0
    b = np.full(m, float(mean_x))
    return AmplitudeSolution(c=c, b=b, a_matrix=a, theta=theta, objective_value=objective)


@dataclass(frozen=True)
class TwoAgentLinearSolution:
    """Shared-coefficient linear fusers for two agents from the moment recipe.

    eps[j], delta[j] weight every sensor's lower/upper endpoint at agent j;
    gamma[j] = -n*(eps[j]*E[L] + delta[j]*E[U]) centers the estimate.  xi[j]
    holds the per-agent quadratic coefficients whose root produced delta[j];
    z is the coupling scalar and objective_value the searched objective at
    the returned point.
    """

    eps: tuple[float, float]
    delta: tuple[float, float]
    gamma: tuple[float, float]
    xi: tuple[tuple[float, float, float], tuple[float, float, float]]
    z: float
    objective_value: float

    def to_coefficients(self, n: int) -> tuple[LinearCoefficients, LinearCoefficients]:
        return tuple(
            LinearCoefficients(np.full(n, self.eps[j]), np.full(n, self.delta[j]), self.gamma[j])
            for j in range(2)
        )


def _delta_roots(xi1: float, xi2: float, xi3: float) -> tuple[float, ...]:
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


def _nelder_mead(f: Callable[..., float], x0: list[float]) -> tuple[list[float], float]:
    """Minimize f(*x) from x0; returns the best vertex and its value.

    This is scipy.optimize.minimize(method="Nelder-Mead") with its default
    non-adaptive coefficients (reflection 1, expansion 2, contraction 0.5,
    shrink 0.5), its initial simplex (x0 plus 5% along each coordinate, or
    0.00025 where x0 is 0) and options xatol=1e-10, fatol=1e-12, maxiter=600,
    on Python floats.  Every step is written in scipy's arithmetic form and
    the vertices are re-sorted stably (nan last, as np.argsort does), so the
    iterates and the result equal scipy's bit for bit.
    """
    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [f(*x) for x in sim]

    def by_value(i: int) -> tuple[bool, float]:
        return fsim[i] != fsim[i], fsim[i]

    iterations = 1
    while True:
        order = sorted(range(n + 1), key=by_value)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        best = sim[0]
        if iterations >= 600 or (
            all(abs(a - b) <= 1e-10 for x in sim[1:] for a, b in zip(x, best))
            and all(abs(fsim[0] - v) <= 1e-12 for v in fsim[1:])
        ):
            break
        worst = sim[-1]
        # np.add.reduce starts from +0.0, which decides the sign of a zero centroid
        xbar = [functools.reduce(operator.add, c, 0.0) / n for c in zip(*sim[:-1])]
        xr = [2 * b - w for b, w in zip(xbar, worst)]
        fxr = f(*xr)
        shrink = False
        if fxr < fsim[0]:
            xe = [3 * b - 2 * w for b, w in zip(xbar, worst)]
            fxe = f(*xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = [1.5 * b - 0.5 * w for b, w in zip(xbar, worst)]
            fxc = f(*xc)
            shrink = not fxc <= fxr
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
        else:
            xcc = [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)]
            fxcc = f(*xcc)
            shrink = not fxcc < fsim[-1]
            if not shrink:
                sim[-1], fsim[-1] = xcc, fxcc
        if shrink:
            for j in range(1, n + 1):
                sim[j] = [s0 + 0.5 * (s - s0) for s0, s in zip(best, sim[j])]
                fsim[j] = f(*sim[j])
        iterations += 1
    # scipy reports np.min over the simplex, which is nan if any vertex is
    return best, fsim[0] if fsim[-1] == fsim[-1] else math.nan


def _recipe_search(objective: Callable[[float, float], float], starts: list[list[float]]) -> list[float] | None:
    """Nelder-Mead from every start, then a polish along the diagonal; the best point."""
    best_point = None
    best_value = math.inf
    for start in starts:
        x, fun = _nelder_mead(objective, start)
        if fun < best_value:
            best_value, best_point = fun, x

    # symmetric polish: the objective is invariant under swapping agents, so
    # prefer a diagonal solution whenever it is at least as good
    if best_point is not None:
        # np.mean, not (a + b) / 2: it starts from +0.0 too
        mid = float(np.mean(best_point))
        (e,), fun = _nelder_mead(lambda e: objective(e, e), [mid])
        if fun <= best_value * (1.0 + 1e-9) + 1e-12:
            best_point = [e, e]
    return best_point


def solve_linear_two_agent(
    moments: MomentSet,
    lam: float,
    n: int,
) -> TwoAgentLinearSolution:
    """Two-agent coefficient recipe from pooled moments, implemented literally.

    For each candidate (eps_1, eps_2) the per-agent delta is a real root of
    xi1*d^2 + 2*eps*kappa*d + xi3 = 0 with
        xi1 = n*Var(U1) + n*(n-1)*Cov(U1,U2),
        kappa = n*Cov(L1,U1) + n*(n-1)*Cov(L1,U2),
        xi3 = n*Var(L1) + n*(n-1)*Cov(L1,L2),
    the coupling is
        z = -(1-lam) * (eps1*eps2*(Var(L1)+n*(n-1)*Cov(L1,L2))
                        + delta1*delta2*(Var(U1)+n*(n-1)*Cov(U1,U2))
                        + (eps1*delta2+eps2*delta1)*kappa),
    and the searched objective is
        (th1^2 + th2^2)/(1-z^2) + 2*z*(th1+th2)^2/(1-z^2)^2,
    th_j = n*eps_j*Cov(L1,X) + n*delta_j*Cov(U1,X), minimized by Nelder-Mead
    restarts: _RECIPE_RESTARTS starts drawn from default_rng(0) in a box of
    half-width 1/sqrt(n*Var(L1)), plus seeds at the root-feasibility
    boundary, then a 1-D polish along eps_1 = eps_2.  |z| >= 1 leaves the
    objective undefined, so such candidates are rejected with a graded
    penalty.  The search engine is the local _nelder_mead, which reproduces
    scipy.optimize.minimize's default non-adaptive Nelder-Mead (xatol 1e-10,
    fatol 1e-12, maxiter 600) bit for bit.

    This recipe is kept verbatim; on realistic moments its objective can be
    unbounded below near the |z| = 1 wall, which makes the returned point a
    search artifact.  Always validate the result with fit_linear_empirical
    (see select_linear_coefficients) before using it.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1) for the two-agent recipe, got {lam}")
    if n < 2:
        raise ValueError(f"need n >= 2 sensors, got {n}")

    nn1 = n * (n - 1)
    xi1 = n * moments.var_u + nn1 * moments.cov_uu
    xi3 = n * moments.var_l + nn1 * moments.cov_ll
    kappa = n * moments.cov_lu_same + nn1 * moments.cov_lu_cross
    z_ll = moments.var_l + nn1 * moments.cov_ll
    z_uu = moments.var_u + nn1 * moments.cov_uu

    degenerate = max(abs(xi1), abs(xi3), abs(kappa), abs(moments.cov_lx), abs(moments.cov_ux)) < 1e-12
    if degenerate:
        gamma = -n * (0.0 * moments.mean_l + 0.0 * moments.mean_u)
        return TwoAgentLinearSolution(
            eps=(0.0, 0.0),
            delta=(0.0, 0.0),
            gamma=(gamma, gamma),
            xi=((xi1, 0.0, xi3), (xi1, 0.0, xi3)),
            z=0.0,
            objective_value=0.0,
        )

    def evaluate(e1: float, e2: float):
        """Best (objective, delta pair, z) over real-root combinations, or a penalty."""
        roots1 = _delta_roots(xi1, 2.0 * e1 * kappa, xi3)
        roots2 = _delta_roots(xi1, 2.0 * e2 * kappa, xi3)
        if not roots1 or not roots2:
            gap1 = max(0.0, 4.0 * xi1 * xi3 - (2.0 * e1 * kappa) ** 2)
            gap2 = max(0.0, 4.0 * xi1 * xi3 - (2.0 * e2 * kappa) ** 2)
            return 1e12 + gap1 + gap2, None, None
        best = None
        z_excess = None
        for d1 in roots1:
            for d2 in roots2:
                z = -(1.0 - lam) * (e1 * e2 * z_ll + d1 * d2 * z_uu + (e1 * d2 + e2 * d1) * kappa)
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

    box = 1.0 / np.sqrt(n * moments.var_l + 1e-12)
    starts = [np.zeros(2), np.full(2, box / 2.0), np.full(2, -box / 2.0)]
    starts += list(np.random.default_rng(0).uniform(-box, box, size=(_RECIPE_RESTARTS, 2)))
    if kappa != 0.0 and xi1 * xi3 > 0.0:
        with np.errstate(over="ignore"):
            edge = 1.02 * np.sqrt(xi1 * xi3) / abs(kappa)
        # at tiny kappa the boundary lies beyond float range: no start there
        if np.isfinite(edge):
            for s1 in (1.0, -1.0):
                for s2 in (1.0, -1.0):
                    starts.append(np.array([s1 * edge, s2 * edge]))

    def objective(e1: float, e2: float) -> float:
        return evaluate(e1, e2)[0]

    best_point = _recipe_search(objective, [start.tolist() for start in starts])

    e1, e2 = best_point
    value, deltas, z = evaluate(e1, e2)
    if deltas is None:
        with np.errstate(over="ignore"):
            least_eps = np.sqrt(max(xi1 * xi3, 0.0)) / abs(kappa) if kappa else np.inf
        raise InfeasibleSearchError(
            f"no feasible (eps, delta) candidate at lam={lam}: search box half-width {box:.4g}, "
            f"root feasibility requires |eps| >= {least_eps:.4g}, "
            f"xi1={xi1:.4g}, xi3={xi3:.4g}, kappa={kappa:.4g}"
        )
    d1, d2 = deltas
    gamma = tuple(-n * (e * moments.mean_l + d * moments.mean_u) for e, d in ((e1, d1), (e2, d2)))
    return TwoAgentLinearSolution(
        eps=(e1, e2),
        delta=(d1, d2),
        gamma=(gamma[0], gamma[1]),
        xi=((xi1, 2.0 * e1 * kappa, xi3), (xi1, 2.0 * e2 * kappa, xi3)),
        z=float(z),
        objective_value=float(value),
    )


def empirical_objective(
    batch: TrialBatch,
    coeffs: tuple[LinearCoefficients, ...],
    lam: float,
) -> float:
    """Empirical accuracy/consensus objective of per-agent linear fusers on a batch."""
    m = batch.lo.shape[2]
    if len(coeffs) != m:
        raise ValueError(f"need one coefficient set per agent ({m}), got {len(coeffs)}")
    est = np.stack([linear_rows(batch.lo[:, :, j], batch.hi[:, :, j], coeffs[j]) for j in range(m)], axis=1)
    j, k = np.triu_indices(m, 1)
    sq_err = ((batch.x[:, None] - est) ** 2).T
    gap_sq = ((est[:, j] - est[:, k]) ** 2).T
    return float(_objective_per_trial(sq_err, gap_sq, lam).mean())


@dataclass(frozen=True)
class LinearFitResult:
    """Exact least-squares shared-coefficient linear fusers, one per agent."""

    coeffs: tuple[LinearCoefficients, ...]
    eps: tuple[float, ...]
    delta: tuple[float, ...]
    gamma: tuple[float, ...]
    objective_value: float
    sample_count: int


def fit_linear_empirical(
    params: ScenarioParams,
    lam: float,
    samples: int,
    rng: np.random.Generator,
) -> LinearFitResult:
    """Minimize the empirical objective over (eps_j, delta_j) exactly.

    Coefficients are shared across sensors within an agent, and each agent's
    intercept is tied to the fitting batch's endpoint means:
    gamma_j = -n*(eps_j*mean(L) + delta_j*mean(U)).  Agent j's estimate is
    then v_j . F_j with F_j = (sum L_j - n*mean(L), sum U_j - n*mean(U)), and
    the objective is the quadratic v^T Q v - 2 b^T v + const in
    v = (eps_1, delta_1, ..., eps_m, delta_m): Q has diagonal blocks
    E[F_j F_j^T] (lam from agent j's mse plus 1-lam from its m-1 gaps) and
    off-diagonal blocks -(1-lam)/(m-1) * E[F_j F_k^T], and b_j = lam * E[X F_j]
    (amplitude_solution's system with two features per agent).  Q is positive
    semidefinite, so the minimum-norm least-squares solution of Q v = b is a
    global minimizer, also when Q is singular (lam=0, single-cell scenarios).
    objective_value is the in-sample objective.  Needs m >= 2: at m = 1 the
    diagonal would count 1-lam of gap terms that do not exist.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    if params.m < 2:
        raise ValueError(f"the shared-coefficient fit is defined for m >= 2 agents, got m={params.m}")
    if samples < 10_000:
        raise ValueError(f"need at least 10000 samples for a stable fit, got {samples}")
    batch = sample_batch(params, samples, rng)
    n, m = params.n, params.m
    mean_l = float(batch.lo[:, :, 0].mean())
    mean_u = float(batch.hi[:, :, 0].mean())

    # columns (F_1L, F_1U, ..., F_mL, F_mU), matching the layout of v
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
    coeffs = tuple(
        LinearCoefficients(np.full(n, eps[j]), np.full(n, delta[j]), float(gamma[j])) for j in range(m)
    )
    return LinearFitResult(
        coeffs=coeffs,
        eps=tuple(float(e) for e in eps),
        delta=tuple(float(d) for d in delta),
        gamma=tuple(float(g) for g in gamma),
        objective_value=empirical_objective(batch, coeffs, lam),
        sample_count=samples,
    )


@dataclass(frozen=True)
class LinearSelection:
    """Outcome of cross-validating the moment recipe against the exact empirical fit."""

    coeffs: tuple[LinearCoefficients, ...]
    closed_form_used: bool
    closed_form_objective: float | None
    empirical_objective: float
    closed_form_error: str | None


def select_linear_coefficients(
    params: ScenarioParams,
    lam: float,
    samples: int,
    rng: np.random.Generator,
) -> LinearSelection:
    """Fit linear fusers and pick the moment-recipe solution only when it holds up.

    The two-agent recipe runs only at m=2, from a moment batch drawn before
    the fit's batch; at any other m no moment batch is drawn and
    closed_form_error names the reason.  Both candidate coefficient sets are
    scored on a common validation batch, drawn last; the closed-form recipe
    is selected when its objective is within 5% of the empirical fit's,
    otherwise the empirical fit is returned and the substitution is
    recorded.  Recipe failures (infeasible search, overflow) are caught and
    recorded the same way.
    """
    moments = estimate_moments(params, samples, rng) if params.m == 2 else None
    fit = fit_linear_empirical(params, lam, samples, rng)
    closed_coeffs = None
    error = f"the closed-form recipe is defined for m=2 agents, got m={params.m}"
    if moments is not None:
        try:
            closed_coeffs = solve_linear_two_agent(moments, lam, params.n).to_coefficients(params.n)
            error = None
        except (InfeasibleSearchError, ValueError) as exc:
            error = str(exc)
        except OverflowError as exc:
            # the recipe's objective squares Python floats, which raises on extreme moments
            error = f"the closed-form recipe overflowed: {exc}"

    validation = sample_batch(params, samples, rng)
    fit_objective = empirical_objective(validation, fit.coeffs, lam)
    closed_objective = None if closed_coeffs is None else empirical_objective(validation, closed_coeffs, lam)
    used = closed_objective is not None and closed_objective <= 1.05 * fit_objective
    return LinearSelection(
        coeffs=closed_coeffs if used else fit.coeffs,
        closed_form_used=used,
        closed_form_objective=closed_objective,
        empirical_objective=fit_objective,
        closed_form_error=error,
    )
