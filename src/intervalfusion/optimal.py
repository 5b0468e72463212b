"""Moment estimation and accuracy/consensus-optimal linear fusers.

The tunable objective is L = lam * sum_j mse_j + (1-lam)/(m-1) * sum_pairs cns
with mse_j the squared error of agent j's estimate and cns the squared gap
between two agents' estimates, summed over unordered agent pairs.  It is
defined for any number m >= 2 of agents; m = 1 is refused, since the
consensus term has no pairs to count.  Given unit variance zero-mean
directions f_j, the optimal amplitudes solve a small linear system
(amplitude_solution).  With the endpoint sums as each agent's two
features, the same quadratic system (_quadratic_system builds it for both)
gives the shared-coefficient linear fusers: fit_linear_empirical solves it
on the sample moments of a fitting batch.  On the exact law the law's
symmetries reduce its minimizer to one scalar per (tau, lambda), and
fit_linear_exact returns that scalar in closed form, from the two sums over
the precision lattice that oracle.law_moments is built from too
(oracle._lattice_sums, cached, so a process forms them once per x_max), in
Python ints and floats: no linear solve, no BLAS call, the same bits on
every host.  For two agents there is also a closed-form moment recipe
(solve_linear_two_agent); it is implemented exactly as published even
though parts of it look inconsistent, so a selection cross-checks it
against the fit, which serves as the authority when they disagree.
select_linear_exact, which the fit-linear command runs, feeds the recipe
the law's exact MomentSet (oracle.law_moments) and scores both candidates
on the exact population objective, whose Gram blocks population_scores
forms from that same MomentSet, all in Python floats, so its output
follows no BLAS or SIMD kernel either;
select_linear_coefficients is its sampled view, drawing moment, fitting and
validation batches from a random stream and scoring on the validation batch
with metrics.empirical_objective.  Sweeps take fit_linear_exact alone: the
recipe's candidates share coefficients across sensors, the family the fit
minimizes over, so they can at best tie it.  The recipe's coefficient
search runs on a local Nelder-Mead (_nelder_mead) that reproduces scipy's
default non-adaptive method bit for bit, so the package does not import
scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fusion import LinearCoefficients
from .metrics import _check_lam, _objective_per_trial, empirical_objective
from .oracle import MomentSet, _lattice_sums, law_moments
from .scenario import ScenarioParams, sample_batch

__all__ = [
    "SingularSystemError",
    "InfeasibleSearchError",
    "DirectionMoments",
    "AmplitudeSolution",
    "TwoAgentLinearSolution",
    "LinearSelection",
    "estimate_moments",
    "amplitude_solution",
    "solve_linear_two_agent",
    "fit_linear_exact",
    "fit_linear_empirical",
    "population_scores",
    "select_linear_exact",
    "select_linear_coefficients",
]

_COND_LIMIT = 1e10
_RECIPE_RESTARTS = 20


class SingularSystemError(ValueError):
    """The amplitude system is numerically singular for the given moments."""


class InfeasibleSearchError(RuntimeError):
    """No candidate in the coefficient search satisfied the feasibility constraints."""


def estimate_moments(params: ScenarioParams, samples: int, rng: np.random.Generator) -> MomentSet:
    """Monte Carlo moment estimates from `samples` fresh trials (agent 1's view).

    The sampled view of the exact MomentSet of oracle.law_moments.
    """
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

    ll, uu, lu = L * L, U * U, L * U
    e_l2 = float(ll.mean())
    e_u2 = float(uu.mean())
    e_lu = float(lu.mean())
    e_lx = float((L * X[:, None]).mean())
    e_ux = float((U * X[:, None]).mean())

    # distinct-sensor products, pooled over the n*(n-1) ordered pairs per trial
    sl = L.sum(axis=1)
    su = U.sum(axis=1)
    pairs = n * (n - 1)
    e_ll_cross = float(((sl * sl - ll.sum(axis=1)) / pairs).mean()) if n > 1 else e_l2
    e_uu_cross = float(((su * su - uu.sum(axis=1)) / pairs).mean()) if n > 1 else e_u2
    e_lu_cross = float(((sl * su - lu.sum(axis=1)) / pairs).mean()) if n > 1 else e_lu

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
        if not (np.isfinite(cross).all() and np.isfinite(target).all()):
            raise ValueError("cross and target must be finite")
        if not np.allclose(cross, cross.T, atol=1e-12):
            raise ValueError("cross matrix must be symmetric")
        if not np.allclose(np.diag(cross), 1.0, atol=1e-9):
            raise ValueError("cross matrix must have unit diagonal")


@dataclass(frozen=True)
class AmplitudeSolution:
    """Optimal per-agent amplitudes c and intercepts b for fixed directions.

    a_matrix is the amplitude system A of `amplitude_solution` (unit
    diagonal, off-diagonal -(1-lam)/(m-1) * cross[j][k]) and theta its right
    side lam * target; c solves A c = theta, and b holds every agent's
    intercept mean_x.  objective_value is theta^T (A A^T)^-1 theta, which
    equals c @ c; it is not the accuracy/consensus objective at c.
    """

    c: np.ndarray
    b: np.ndarray
    a_matrix: np.ndarray
    theta: np.ndarray
    objective_value: float


def _quadratic_system(gram: np.ndarray, target: np.ndarray, lam: float, per_agent: int,
                      count: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The objective lam*sum mse + (1-lam)/(m-1)*sum cns as Q v = b, from feature moments.

    gram[i, k] = E[F_i F_k] and target[i] = E[X F_i] over every agent's
    features, per_agent consecutive ones per agent, given as sums over count
    samples (count 1 for moments that are already means).  Q has diagonal
    blocks E[F_j F_j^T] (lam from agent j's mse plus 1-lam from its m-1 gaps)
    and off-diagonal blocks -(1-lam)/(m-1) * E[F_j F_k^T], and b_j =
    lam * E[X F_j]; the objective of estimates v_j . F_j is
    v^T Q v - 2 b^T v + lam * m * E[X^2].  Needs m >= 2.
    """
    m = target.size // per_agent
    gram = gram / count
    agent = np.arange(target.size) // per_agent
    q = np.where(agent[:, None] == agent[None, :], gram, -(1.0 - lam) / (m - 1) * gram)
    return q, lam * target / count


def amplitude_solution(dm: DirectionMoments, mean_x: float, lam: float) -> AmplitudeSolution:
    """Closed-form amplitudes for the accuracy/consensus objective.

    Solves A c = theta where A has unit diagonal and off-diagonal entries
    -(1-lam)/(m-1) * cross[j][k], and theta = lam * target.  The intercept is
    b_j = mean_x (the estimators are built on centered directions).  Raises
    SingularSystemError when A's condition number exceeds 1e10, and
    ValueError for fewer than two agents.
    """
    _check_lam(lam)
    m = dm.target.size
    if m < 2:
        raise ValueError(f"the objective is defined for m >= 2 agents, got m={m}")
    a, theta = _quadratic_system(dm.cross, dm.target, lam, per_agent=1)
    np.fill_diagonal(a, 1.0)  # unit-variance directions
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


def _shared_coefficients(eps, delta, gamma, n: int) -> tuple[LinearCoefficients, ...]:
    """Agent j's shared eps[j], delta[j], gamma[j] as coefficients over its n sensors."""
    return tuple(LinearCoefficients(np.full(n, e), np.full(n, d), float(g))
                 for e, d, g in zip(eps, delta, gamma))


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
        return _shared_coefficients(self.eps, self.delta, self.gamma, n)


def _nelder_mead(f: Callable[..., float], x0: list[float]) -> tuple[tuple[float, ...], float]:
    """Minimize f(*x) over one or two coordinates from x0; returns the best vertex and its value.

    This is scipy.optimize.minimize(method="Nelder-Mead") with its default
    non-adaptive coefficients (reflection 1, expansion 2, contraction 0.5,
    shrink 0.5), its initial simplex (x0 plus 5% along each coordinate, or
    0.00025 where x0 is 0) and options xatol=1e-10, fatol=1e-12, maxiter=600,
    on Python floats.  Every step is written in scipy's arithmetic form and
    the vertices are re-sorted stably (nan last, as np.argsort does), so f
    sees scipy's points in scipy's order and the result equals scipy's bit
    for bit.  The simplex is held as its best vertex b, middle vertex m and
    worst vertex w, each (x, y, value); a one-coordinate search pins y at
    0.0, which every step keeps, and has no middle vertex: m is b there, as
    scipy's second-worst vertex is its best.
    It stops early once an iteration leaves the sorted simplex and its values
    == to what they were; scipy would return the same point and value.
    Every step but a shrink puts a point of lower value in place of w, so
    that iteration was a shrink, and it changed no coordinate but the sign
    of a zero: a shrink turns the zero coordinates of m and w beside a zero
    of b into +0.0.  In such a coordinate the centroid is +0.0 or infinite,
    so the next iteration visits every point with the bits this one did; f
    being pure, it repeats the shrink bit for bit, as scipy would up to
    maxiter.  So when a zero did change sign, the stop comes one iteration
    before a comparison of bits would make it.  A fresh nan is never == to
    anything, so a state holding one runs on, at scipy's cost.
    """
    n = len(x0)
    if n not in (1, 2):
        raise ValueError(f"_nelder_mead searches one or two coordinates, got {n}")
    two = n == 2
    g = f if two else lambda x, y: f(x)
    # scipy's initial simplex: x0, then x0 with x and, at two coordinates, y moved
    bx, by = x0 if two else (x0[0], 0.0)
    wx, wy = 1.05 * bx if bx != 0 else 0.00025, by
    fb, fw = g(bx, by), g(wx, wy)
    if two:
        mx, my, fm = wx, wy, fw
        wx, wy = bx, 1.05 * by if by != 0 else 0.00025
        fw = g(wx, wy)
    state, iterations, shrunk = None, 1, True
    while True:
        # stable insertion sort by value, nan last; a step that kept b and m
        # leaves only w to place
        if two:
            if shrunk and (fm < fb or fb != fb and fm == fm):
                bx, by, fb, mx, my, fm = mx, my, fm, bx, by, fb
            if fw < fm or fm != fm and fw == fw:
                mx, my, fm, wx, wy, fw = wx, wy, fw, mx, my, fm
                if fm < fb or fb != fb and fm == fm:
                    bx, by, fb, mx, my, fm = mx, my, fm, bx, by, fb
        else:
            if fw < fb or fb != fb and fw == fw:
                bx, by, fb, wx, wy, fw = wx, wy, fw, bx, by, fb
            mx, my, fm = bx, by, fb
        last, state = state, (fb, fm, fw, bx, by, mx, my, wx, wy)
        if iterations >= 600 or (
            abs(mx - bx) <= 1e-10 and abs(my - by) <= 1e-10 and abs(wx - bx) <= 1e-10 and abs(wy - by) <= 1e-10
            and abs(fb - fm) <= 1e-12 and abs(fb - fw) <= 1e-12
        ) or state == last:
            break
        # centroid of b and m; np.add.reduce starts from +0.0, which decides
        # the sign of a zero centroid
        if two:
            cx, cy = (0.0 + bx + mx) / 2, (0.0 + by + my) / 2
        else:
            cx, cy = (0.0 + bx) / 1, 0.0
        rx, ry = 2 * cx - wx, 2 * cy - wy
        fr = g(rx, ry)
        shrunk = False
        if fr < fb:
            ex, ey = 3 * cx - 2 * wx, 3 * cy - 2 * wy
            fe = g(ex, ey)
            if fe < fr:
                wx, wy, fw = ex, ey, fe
            else:
                wx, wy, fw = rx, ry, fr
        elif fr < fm:
            wx, wy, fw = rx, ry, fr
        elif fr < fw:
            # outside contraction: the reflection beats w
            kx, ky = 1.5 * cx - 0.5 * wx, 1.5 * cy - 0.5 * wy
            fk = g(kx, ky)
            if fk <= fr:
                wx, wy, fw = kx, ky, fk
            else:
                shrunk = True
        else:
            kx, ky = 0.5 * cx + 0.5 * wx, 0.5 * cy + 0.5 * wy
            fk = g(kx, ky)
            if fk < fw:
                wx, wy, fw = kx, ky, fk
            else:
                shrunk = True
        if shrunk:
            if two:
                mx, my = bx + 0.5 * (mx - bx), by + 0.5 * (my - by)
                fm = g(mx, my)
            wx, wy = bx + 0.5 * (wx - bx), by + 0.5 * (wy - by)
            fw = g(wx, wy)
        iterations += 1
    # scipy reports np.min over the sorted simplex: nan if any vertex is, and
    # on tied values it picks numpy's zero, which may differ from fb in sign
    return (bx, by) if two else (bx,), float(np.min([fb, fm, fw] if two else [fb, fw]))


def _recipe_search(objective: Callable[[float, float], float], starts: list[list[float]]) -> tuple[float, ...] | None:
    """Nelder-Mead from every start, then a polish along the diagonal; the best point.

    A search that reaches an exact fixed point stops there with scipy's result.
    None when no search ends below +inf.
    """
    best_point, best_value = None, math.inf
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
            best_point = (e, e)
    return best_point


def _recipe_kernel(moments: MomentSet, lam: float,
                   n: int) -> tuple[float, float, float, Callable[[float, float], tuple]]:
    """The recipe's quadratic coefficients xi1, xi3, kappa and its kernel evaluate(e1, e2).

    evaluate returns the best (objective, delta pair, z) over the real-root
    combinations of the two agents, or (penalty, None, None) when an agent
    has no real root or every combination has |z| >= 1.
    """
    nn1 = n * (n - 1)
    xi1 = n * moments.var_u + nn1 * moments.cov_uu
    xi3 = n * moments.var_l + nn1 * moments.cov_ll
    kappa = n * moments.cov_lu_same + nn1 * moments.cov_lu_cross
    z_ll = moments.var_l + nn1 * moments.cov_ll
    z_uu = moments.var_u + nn1 * moments.cov_uu
    cov_lx, cov_ux = moments.cov_lx, moments.cov_ux
    # loop invariants of evaluate, each computed as its expression there would
    four_xi13, coupling = 4.0 * xi1 * xi3, -(1.0 - lam)
    sqrt, copysign = math.sqrt, math.copysign

    def roots(xi2: float) -> tuple[float, ...]:
        # the real roots of xi1*d^2 + xi2*d + xi3 = 0, in the stable two-root form
        if xi1 == 0.0:
            if xi2 == 0.0:
                return (0.0,) if xi3 == 0.0 else ()
            return (-xi3 / xi2,)
        disc = xi2 * xi2 - four_xi13
        if disc < 0.0:
            return ()
        root = sqrt(disc)
        q = -(xi2 + copysign(root, xi2)) / 2.0 if xi2 != 0.0 else root / 2.0
        if q == 0.0:
            return (0.0,)
        r1, r2 = q / xi1, xi3 / q
        return (r1,) if r1 == r2 else (r1, r2)

    def evaluate(e1: float, e2: float):
        # each agent's deltas are the roots at xi2 = 2*e*kappa; the penalty
        # reads no root, so the second agent's are skipped when the first has none
        xi2_1, xi2_2 = 2.0 * e1 * kappa, 2.0 * e2 * kappa
        roots1 = roots(xi2_1)
        roots2 = roots(xi2_2) if roots1 else ()
        if not roots2:
            gap1 = max(0.0, four_xi13 - xi2_1 ** 2)
            gap2 = max(0.0, four_xi13 - xi2_2 ** 2)
            return 1e12 + gap1 + gap2, None, None
        best = z_excess = None
        e12_ll = e1 * e2 * z_ll
        lx1, lx2 = e1 * cov_lx, e2 * cov_lx
        for d1 in roots1:
            th1 = n * (lx1 + d1 * cov_ux)
            for d2 in roots2:
                z = coupling * (e12_ll + d1 * d2 * z_uu + (e1 * d2 + e2 * d1) * kappa)
                if abs(z) >= 1.0:
                    excess = abs(z) - 1.0
                    if z_excess is None or excess < z_excess:
                        z_excess = excess
                    continue
                th2 = n * (lx2 + d2 * cov_ux)
                one = 1.0 - z * z
                value = (th1 * th1 + th2 * th2) / one + 2.0 * z * (th1 + th2) ** 2 / (one * one)
                if best is None or value < best[0]:
                    best = (value, (d1, d2), z)
        if best is None:
            return 1e9 * (1.0 + z_excess), None, None
        return best

    return xi1, xi3, kappa, evaluate


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
    penalty.  One kernel (_recipe_kernel) scores the searched points and the
    returned one.  The search engine is the local _nelder_mead, which
    reproduces scipy.optimize.minimize's default non-adaptive Nelder-Mead
    (xatol 1e-10, fatol 1e-12, maxiter 600) bit for bit, point by point; a
    search stops early only at an exact fixed point (most do, collapsed
    against the |z| = 1 wall), whose result scipy's run to maxiter would
    only repeat.  On the exact moments of the README study (n=10, tau=3,
    x_max=5), as fit-linear runs it, a run is 27 searches and the polish,
    9,100-9,700 objective calls.

    Raises InfeasibleSearchError when the best point found is a penalty, and
    when no search ends below +inf (moments so large that every candidate
    scores an infinite penalty).

    This recipe is kept verbatim; on realistic moments its objective can be
    unbounded below near the |z| = 1 wall, which makes the returned point a
    search artifact.  Always validate the result against fit_linear_exact on
    the exact population objective (population_scores), as
    select_linear_exact does, before using it.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1) for the two-agent recipe, got {lam}")
    if n < 2:
        raise ValueError(f"need n >= 2 sensors, got {n}")

    xi1, xi3, kappa, evaluate = _recipe_kernel(moments, lam, n)

    degenerate = max(abs(xi1), abs(xi3), abs(kappa), abs(moments.cov_lx), abs(moments.cov_ux)) < 1e-12
    if degenerate:
        gamma = -n * (0.0 * moments.mean_l + 0.0 * moments.mean_u)
        return TwoAgentLinearSolution(eps=(0.0, 0.0), delta=(0.0, 0.0), gamma=(gamma, gamma),
                                      xi=((xi1, 0.0, xi3), (xi1, 0.0, xi3)), z=0.0, objective_value=0.0)

    box = 1.0 / np.sqrt(n * moments.var_l + 1e-12)
    starts = [np.zeros(2), np.full(2, box / 2.0), np.full(2, -box / 2.0)]
    starts += list(np.random.default_rng(0).uniform(-box, box, size=(_RECIPE_RESTARTS, 2)))
    if kappa != 0.0 and xi1 * xi3 > 0.0:
        with np.errstate(over="ignore"):
            edge = 1.02 * np.sqrt(xi1 * xi3) / abs(kappa)
        # at tiny kappa the boundary lies beyond float range: no start there
        if np.isfinite(edge):
            starts += [np.array([s1 * edge, s2 * edge]) for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)]

    def objective(e1: float, e2: float) -> float:
        return evaluate(e1, e2)[0]

    best_point = _recipe_search(objective, [start.tolist() for start in starts])
    if best_point is None:
        raise InfeasibleSearchError(
            f"no start reached a finite objective at lam={lam}: every search ended at inf or nan, "
            f"xi1={xi1:.4g}, xi3={xi3:.4g}, kappa={kappa:.4g}"
        )

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
    return TwoAgentLinearSolution(eps=(e1, e2), delta=(d1, d2), gamma=(gamma[0], gamma[1]),
                                  xi=((xi1, 2.0 * e1 * kappa, xi3), (xi1, 2.0 * e2 * kappa, xi3)),
                                  z=float(z), objective_value=float(value))


def _check_fit(params: ScenarioParams, lam: float) -> None:
    _check_lam(lam)
    if params.m < 2:
        raise ValueError(f"the shared-coefficient fit is defined for m >= 2 agents, got m={params.m}")


def fit_linear_exact(params: ScenarioParams, lam: float) -> tuple[LinearCoefficients, ...]:
    """Minimize the exact population objective over (eps_j, delta_j); returns one fuser per agent.

    Coefficients are shared across sensors within an agent, with intercept
    gamma_j = -n*(eps_j*E[L] + delta_j*E[U]).  The law has two symmetries:
    agents are exchangeable, and x -> -x maps (L, U, X) to (-U, -L, -X), so
    E[L] = -E[U] and the minimizer is eps_j = delta_j = c, gamma_j = 0 for
    every agent.  With S_j agent j's sum of every endpoint, the objective
    m*(lam*E[(c S - X)^2] + (1-lam)*c^2*(E[S^2] - E[S_1 S_2])) gives
        c = lam*E[X S] / (E[S^2] - (1-lam)*E[S_1 S_2])
          = lam*keep*x_max*A / (2*(x_max*A*(1 - (1-lam)*keep) + lam*t2*B)),
    keep = (n-tau)/n, t2 = (n-tau)(n-tau-1)/n and A, B from _lattice_sums;
    c does not depend on m.  Where the denominator is 0 (x_max = 1, where
    every reading is the whole range, or lam = 0 at tau = 0, where the
    agents' readings coincide), c = 0, the minimum-norm minimizer that a
    least-squares solve returns.  The value is formed from Python ints and
    floats only, so its bits do not depend on the host's BLAS or SIMD
    kernels.  No trial is drawn.  The lattice sums take time x_max^2 the
    first time an x_max is fitted and are cached, so a sweep or a
    fit-linear run forms them once per x_max.  Needs m >= 2: at m = 1 the
    consensus term has no pairs.
    """
    _check_fit(params, lam)
    n, m, tau, x_max = params.n, params.m, params.tau, params.x_max
    a, b = _lattice_sums(x_max)
    keep = (n - tau) / n
    t2 = (n - tau) * (n - tau - 1) / n
    den = x_max * a * (1.0 - (1.0 - lam) * keep) + lam * t2 * b
    c = lam * keep * x_max * a / (2.0 * den) if den else 0.0
    # gamma is the intercept formula's -n * (c*E[L] + c*E[U]) = -n * +0.0,
    # which is -0.0, the recipe's value at its degenerate point: a tie with
    # the recipe (x_max = 1) keeps these bits
    return _shared_coefficients([c] * m, [c] * m, [-0.0] * m, n)


def fit_linear_empirical(
    params: ScenarioParams,
    lam: float,
    samples: int,
    rng: np.random.Generator,
) -> tuple[LinearCoefficients, ...]:
    """Minimize the empirical objective over (eps_j, delta_j) exactly; returns one fuser per agent.

    The sampled view of fit_linear_exact: the quadratic system is built from
    the second moments of a fresh batch of `samples` trials, and each agent's
    intercept is tied to the batch's endpoint means:
    gamma_j = -n*(eps_j*mean(L) + delta_j*mean(U)).  Needs m >= 2.
    """
    _check_fit(params, lam)
    if samples < 10_000:
        raise ValueError(f"need at least 10000 samples for a stable fit, got {samples}")
    batch = sample_batch(params, samples, rng)
    n, m = params.n, params.m
    mean_l = float(batch.lo[:, :, 0].mean())
    mean_u = float(batch.hi[:, :, 0].mean())

    # columns (F_1L, F_1U, ..., F_mL, F_mU), matching the layout of v; at m >= 2
    # numpy sums the sensor axis, not the innermost, in index order
    feats = np.stack(
        [batch.lo.sum(axis=1) - n * mean_l, batch.hi.sum(axis=1) - n * mean_u], axis=2
    ).reshape(samples, 2 * m)
    q, b = _quadratic_system(feats.T @ feats, feats.T @ batch.x, lam, per_agent=2, count=samples)
    # Q is positive semidefinite, so the minimum-norm least-squares solution of
    # Q v = b is a global minimizer, also when Q is singular (lam=0, single-cell
    # scenarios)
    v = np.linalg.lstsq(q, b, rcond=None)[0]
    eps, delta = v[0::2], v[1::2]
    return _shared_coefficients(eps, delta, -n * (eps * mean_l + delta * mean_u), n)


def population_scores(params: ScenarioParams,
                      coeffs: tuple[LinearCoefficients, ...]) -> tuple[list[float], list[float]]:
    """Exact per-agent mse and per-pair cns of shared-coefficient linear fusers under the law at params.

    Agent j's estimate is v_j . F_j + c_j with v_j = (eps_j, delta_j), F_j
    its centered endpoint-sum features and c_j = gamma_j +
    n*(eps_j*E[L] + delta_j*E[U]), so with G_jk = E[F_j F_k^T]
        mse_j  = E[X^2] - 2*(v_j . E[X F_j] + c_j*E[X]) + v_j^T G_jj v_j + c_j^2,
        cns_jk = E[(v_j . F_j - v_k . F_k)^2] + (c_j - c_k)^2.
    The 2x2 blocks come from law_moments(params): one sensor's readings at
    two agents are one reading when it is truthful (probability keep =
    (n-tau)/n) and independent when faulty, and two distinct sensors covary
    alike at one agent or at two, so with same = [[var_l, cov_lu_same],
    [cov_lu_same, var_u]] and pair = [[cov_ll, cov_lu_cross], [cov_lu_cross,
    cov_uu]], G_jj = n*same + n(n-1)*pair, G_jk = keep*(n*same) +
    n(n-1)*pair for j != k, and E[X F_j] = (n*cov_lx, n*cov_ux).  Pairs come
    in np.triu_indices order, as `evaluate` reports them.  Every agent's
    coefficients must be shared across its sensors.  The scores are Python
    floats, formed with no matrix product, so their bits follow no BLAS or
    SIMD kernel.  Estimates too large for floats score inf or nan instead of
    raising.
    """
    n, m = params.n, params.m
    if len(coeffs) != m:
        raise ValueError(f"need one coefficient set per agent ({m}), got {len(coeffs)}")
    if any((c.eps != c.eps[0]).any() or (c.delta != c.delta[0]).any() for c in coeffs):
        raise ValueError("population scores need coefficients shared across each agent's sensors")
    mo = law_moments(params)
    nn1 = n * (n - 1)
    # (LL, LU, UU) of G_jk, indexed by j == k; scaling by 1.0 changes no bit
    blocks = [(s * (n * mo.var_l) + nn1 * mo.cov_ll, s * (n * mo.cov_lu_same) + nn1 * mo.cov_lu_cross,
               s * (n * mo.var_u) + nn1 * mo.cov_uu) for s in ((n - params.tau) / n, 1.0)]
    v = [(float(c.eps[0]), float(c.delta[0])) for c in coeffs]
    offset = [float(c.gamma) + n * (e * mo.mean_l + d * mo.mean_u) for c, (e, d) in zip(coeffs, v)]

    def quad(j: int, k: int) -> float:
        # v_j^T G_jk v_k
        (ej, dj), (ek, dk) = v[j], v[k]
        ll, lu, uu = blocks[j == k]
        return ej * (ll * ek + lu * dk) + dj * (lu * ek + uu * dk)

    # Python floats overflow to inf and nan silently; squares are x * x, as ** raises
    mse = [mo.var_x + mo.mean_x * mo.mean_x
           - 2.0 * (e * (n * mo.cov_lx) + d * (n * mo.cov_ux) + offset[j] * mo.mean_x)
           + quad(j, j) + offset[j] * offset[j] for j, (e, d) in enumerate(v)]
    cns = [quad(j, j) + quad(k, k) - 2.0 * quad(j, k) + (offset[j] - offset[k]) * (offset[j] - offset[k])
           for j, k in itertools.combinations(range(m), 2)]
    return mse, cns


@dataclass(frozen=True)
class LinearSelection:
    """Outcome of cross-validating the moment recipe against the fit.

    empirical_objective is the fit's objective and closed_form_objective the
    recipe's: exact population values from select_linear_exact, means over
    the validation batch from select_linear_coefficients.
    """

    coeffs: tuple[LinearCoefficients, ...]
    closed_form_used: bool
    closed_form_objective: float | None
    empirical_objective: float
    closed_form_error: str | None


def _select(
    params: ScenarioParams,
    lam: float,
    moments: MomentSet | None,
    fit: tuple[LinearCoefficients, ...],
    score: Callable[[tuple[LinearCoefficients, ...]], float],
) -> LinearSelection:
    """Run the recipe on moments at m=2 and keep it only when it scores within 5% of the fit.

    At any other m the recipe does not run, moments is not read and
    closed_form_error names the reason.  Recipe failures (infeasible search,
    overflow) are caught and recorded the same way.
    """
    closed_coeffs = None
    error = f"the closed-form recipe is defined for m=2 agents, got m={params.m}"
    if params.m == 2:
        try:
            closed_coeffs = solve_linear_two_agent(moments, lam, params.n).to_coefficients(params.n)
            error = None
        except (InfeasibleSearchError, ValueError) as exc:
            error = str(exc)
        except OverflowError as exc:
            # the recipe's objective squares Python floats, which raises on extreme moments
            error = f"the closed-form recipe overflowed: {exc}"

    fit_objective = score(fit)
    closed_objective = None if closed_coeffs is None else score(closed_coeffs)
    used = closed_objective is not None and closed_objective <= 1.05 * fit_objective
    return LinearSelection(
        coeffs=closed_coeffs if used else fit,
        closed_form_used=used,
        closed_form_objective=closed_objective,
        empirical_objective=fit_objective,
        closed_form_error=error,
    )


def select_linear_exact(params: ScenarioParams, lam: float) -> LinearSelection:
    """Fit linear fusers on the exact law and pick the moment recipe's only when it holds up.

    The recipe runs on law_moments(params), the law's exact MomentSet (at
    m=2), the fit is fit_linear_exact, and both candidates are scored on
    the exact population objective (population_scores); the recipe is
    selected when its objective is within 5% of the fit's, otherwise the
    fit is returned and the substitution recorded.  No trial is drawn, so
    the result depends on params only through n, m, tau and x_max.
    """
    _check_fit(params, lam)

    def score(coeffs: tuple[LinearCoefficients, ...]) -> float:
        mse, cns = population_scores(params, coeffs)
        return float(_objective_per_trial(np.array(mse)[:, None], np.array(cns)[:, None], lam)[0])

    return _select(params, lam, law_moments(params), fit_linear_exact(params, lam), score)


def select_linear_coefficients(
    params: ScenarioParams,
    lam: float,
    samples: int,
    rng: np.random.Generator,
) -> LinearSelection:
    """The sampled view of select_linear_exact: moments, fit and scores from batches of rng.

    At m=2 the recipe runs on a moment batch drawn first; at any other m no
    moment batch is drawn.  The fit is fit_linear_empirical on the next
    batch, and both candidates are scored with empirical_objective on a
    common validation batch, drawn last.  The 5% rule and the recorded
    failures are select_linear_exact's.
    """
    moments = estimate_moments(params, samples, rng) if params.m == 2 else None
    fit = fit_linear_empirical(params, lam, samples, rng)
    validation = sample_batch(params, samples, rng)
    return _select(params, lam, moments, fit, lambda coeffs: empirical_objective(validation, coeffs, lam))
