"""Convex programs for error-probability-optimal receive beamforming.

Three programs over the lifted real weight vector w_bar in R^{2N}, on one
feasible set: ||w|| <= 1 and the 2^(K-1) tuple rows with every interferer
at a peak symbol nonnegative. Every tuple lies in the box the peak tuples
span and each row is affine in the tuple, so these rows cut out the set of
all tuple rows; their minimum is the reduced margin.

* MPE_FULL, MPE_REDUCED -- minimize the exact Q-sum error probability, one
                           Q term per interferer tuple (the paper's full
                           and simplified programs, one program here).
* SMINR_AMP             -- maximize the amplitude SMINR.

Every solve starts from the feasibility phase: the maximum reduced margin
over the unit ball, computed exactly as a bounded-variable least-squares
problem (BVLS) together with a duality-gap certificate. It alone solves
SMINR_AMP; an instance without a positive margin is INFEASIBLE and gets no
weights.

None of the rows, the feasibility phase or the MPE optimum depends on the
kind, and only the optimum on sigma_z, so ``beamformers._memoized`` keeps
them for their channel: the rows and the maximizer read-only, and each
report gets its own copy of the weights.

The MPE optimum lies on the unit sphere, where the feasible set is cut out
by the homogeneous peak rows G w >= 0. The MPE programs are solved there by
a sphere SQP from the maximum-margin point: each iteration takes the exact
Riemannian Newton model in an orthonormal tangent basis and its plain
Newton step when that step keeps every linearized peak row; otherwise it
minimizes the model subject to those rows as a least-distance problem
solved as NNLS, which handles active and degenerate (tied) rows. It then
backtracks along the normalizing retraction. One pass over the tuple rows
at a point gives the objective, the gradient and the Hessian row weights;
the SQP keeps those of the accepted point for its next model. It is the
one MPE solve path: ``solve(start=...)`` only runs it from another point.

The package's one active-set solver, ``_bvls``, is Stark & Parker's BVLS
(Computational Statistics 10, 1995) with given bounds: [-1, 1] for the
feasibility phase, and [0, inf) for the NNLS problems (Lawson & Hanson,
Solving Least Squares Problems, 1974, ch. 23) of the SQP and the KKT test.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.special import erfc

from .beamformers import _memoized, _norm, lift_channel, unlift_weights
from .modem import enumerate_interferers

MPE_FULL = "MPE_FULL"
MPE_REDUCED = "MPE_REDUCED"
SMINR_AMP = "SMINR_AMP"

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
MAX_ITER = "MAX_ITER"

TOL_FEAS = 1e-9
TOL_KKT = 1e-6
MAX_FULL_TUPLES = 10**6

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)
_SQP_MAX_ITER = 50


@dataclass
class ConvexProgram:
    """One beamforming program instance for a single user.

    Holds the lifted data shared by objective, gradient, and constraints:
    the self direction ``a`` (d sqrt(E_g) htilde_k), the peak interferer
    directions ``U`` (rows s_j(L_j) htilde_j), the tuple rows
    ``G_objective`` of the MPE objective, and the peak rows
    ``G_constraints`` selected from them. They are the same for every kind
    and noise level, so they are built once per channel and user and are
    read-only.
    """

    kind: str
    H: np.ndarray
    user: int
    constellations: tuple
    sigma_z: float
    a: np.ndarray = field(init=False)
    U: np.ndarray = field(init=False)
    G_objective: np.ndarray = field(init=False)
    G_constraints: np.ndarray = field(init=False)
    prefactor: float = field(init=False)

    def __post_init__(self):
        if self.kind not in (MPE_FULL, MPE_REDUCED, SMINR_AMP):
            raise ValueError(f"unknown program kind {self.kind!r}")
        if not self.sigma_z > 0:  # also refuses nan
            raise ValueError("sigma_z must be positive")
        k = self.user
        # every kind holds one row per tuple: count them before enumerating
        count = math.prod(c.order for j, c in enumerate(self.constellations) if j != k)
        if count > MAX_FULL_TUPLES:
            raise ValueError(f"{count} interferer tuples exceed the cap of {MAX_FULL_TUPLES}")
        tuple_set = enumerate_interferers(self.constellations, k)
        self.a, self.U, self.G_objective, self.G_constraints, self.prefactor = _memoized(
            self.H, ("program", k, tuple(self.constellations)),
            lambda: _geometry(self.H, k, self.constellations, tuple_set))

    @property
    def dimension(self) -> int:
        return 2 * self.H.shape[0]

    @property
    def noise_scale(self) -> float:
        return self.sigma_z / math.sqrt(2.0)

    def reduced_margin(self, w_bar: np.ndarray) -> float:
        """Self term minus the worst-case coherent interference at w_bar."""
        return float(w_bar @ self.a) - float(np.abs(self.U @ w_bar).sum())


def _geometry(H, k, constellations, tuple_set):
    """(a, U, G_objective, G_constraints, prefactor) of user k on channel H,
    the same for every noise level and kind, with read-only arrays."""
    lifted = lift_channel(H)
    a = constellations[k].step * lifted[:, k]
    # row j: htilde of the j-th interferer
    cross = lifted[:, list(tuple_set.users)].T
    U = tuple_set.peaks[:, None] * cross
    # rows: a - sum_j sbar_b[j] htilde_j, one per interferer tuple
    G_objective = a[None, :] - tuple_set.tuples @ cross
    # the 2^(K-1) rows with every interferer at a peak symbol
    G_constraints = G_objective[tuple_set.peak_rows]
    for array in (a, U, G_objective, G_constraints):
        array.setflags(write=False)
    L = constellations[k].order
    return a, U, G_objective, G_constraints, 2.0 * (L - 1) / (L * G_objective.shape[0])


class Feasibility(NamedTuple):
    """Certified maximum of the reduced margin over the unit ball.

    ``margin`` is ||g*||, the exact maximum; ``w_bar`` is the read-only unit
    maximizer g*/||g*||, or None when ``margin`` < ``TOL_FEAS``; ``gap`` is
    |margin - reduced_margin(w_bar)|, zero up to rounding at an exact BVLS
    solution (nan without a maximizer).
    """

    margin: float
    w_bar: np.ndarray
    gap: float
    iterations: int


@dataclass
class SolveReport:
    """Outcome of ``solve``; ``weights`` is None for an INFEASIBLE instance."""

    weights: np.ndarray
    objective_value: float
    margin: float
    status: str
    iterations: int
    kkt_residual: float
    feasibility: Feasibility


def objective_and_gradient(program: ConvexProgram, w_bar: np.ndarray):
    """MPE objective value and exact gradient at the lifted point w_bar.

    The objective is the fixed-denominator Q-sum error probability. SMINR_AMP
    has no smooth objective (``solve`` takes its value from the feasibility
    phase) and is refused with ``ValueError``.
    """
    if program.kind == SMINR_AMP:
        raise ValueError("SMINR_AMP has no smooth objective")
    value, grad, _ = _mpe_evaluate(program, np.asarray(w_bar, dtype=float))
    return value, grad


def _mpe_evaluate(program: ConvexProgram, w_bar: np.ndarray):
    """MPE objective f, gradient g and Hessian row weights from one G w pass.

    The Hessian is G' diag(weights) G with weights = args phi(args) p / sbar^2,
    where args = G w / sbar, p is the prefactor and sbar the noise scale.
    """
    G, scale, prefactor = program.G_objective, program.noise_scale, program.prefactor
    args = (G @ w_bar) / scale
    phi = np.exp(-0.5 * args**2) / _SQRT_2PI
    value = prefactor * float((0.5 * erfc(args / math.sqrt(2.0))).sum())
    grad = -(prefactor / scale) * (phi @ G)
    weights = args * phi * (prefactor / scale**2)
    return value, grad, weights


def _maximize_margin(program: ConvexProgram) -> Feasibility:
    """Maximum of a . w - sum_j |u_j . w| over ||w|| <= 1, by bounded least squares.

    By the minimax theorem the maximum equals min over t in [-1, 1]^(K-1) of
    ||a - U^T t||, the distance from the origin to the zonotope spanned by
    the peak interferer directions around a (Stark & Parker, Bounded-Variable
    Least-Squares, 1995). With g* = a - U^T t* the maximizer is g*/||g*||.
    """
    a, U = program.a, program.U
    t, iterations = _bvls(U.T, a, -1.0, 1.0)
    g = a - U.T @ t
    margin = _norm(g)
    if margin < TOL_FEAS:
        return Feasibility(margin, None, float("nan"), iterations)
    w_bar = g / margin
    w_bar.setflags(write=False)
    return Feasibility(margin, w_bar, abs(margin - program.reduced_margin(w_bar)), iterations)


def _bvls(B: np.ndarray, a: np.ndarray, lower: float, upper: float):
    """argmin ||a - B t|| over lower <= t <= upper, by Stark & Parker's BVLS.

    The scalar bounds satisfy lower <= 0 < upper; either may be infinite.
    The method starts from t = 0, each variable free unless 0 is a bound: on
    [-1, 1] all start free, and on [0, inf) all start fixed, which makes it
    Lawson & Hanson's NNLS (1974, ch. 23). The inner loop solves the
    least-squares problem in the free variables, the others fixed at their
    bounds (in closed form for the first variable freed from t = 0), and
    steps towards its solution until a free variable reaches a bound, where
    it is fixed. The outer loop frees the fixed variable whose descent
    direction points furthest into the bounds, and stops when none does
    (the KKT conditions) or after 3m iterations. Returns (t, iterations).
    Non-finite input, or squared norms that overflow, raise ValueError.
    """
    tol = 10.0 * _EPS * max(B.shape) * math.sqrt(np.vdot(B, B) * (a @ a))
    if not math.isfinite(tol):  # as it is when an entry is NaN or infinite
        raise ValueError("BVLS input must be finite")
    m = B.shape[1]
    n_free = m if lower < 0.0 < upper else 0
    # +1 fixed at lower, -1 at upper, 0 free: side * B'r is the pull into the bounds
    side = np.zeros(m) if n_free else np.ones(m)
    t, r = np.zeros(m), a  # r is the residual a - B t: a itself until t first moves
    j = None  # the variable freed last
    for iteration in range(1, 3 * m + 1):
        while n_free:  # each pass that does not end it fixes a variable
            z = t.copy()
            if j is not None and r is a:
                # j, freed from the all-fixed t = 0, is alone free; pull B_j'a > tol, so B_j != 0
                column = B[:, j]
                z[j] = pull[j] / (column @ column)
                outside = [] if lower <= z[j] <= upper else [j]
            else:
                free = side == 0.0
                z[free] = np.linalg.lstsq(B[:, free], a - B[:, ~free] @ t[~free], rcond=None)[0]
                outside = np.flatnonzero((z < lower) | (z > upper))
            if not len(outside):
                if n_free == m:
                    return z, iteration
                t, r = z, a - B @ z
                break
            bounds = np.where(z[outside] > upper, upper, lower)
            ratios = (bounds - t[outside]) / (z[outside] - t[outside])
            i = ratios.argmin()
            t += ratios[i] * (z - t)
            k = outside[i]
            t[k], side[k] = bounds[i], (1.0 if bounds[i] == lower else -1.0)
            n_free, r = n_free - 1, a - B @ t
        pull = side * (r @ B)
        j = pull.argmax()
        if not pull[j] > tol:
            return t, iteration
        side[j], n_free = 0.0, n_free + 1
    return t, 3 * m


def random_feasible_start(program: ConvexProgram, rng: np.random.Generator, w_feas):
    """Random unit vector with strictly positive reduced margin.

    Blends a random direction toward ``w_feas``, the lifted maximum-margin
    point, until the margin is positive. Used for solver-uniqueness checks.
    """
    for _ in range(64):
        v = rng.standard_normal(program.dimension)
        v /= np.linalg.norm(v)
        for alpha in (1.0, 0.5, 0.25, 0.1, 0.03, 0.01):
            cand = alpha * v + (1.0 - alpha) * w_feas
            cand /= np.linalg.norm(cand)
            if program.reduced_margin(cand) > TOL_FEAS:
                return cand
    return w_feas


def _sphere_sqp(program: ConvexProgram, w0: np.ndarray):
    """Minimize an MPE objective over the feasible part of the unit sphere.

    Sequential quadratic programming on the sphere. Each step d minimizes
    the Riemannian Newton model 1/2 d'Bd + g'Zd (Absil, Mahony & Sepulchre,
    2008), where Z is an orthonormal basis of the tangent space at w and
    B = Z' hess(f) Z - (g.w) I, subject to the linearized peak rows
    G (w + Zd) >= 0. On the feasible set hess(f) is positive semidefinite
    and g.w < 0, so B is positive definite. The step is the Newton step
    d = -B^-1 Z'g, one linear solve, when G (w + Zd) >= 0 holds on every
    peak row. Otherwise, with B = LL', it is the least-distance problem
    min ||y|| over E y >= E h - G w with y = L'd + h, h = L^-1 Z'g and
    E = G Z L^-T, an NNLS problem (Lawson & Hanson, 1974, ch. 23) solved by
    ``_bvls`` on [0, inf); its u = 0 test is the same row test. Z' hess(f) Z
    is formed as (G_obj Z)' diag(weights) (G_obj Z) from the tuple rows and
    the Hessian weights of the current point. The rows are homogeneous, so
    every point of the retraction
    (w + aZd)/||w + aZd|| with a in [0, 1] is feasible; an Armijo backtrack
    picks a. The loop stops when the predicted or the realized decrease
    reaches the rounding level of f, or after ``_SQP_MAX_ITER`` steps.

    Returns (w, f, g, trace) with one (iteration, objective, point) trace
    row per accepted step. An objective or gradient that has underflowed to
    zero leaves the start point as it is.
    """
    G_obj, G = program.G_objective, program.G_constraints
    n = w0.size
    w = w0 / _norm(w0)
    f, g, weights = _mpe_evaluate(program, w)
    eye = np.eye(n)
    trace = []
    for iteration in range(1, _SQP_MAX_ITER + 1):
        gw = float(g @ w)
        if not (f > 0.0 and gw < 0.0):
            break
        # the Householder reflector taking w to -+e_0; its other columns span w-perp
        v = w.copy()
        v[0] += math.copysign(1.0, w[0])
        Z = eye[:, 1:] - v[:, None] * v[1:] * (2.0 / (v @ v))
        GZ = G_obj @ Z
        # B and Z'g scaled by 1/|g.w|, which leaves the step unchanged
        B = (GZ.T * (weights / -gw)) @ GZ + eye[1:, 1:]
        q = Z.T @ g / -gw
        step = Z @ np.linalg.solve(B, -q)
        # the Newton step, unless it leaves a linearized peak row (or reads NaN)
        if not (G @ (w + step)).min() >= 0.0:
            # B >= I, so ||L^-1|| <= 1 and products with L^-1 are as accurate
            # as triangular solves; _bvls refuses h and E' if not finite
            L_inv = np.linalg.inv(np.linalg.cholesky(B))
            h = L_inv @ q
            Et = L_inv @ (G @ Z).T
            A = np.vstack([Et, h @ Et - G @ w])
            r = A @ _bvls(A, eye[-1], 0.0, math.inf)[0] - eye[-1]
            if not r[-1] < 0.0:
                break
            step = Z @ (L_inv.T @ (-r[:-1] / r[-1] - h))
        slope = float(g @ step)
        if not -slope > _EPS * f:
            break
        alpha = 1.0
        for _ in range(40):
            cand = w + alpha * step
            cand /= math.sqrt(cand @ cand)
            f_cand, g_cand, weights_cand = _mpe_evaluate(program, cand)
            if f_cand <= f + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            break
        converged = f - f_cand <= 16.0 * _EPS * f
        w, f, g, weights = cand, f_cand, g_cand, weights_cand
        trace.append((iteration, f, w))
        if converged:
            break
    return w, f, g, trace


def _kkt_residual(program: ConvexProgram, w_bar: np.ndarray, grad: np.ndarray) -> float:
    """Distance of -grad from the cone spanned by the active peak-row normals
    and, on the sphere, the sphere normal, or the largest peak-row violation
    if that is larger: a point off the feasible set is not certified. The
    distance is the residual of ``_bvls`` on [0, inf), an NNLS problem."""
    columns = [-2.0 * w_bar] if _norm(w_bar) >= 1.0 - 1e-7 else []
    margins = program.G_constraints @ w_bar
    violation = max(0.0, -float(margins.min()))
    columns.extend(program.G_constraints[margins <= 1e-7])
    if not columns:
        return max(_norm(grad), violation)
    A = np.stack(columns, axis=1)
    r = A @ _bvls(A, grad, 0.0, math.inf)[0] - grad
    return max(math.sqrt(r @ r), violation)


def solve(program: ConvexProgram, start: np.ndarray = None) -> SolveReport:
    """Solve one convex beamforming program.

    Runs the feasibility phase first, once per channel, user and
    constellations: later programs of that channel share its result. An
    instance whose maximum reduced margin falls below ``TOL_FEAS`` is
    reported INFEASIBLE (error-floor regime) with no weights, a nan KKT
    residual and the certified maximum as ``margin``; the caller decides on
    a fallback. SMINR_AMP is solved by the feasibility phase itself and
    reports its duality gap as ``kkt_residual``. The MPE programs run
    ``_sphere_sqp`` on the peak rows from the maximum-margin point;
    ``iterations`` counts its steps and ``kkt_residual`` is certified
    against the same rows. The two MPE kinds are one program, so that solve
    runs once per channel, user, constellations and sigma_z: a later call of
    the same kind gets a copy of its report, and one of the other kind a
    copy with 0 iterations, since it took no step; only the last sigma_z's
    solve is kept. ``start`` optionally replaces the maximum-margin point
    as the SQP's first point with a lifted one, and bypasses that sharing.
    """
    key = (program.user, tuple(program.constellations))
    feas = _memoized(program.H, ("feasibility", *key), lambda: _maximize_margin(program))
    if feas.w_bar is None:
        return SolveReport(None, float("nan"), feas.margin, INFEASIBLE,
                           feas.iterations, float("nan"), feas)

    if program.kind == SMINR_AMP:
        margin = program.reduced_margin(feas.w_bar)
        status = OPTIMAL if feas.gap <= TOL_KKT else MAX_ITER
        return SolveReport(unlift_weights(feas.w_bar), margin / program.noise_scale,
                           margin, status, feas.iterations, feas.gap, feas)

    if start is not None:
        return _solve_mpe(program, feas, np.asarray(start, dtype=float))
    kind, report = _memoized(program.H, ("mpe", *key),
                             lambda: (program.kind, _solve_mpe(program, feas, feas.w_bar)),
                             level=program.sigma_z)
    return replace(report, weights=report.weights.copy(),
                   iterations=report.iterations if kind == program.kind else 0)


def _solve_mpe(program: ConvexProgram, feas: Feasibility, w0: np.ndarray) -> SolveReport:
    """The MPE report of ``solve``: the sphere SQP from w0, certified."""
    w_bar, value, grad, trace = _sphere_sqp(program, w0)
    kkt = _kkt_residual(program, w_bar, grad)
    return SolveReport(
        weights=unlift_weights(w_bar),
        objective_value=value,
        margin=program.reduced_margin(w_bar),
        status=OPTIMAL if kkt <= TOL_KKT else MAX_ITER,
        iterations=len(trace),
        kkt_residual=kkt,
        feasibility=feas,
    )
