"""Convex programs for error-probability-optimal receive beamforming.

Three programs over the lifted real weight vector w_bar in R^{2N}:

* MPE_FULL     -- minimize the exact Q-sum error probability subject to
                  ||w|| <= 1 and one nonnegativity constraint per interferer
                  tuple.
* MPE_REDUCED  -- same objective and feasible set, constrained only by the
                  2^(K-1) tuple rows with every interferer at a peak symbol
                  (jointly equivalent to the single absolute-value margin
                  constraint).
* SMINR_AMP    -- maximize the amplitude SMINR over the same feasible set.

All programs are solved on the lifted real vector where every quantity is a
function of Re{w h_j} and ||w||. Every solve starts from the feasibility
phase: the maximum reduced margin over the unit ball, computed exactly as a
bounded-variable least-squares problem (BVLS) together with a duality-gap
certificate. It depends only on the channel, the user and the
constellations, so callers may compute it once and share it across noise
levels and program kinds. It alone solves SMINR_AMP; an instance without a
positive margin is INFEASIBLE and gets no weights.

The MPE optimum lies on the unit sphere, where the feasible set is cut out
by the homogeneous rows G w >= 0. The MPE programs are solved there by a
sphere SQP from the maximum-margin point: each iteration takes the exact
Riemannian Newton model in an orthonormal tangent basis, minimizes it
subject to the linearized margin rows as a least-distance problem solved by
NNLS, which handles active and degenerate (tied) rows, and backtracks along
the normalizing retraction. One pass over the tuple rows at a point gives
the objective, the gradient and the Hessian row weights; the SQP keeps
those of the accepted point for its next model. The two MPE programs have
the same optimum, so a caller that solves both at one noise level can
start the second from the first's optimum (``solve(start=...)``); its SQP
then stops at the first model check, and its KKT residual is still
certified against its own rows.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import erfc

from .beamformers import lift_channel, unlift_weights
from .modem import enumerate_interferers

# scipy.optimize is imported inside the functions that call it, so a run of
# closed-form beamformers alone never loads it

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

    Precomputes the lifted data shared by objective, gradient, and
    constraints: the self direction ``a`` (d sqrt(E_g) htilde_k), the peak
    interferer directions ``U`` (rows s_j(L_j) htilde_j), and the per-tuple
    constraint matrix ``G`` appropriate for ``kind``.
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
        if self.sigma_z <= 0:
            raise ValueError("sigma_z must be positive")
        k = self.user
        # every kind holds one row per tuple: count them before enumerating
        count = math.prod(c.order for j, c in enumerate(self.constellations) if j != k)
        if count > MAX_FULL_TUPLES:
            raise ValueError(f"{count} interferer tuples exceed the cap of {MAX_FULL_TUPLES}")
        lifted = lift_channel(self.H)
        self.a = self.constellations[k].step * lifted[:, k]
        tuple_set = enumerate_interferers(self.constellations, k)
        others = list(tuple_set.users)
        self.U = tuple_set.peaks[:, None] * lifted[:, others].T

        # rows: a - sum_j sbar_b[j] htilde_j, one per interferer tuple
        self.G_objective = self.a[None, :] - tuple_set.tuples @ lifted[:, others].T
        if self.kind == MPE_FULL:
            self.G_constraints = self.G_objective
        else:
            # the 2^(K-1) rows with every interferer at a peak symbol; their
            # minimum is the reduced margin
            extreme = np.all(np.abs(tuple_set.tuples) == tuple_set.peaks, axis=1)
            self.G_constraints = self.G_objective[extreme]
        L = self.constellations[k].order
        self.prefactor = 2.0 * (L - 1) / (L * self.G_objective.shape[0])

    @property
    def dimension(self) -> int:
        return 2 * self.H.shape[0]

    @property
    def noise_scale(self) -> float:
        return self.sigma_z / math.sqrt(2.0)

    def reduced_margin(self, w_bar: np.ndarray) -> float:
        """Self term minus the worst-case coherent interference at w_bar."""
        return float(w_bar @ self.a) - float(np.sum(np.abs(self.U @ w_bar)))


class Feasibility(NamedTuple):
    """Certified maximum of the reduced margin over the unit ball.

    ``margin`` is ||g*||, the exact maximum; ``w_bar`` is the unit maximizer
    g*/||g*||, or None when ``margin`` < ``TOL_FEAS``; ``gap`` is
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
    args = (program.G_objective @ w_bar) / program.noise_scale
    phi = np.exp(-0.5 * args**2) / _SQRT_2PI
    value = program.prefactor * float(np.sum(0.5 * erfc(args / math.sqrt(2.0))))
    grad = -(program.prefactor / program.noise_scale) * (phi @ program.G_objective)
    weights = args * phi * (program.prefactor / program.noise_scale**2)
    return value, grad, weights


def _maximize_margin(program: ConvexProgram) -> Feasibility:
    """Maximum of a . w - sum_j |u_j . w| over ||w|| <= 1, by bounded least squares.

    By the minimax theorem the maximum equals min over t in [-1, 1]^(K-1) of
    ||a - U^T t||, the distance from the origin to the zonotope spanned by
    the peak interferer directions around a (Stark & Parker, Bounded-Variable
    Least-Squares, 1995). With g* = a - U^T t* the maximizer is g*/||g*||.
    """
    from scipy.optimize import lsq_linear

    a, U = program.a, program.U
    if U.shape[0]:
        res = lsq_linear(U.T, a, bounds=(-1.0, 1.0), method="bvls")
        g, iterations = a - U.T @ res.x, int(res.nit)
    else:
        g, iterations = a, 0
    margin = float(np.linalg.norm(g))
    if margin < TOL_FEAS:
        return Feasibility(margin, None, float("nan"), iterations)
    w_bar = g / margin
    return Feasibility(margin, w_bar, abs(margin - program.reduced_margin(w_bar)), iterations)


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
    B = Z' hess(f) Z - (g.w) I, subject to the linearized margin rows
    G (w + Zd) >= 0. On the feasible set hess(f) is positive semidefinite
    and g.w < 0, so B = LL' is positive definite and the step is the
    least-distance problem min ||y|| over E y >= E h - G w with y = L'd + h,
    h = L^-1 Z'g and E = G Z L^-T, solved by NNLS (Lawson & Hanson, 1974,
    ch. 23). Z' hess(f) Z is formed as (G Z)' diag(weights) (G Z) from the
    Hessian weights of the current point. The rows are homogeneous, so every
    point of the retraction (w + aZd)/||w + aZd|| with a in [0, 1] is
    feasible; an Armijo backtrack picks a. The loop stops when the predicted
    or the realized decrease reaches the rounding level of f, or after
    ``_SQP_MAX_ITER`` steps.

    Returns (w, f, g, trace) with one (iteration, objective, point) trace
    row per accepted step. An objective or gradient that has underflowed to
    zero leaves the start point as it is.
    """
    from scipy.optimize import nnls

    G_obj, G = program.G_objective, program.G_constraints
    n = w0.size
    w = w0 / np.linalg.norm(w0)
    f, g, weights = _mpe_evaluate(program, w)
    e = np.zeros(n)
    e[-1] = 1.0
    trace = []
    for iteration in range(1, _SQP_MAX_ITER + 1):
        gw = float(g @ w)
        if not (f > 0.0 and gw < 0.0):
            break
        # the Householder reflector taking w to -+e_0; its other columns span w-perp
        v = w.copy()
        v[0] += math.copysign(1.0, w[0])
        Z = np.eye(n)[:, 1:] - np.outer(v, v[1:]) * (2.0 / (v @ v))
        GZ = G_obj @ Z
        GcZ = GZ if G is G_obj else G @ Z
        # B and Z'g scaled by 1/|g.w|, which leaves the step unchanged
        B = (GZ.T * (weights / -gw)) @ GZ + np.eye(n - 1)
        # B >= I, so ||L^-1|| <= 1 and products with L^-1 are as accurate as
        # triangular solves; nnls refuses h and E' if they are not finite
        L_inv = np.linalg.inv(np.linalg.cholesky(B))
        h = L_inv @ (Z.T @ g / -gw)
        Et = L_inv @ GcZ.T
        A = np.vstack([Et, h @ Et - G @ w])
        u, _ = nnls(A, e)
        r = A @ u - e
        if not r[-1] < 0.0:
            break
        step = Z @ (L_inv.T @ (-r[:-1] / r[-1] - h))
        slope = float(g @ step)
        if not -slope > _EPS * f:
            break
        alpha = 1.0
        for _ in range(40):
            cand = w + alpha * step
            cand /= np.linalg.norm(cand)
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
    """Distance of -grad from the cone spanned by active constraint normals."""
    from scipy.optimize import nnls

    columns = [-2.0 * w_bar] if np.linalg.norm(w_bar) >= 1.0 - 1e-7 else []
    margins = program.G_constraints @ w_bar
    for i in np.nonzero(margins <= 1e-7)[0]:
        columns.append(program.G_constraints[i])
    if not columns:
        return float(np.linalg.norm(grad))
    A = np.stack(columns, axis=1)
    _, resid = nnls(A, grad)
    return float(resid)


def solve(program: ConvexProgram, start: np.ndarray = None,
          feasible: Feasibility = None) -> SolveReport:
    """Solve one convex beamforming program.

    Runs the feasibility phase first, unless ``feasible`` hands in its result
    for the same channel, user and constellations (it depends on neither
    sigma_z nor the program kind). An instance whose maximum reduced margin
    falls below ``TOL_FEAS`` is reported INFEASIBLE (error-floor regime) with
    no weights, a nan KKT residual and the certified maximum as ``margin``;
    the caller decides on a fallback. SMINR_AMP is solved by the feasibility
    phase itself and reports its duality gap as ``kkt_residual``. The MPE
    programs run ``_sphere_sqp``; their ``iterations`` count its steps.
    ``start`` optionally overrides the MPE warm start with a lifted feasible
    point.
    """
    feas = feasible if feasible is not None else _maximize_margin(program)
    if feas.w_bar is None:
        return SolveReport(None, float("nan"), feas.margin, INFEASIBLE,
                           feas.iterations, float("nan"), feas)

    if program.kind == SMINR_AMP:
        margin = program.reduced_margin(feas.w_bar)
        status = OPTIMAL if feas.gap <= TOL_KKT else MAX_ITER
        return SolveReport(unlift_weights(feas.w_bar), margin / program.noise_scale,
                           margin, status, feas.iterations, feas.gap, feas)

    w_bar, value, grad, trace = _sphere_sqp(
        program, np.asarray(start if start is not None else feas.w_bar, dtype=float)
    )
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

