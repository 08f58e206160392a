"""Interior-point solver for continuous conic programs.

Solves  min c.z  s.t.  A z = b,  z in K  through a homogeneous self-dual
embedding: iterates (z, lam, beta, tau, kappa) with z interior to K and
beta interior to K* follow the central path of the embedding, and exactly
one of tau or kappa survives in the limit.

Steps follow a Mizuno-Todd-Ye style predictor-corrector scheme with two
neighbourhoods of the central path, measured by the squared proximity in
the local barrier-Hessian metric.  While the point lies outside the
narrow one (0.1) the step is a centering step; from inside it the step is
a pure predictor, which backtracks until it lands inside the wide one
(0.25).  Both devices of the predictor follow Coey, Kapelevich and Vielma
("Performance enhancements for a generic conic interior point algorithm",
Math. Prog. Comp. 2023).  Its step lengths start just below 1: the first
trial is one long step (0.995), accepted only inside the narrow
neighbourhood, so that the next step is a predictor again; past it the
search backtracks from 0.8 by factors of 0.8.  And it follows a
second-order curve, not a straight line: after its direction d,
the same factored reduced system is solved once more, for the curve's
second-order term t, from the barrier's third derivative along d
(cones.barrier_third), and the trial at step alpha is x + alpha d +
alpha^2 t.  Each right-hand side is solved once on the factored system,
with no iterative refinement; the validators below judge every point a
solve returns.

One function judges every point, the start and each trial: it returns
the point's record with mu, the block Hessian and the proximity, or None.
An accepted trial's record is the next iterate as it is, so its Hessian is
never built again.  Its tests run cheapest first, so that a doomed trial
costs no Hessian: tau and kappa, before a trial's vectors are formed; mu;
the orthant coordinates of z; a floor on the proximity, its tau-kappa term
plus the orthant's exact block, which needs no barrier call since the
orthant's Hessian is diagonal, held to the step's acceptance limit; and
only then beta's strict-interior tests, the Hessian build and the exact
proximity.  Each test is necessary for acceptance, so the order leaves
every verdict as it is.

The problems are small, so the linear algebra is dense.  The block-diagonal
barrier Hessian of a point is one matrix with one Cholesky factor, as is
the Schur complement of the reduced Newton system; each factorization and
each solve is one direct LAPACK call.  Barriers and interior tests are
evaluated a cone group at a time (see cones.ConeProduct), one call for all
factors of one shape; z lies inside K exactly when every group's barrier
evaluates, so z has no interior test of its own.

Every iteration the scaled points are offered to independent validators,
so a returned certificate never relies on solver internals:

  optimal     z/tau primal feasible, beta = c - A'lam/tau dual feasible,
              matching objectives
  infeasible  lam with -A'lam in K* and b.lam > 0
  unbounded   ray in K with A ray = 0 and c.ray < 0

A solve that reaches none of the three is a numeric failure, and its
diagnostic names the exit: the start, the Schur complement, the line
search or the iteration limit.  Preprocessing removes dependent rows
(producing an exact infeasibility certificate when they are inconsistent)
and short-circuits problems whose rows already determine z completely.
"""

from dataclasses import dataclass, field
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg.lapack

from . import cones
from .errors import NotInterior

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERIC_FAILURE = "numeric_failure"

EPS_OPT = 1e-7
EPS_PAIRING = 1e-8

_MAX_ITERS = 400

# neighbourhoods of the central path, in squared proximity: a predictor
# step starts only inside the narrow one and must land inside the wide one
_NARROW = 0.1
_WIDE = 0.25
# a predictor's first trial step, accepted only inside the narrow one
_LONG = 0.995

_BACKTRACK = 0.8  # each line-search trial's step is this times the last's
_TAU_FLOOR = 1e-300  # only a point with tau above this is rescaled by it
_GAP_SHARE = 0.1  # of EPS_OPT: the optimality validator's relative gap
_FARKAS_ZERO = 1e-12  # of max(1, max|lam|): a smaller max|A'lam| is zero
_UNIT_SCALE = 2.0  # scale() of a vector of max-abs 1
_FACE_FACTOR = 30.0  # a ray's descent must clear this sqrt(max|A ray|)
_RAY_MEMBER_TOL = 1e-14  # a ray of max-abs 1 lies in K within this
_HESSIAN_JITTER = 1e-13  # of max(1, trace / d): a failed block's shift
_SCHUR_JITTER = 1e-13  # of max(1, trace / m): the Schur diagonal's shift
_RANK_TOL = 1e-13  # |R_ii| within this max(m, n) |R_11| is a dependent row
_INCONSISTENT_TOL = 1e-9  # a dependent row's residual above this scale(b)
_FAST_PATH_TOL = 1e-9  # a determined z lies in K within this scale(z)


@dataclass
class ContinuousConicProblem:
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    cones: cones.ConeProduct

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float).ravel()
        self.c = np.asarray(self.c, dtype=float).ravel()
        m, n = self.A.shape
        if self.b.shape != (m,) or self.c.shape != (n,):
            raise ValueError("inconsistent conic problem dimensions")
        if self.cones.dim != n:
            raise ValueError("cone product does not cover the z block")


def _no_steps():
    """The interior-point step counts reported in ConicResult.metrics."""
    return dict.fromkeys(("predictor_steps", "centering_steps", "long_steps",
                          "line_search_trials", "hessian_builds"), 0)


@dataclass
class ConicResult:
    """Solve outcome with its certificate vectors.

    For optimal: z, obj, lam (c - A'lam in K*).  For infeasible: lam with
    -A'lam in K* and b.lam > 0, scaled so that either max|A'lam| = 1 or
    b.lam = 1.  For unbounded: ray with max|ray| = 1.  iterations counts
    interior-point iterations run, and metrics counts their predictor and
    centering steps, the predictor steps accepted at the long first trial
    (long_steps), the trial points of their line searches and the block
    Hessian builds begun, also those the barrier ends at a z outside K; all
    are 0 when preprocessing settled the problem.  For numeric_failure,
    diagnostic names the exit that ended the iterations.
    """

    status: str
    z: np.ndarray = None
    obj: float = None
    lam: np.ndarray = None
    ray: np.ndarray = None
    iterations: int = 0
    metrics: dict = field(default_factory=_no_steps)
    diagnostic: str = None


# The validators run their cone-membership tests last: each check is a
# necessary condition, so the order leaves the verdict as it is, and the
# residual and pairing tests, which fail on most iterates, cost less.


def scale(v):
    """1 + max|v|, the unit of every tolerance on v or on what v bounds."""
    return 1.0 + float(np.abs(v).max(initial=0.0))


def primal_feasible(K, r, b_scale, z):
    """Whether a point z with row residual r = A z - b is primal feasible:
    max|r| within EPS_OPT b_scale, b_scale = scale(b), and z in K within
    EPS_OPT scale(z)."""
    if np.abs(r).max(initial=0.0) > EPS_OPT * b_scale:
        return False
    return cones.member_product(K, z, EPS_OPT * scale(z))


def _validate_optimal(A, b, c, K, Kd, z, lam, b_scale):
    if not np.isfinite(z).all() or not np.isfinite(lam).all():
        return None
    pobj = float(c @ z)
    dobj = float(b @ lam)
    # the gap test is a tenth of the others: the objective of the returned
    # point should be as accurate as its feasibility, and primal and dual
    # residuals of size EPS_OPT already move it by about that much
    gap = _GAP_SHARE * EPS_OPT * (1.0 + abs(pobj) + abs(dobj))
    if abs(pobj - dobj) > gap:
        return None
    if not primal_feasible(K, A @ z - b, b_scale, z):
        return None
    beta = c - A.T @ lam
    if not cones.member_product(Kd, beta, EPS_OPT * scale(beta)):
        return None
    return z, lam, pobj


def _validate_infeasible(A, b, Kd, lam):
    if not np.isfinite(lam).all():
        return None
    g = -(A.T @ lam)
    s = float(np.abs(g).max(initial=0.0))
    pairing = float(b @ lam)
    if s > _FARKAS_ZERO * max(1.0, float(np.abs(lam).max(initial=0.0))):
        lam_n = lam / s
        if float(b @ lam_n) <= EPS_PAIRING:
            return None
        if not cones.member_product(Kd, g / s, EPS_OPT * _UNIT_SCALE):
            return None
        return lam_n
    if pairing <= 0.0:
        return None
    lam_n = lam / pairing
    beta = -(A.T @ lam_n)
    if float(np.abs(beta).max(initial=0.0)) > EPS_OPT:
        return None
    return lam_n


def _validate_unbounded(A, c, K, z, A_scale, c_scale):
    if not np.isfinite(z).all():
        return None
    s = float(np.abs(z).max(initial=0.0))
    if s <= 0.0:
        return None
    ray = z / s
    # the pairing's fixed floor first: a ray that misses it fails below
    # whatever A ray is, and most do
    descent = float(c @ ray)
    if descent > -EPS_PAIRING:
        return None
    arow = float(np.abs(A @ ray).max(initial=0.0))
    if arow > EPS_OPT * A_scale:
        return None
    # an interior point hugging a flat face of K can fake a descent rate of
    # order sqrt(kernel residual); demand the pairing clear that scale
    floor = _FACE_FACTOR * np.sqrt(arow) * c_scale
    if descent > -max(EPS_PAIRING, floor):
        return None
    # rays come from strictly interior iterates, so membership must hold
    # essentially exactly after rescaling
    if not cones.member_product(K, ray, _RAY_MEMBER_TOL):
        return None
    return ray


# LAPACK's Cholesky factorization and solve, and its column-pivoted QR,
# called without scipy.linalg's per-call input validation, which costs
# several times the work itself on these small matrices
_potrf = scipy.linalg.lapack.dpotrf
_potrs = scipy.linalg.lapack.dpotrs
_geqp3 = scipy.linalg.lapack.dgeqp3


def _pivoted_qr(M):
    """|diag R| and the column order p of the pivoted QR M[:, p] = Q R,
    with the workspace scipy.linalg.qr(M, pivoting=True) queries."""
    if M.size == 0:
        return np.zeros(0), np.arange(M.shape[1])
    if not np.isfinite(M).all():
        raise ValueError("array must not contain infs or NaNs")
    lwork = int(_geqp3(M, lwork=-1)[3][0])
    qr, jpvt, _, _, info = _geqp3(M, lwork=lwork)
    if info < 0:
        raise ValueError("illegal value in argument %d of dgeqp3" % -info)
    return np.abs(np.diag(qr)), jpvt - 1


class _BlockHessian:
    """Scaled barrier Hessian H = mu * F''(z), dense, with lower factor L.

    H has one diagonal block per cone factor (per coordinate on the
    orthant), written a cone group at a time from one barrier call per
    group, which also leaves the barrier gradient at z in grad.  A block
    whose own Cholesky factorization fails gets a small jitter on its
    diagonal and H is factored again; every other block is kept as
    evaluated.
    """

    def __init__(self, K, z, mu):
        # every group's barrier before any allocation: a z outside K
        # raises NotInterior having allocated nothing
        evaluated = [cones.barrier_value_grad_hess(g.cone, g.stack(z))
                     for g in K.groups]
        self.grad = np.empty_like(z)
        self.H = np.zeros((len(z), len(z)))
        for g, (_, grad, hess) in zip(K.groups, evaluated):
            self.grad[g.index] = grad.ravel()
            self.H[g.blocks] = mu * hess
        self.L, info = _potrf(self.H, lower=1)
        if info != 0:
            # the rare repair path factors each block of each group alone
            for g in K.groups:
                d = g.cone.dim
                blocks = self.H[g.blocks].reshape(g.k, d, d)
                bad = np.array([_potrf(h, lower=1)[1] != 0 for h in blocks])
                traces = np.trace(blocks[bad], axis1=1, axis2=2)
                scale = np.maximum(1.0, traces / d)[:, None, None]
                blocks[bad] += _HESSIAN_JITTER * scale * np.eye(d)
                self.H[g.blocks] = blocks
            self.L, info = _potrf(self.H, lower=1)
            if info != 0:
                raise np.linalg.LinAlgError("Hessian not positive definite")

    def solve(self, rhs):
        return _potrs(self.L, rhs, lower=1)[0]


def _barrier_third(K, z, d):
    # F'''(z)[d, d] over the product, one call per group
    t = np.empty_like(z)
    for grp in K.groups:
        t[grp.index] = cones.barrier_third(
            grp.cone, grp.stack(z), grp.stack(d)).ravel()
    return t


class _Point(NamedTuple):
    """An interior point of the embedding with mu = (z.beta + tau kappa) /
    (nu + 1), its block Hessian W = mu F''(z) and prox2, its squared
    distance to the central path in W's metric."""

    z: np.ndarray
    beta: np.ndarray
    tau: float
    kappa: float
    mu: float
    W: _BlockHessian
    prox2: float


# the relative margin by which a proximity floor must exceed its limit to
# refuse a point: the floor and prox2 round their common terms differently
_FLOOR_MARGIN = 1e-9


def _point(K, Kd, z, beta, tau, kappa, metrics, limit=np.inf):
    """The point's record, or None unless it is interior and its prox2 can
    lie within limit.

    The one place a point is judged, each test cheaper than the next: tau
    and kappa positive; mu finite and positive; the orthant coordinates of
    z positive; a floor on prox2, its tau-kappa term plus the orthant's
    exact block (cones.orthant_proximity), within limit (1 + _FLOOR_MARGIN);
    beta strictly inside Kd; and z strictly inside K, which the barrier
    decides as it builds the Hessian.  Each build begun counts in
    metrics["hessian_builds"].  z and beta may also be functions that form
    them, called once tau and kappa pass.
    """
    if not (tau > 0.0 and kappa > 0.0):
        return None
    if callable(z):
        z, beta = z(), beta()
    mu = (float(z @ beta) + tau * kappa) / (K.nu + 1.0)
    if not (mu > 0.0 and math.isfinite(mu)):
        return None
    tau_kappa_term = (tau * kappa / mu - 1.0) ** 2
    floor = tau_kappa_term
    g = K.orthant
    if g is not None:
        share = cones.orthant_proximity(z[g.index], beta[g.index], mu)
        if share is None:
            return None
        floor += share
    if floor > limit * (1.0 + _FLOOR_MARGIN):
        return None
    for g in Kd.groups:
        if not cones.strict_member(g.cone, g.stack(beta)).all():
            return None
    metrics["hessian_builds"] += 1
    try:
        W = _BlockHessian(K, z, mu)
    except (np.linalg.LinAlgError, NotInterior):
        return None
    e = beta + mu * W.grad
    prox2 = float(e @ W.solve(e)) / mu + tau_kappa_term
    if not np.isfinite(prox2):
        return None
    return _Point(z, beta, tau, kappa, mu, W, prox2)


def _hsde_loop(A, b, c, K, Kd):
    """Run the embedding on a preprocessed full-row-rank system."""
    m, n = A.shape
    metrics = _no_steps()
    b_scale, A_scale, c_scale = scale(b), scale(A), scale(c)
    # the start's Hessian is built here, in every solve
    point = _point(K, Kd, *K.start, 1.0, 1.0, metrics)
    if point is None:
        return ConicResult(NUMERIC_FAILURE, metrics=metrics, diagnostic=(
            "barrier Hessian not formed at the starting point"))
    lam = np.zeros(m)

    why = "iteration limit of %d reached" % _MAX_ITERS
    for it in range(1, _MAX_ITERS + 1):
        z, beta, tau, kappa, mu, W, prox2 = point
        # offer scaled candidates to the validators first
        if tau > _TAU_FLOOR:
            cand = _validate_optimal(A, b, c, K, Kd, z / tau, lam / tau,
                                     b_scale)
            if cand is not None:
                zc, lc, obj = cand
                return ConicResult(OPTIMAL, z=zc, obj=obj, lam=lc,
                                   iterations=it, metrics=metrics)
        lc = _validate_infeasible(A, b, Kd, lam)
        if lc is not None:
            return ConicResult(INFEASIBLE, lam=lc, obj=np.inf,
                               iterations=it, metrics=metrics)
        cand = _validate_unbounded(A, c, K, z, A_scale, c_scale)
        if cand is not None:
            return ConicResult(UNBOUNDED, ray=cand, obj=-np.inf,
                               iterations=it, metrics=metrics)

        # predictor-corrector: re-centre until the point is inside the
        # narrow neighbourhood, then take a pure predictor step from it
        centering = prox2 > _NARROW
        sigma = 1.0 if centering else 0.0
        metrics["centering_steps" if centering else "predictor_steps"] += 1

        r_p = A @ z - b * tau
        r_d = -(A.T @ lam) + c * tau - beta
        r_g = float(b @ lam) - float(c @ z) - kappa

        Winv_c = W.solve(c)
        S = W.solve(A.T)
        G = A @ S
        # a fresh array, so the jitter goes onto its diagonal in place
        G.flat[:: m + 1] += _SCHUR_JITTER * max(1.0, np.trace(G) / m)
        Gf, info = _potrf(G)
        if info != 0 or not np.isfinite(Gf).all():
            why = "Schur complement not factored"
            break
        A_Winv_c = A @ Winv_c
        v = _potrs(Gf, b + A_Winv_c)[0]
        g1 = b - A_Winv_c
        # mu/tau^2 is tau's block of the scaled barrier Hessian
        wtau = mu / tau**2
        denom = float(g1 @ v) + float(c @ Winv_c) + wtau

        def solve_reduced(d1, d2, d3):
            # direction of the 3-equation reduced Newton system
            #   A dz - b dtau = d1
            #   -A'dlam + c dtau + W dz = d2
            #   b'dlam - c'dz + (mu/tau^2) dtau = d3
            wd2 = W.solve(d2)
            u = _potrs(Gf, d1 - A @ wd2)[0]
            dtau = (d3 + float(c @ wd2) - float(g1 @ u)) / denom
            dlam = u + v * dtau
            dz = W.solve(d2 + A.T @ dlam - c * dtau)
            return dz, dlam, dtau

        d1 = (sigma - 1.0) * r_p
        d2 = (sigma - 1.0) * r_d - beta - sigma * mu * W.grad
        d3 = (sigma - 1.0) * r_g - kappa + sigma * mu / tau
        dz, dlam, dtau = solve_reduced(d1, d2, d3)
        H_dz = W.H @ dz
        dbeta = -beta - sigma * mu * W.grad - H_dz
        dkappa = -kappa + sigma * mu / tau - wtau * dtau

        # a predictor step follows the second-order curve
        # x + alpha d + alpha^2 t along the path with mu(alpha) =
        # (1 - alpha) mu: t is the curve's second derivative over 2, from
        # beta + mu F'(z) = 0 and kappa = mu/tau differentiated twice.  The
        # W dz and wtau dtau terms come from mu moving along the path.  A
        # centering step, or a third derivative that overflows, has t = 0
        tz, tlam, tbeta = np.zeros(n), np.zeros(m), np.zeros(n)
        ttau = tkappa = 0.0
        if not centering:
            with np.errstate(all="ignore"):
                third = _barrier_third(K, z, dz)
            if np.isfinite(third).all():
                t2 = H_dz - 0.5 * mu * third
                t3 = wtau * dtau + wtau * (dtau / tau) * dtau
                tz, tlam, ttau = solve_reduced(np.zeros(m), t2, t3)
                tbeta = t2 - W.H @ tz
                tkappa = t3 - wtau * ttau

        # backtrack until the trial point is interior and stays near the
        # central path: predictor steps must land inside the wide
        # neighbourhood, centering steps must at least shrink the proximity.
        # A predictor's first trial is instead one long step, alpha =
        # _LONG, held to the narrow neighbourhood, so that the next step is
        # a predictor again; past it the search goes on from alpha =
        # _BACKTRACK.  A trial's vectors are formed only once its tau and
        # kappa pass
        limit = max(_WIDE, prox2) if centering else _WIDE
        long = not centering
        step = 1.0
        for _ in range(90):
            metrics["line_search_trials"] += 1
            alpha = _LONG if long else step
            a2 = alpha * alpha
            trial = _point(K, Kd, lambda: z + alpha * dz + a2 * tz,
                           lambda: beta + alpha * dbeta + a2 * tbeta,
                           tau + alpha * dtau + a2 * ttau,
                           kappa + alpha * dkappa + a2 * tkappa, metrics,
                           _NARROW if long else limit)
            if trial is not None and (
                trial.prox2 <= (_NARROW if long else _WIDE)
                or (centering and trial.prox2 < prox2)
            ):
                break
            long = False
            step *= _BACKTRACK
        else:
            why = "line search stalled"
            break
        metrics["long_steps"] += long
        # the accepted trial's record is the next iterate, bit for bit
        point, lam = trial, lam + alpha * dlam + alpha * alpha * tlam

    return ConicResult(NUMERIC_FAILURE, iterations=it, metrics=metrics,
                       diagnostic=why)


def _solve_unconstrained(c, K, Kd, m):
    """min c.z over z in K with no effective rows: 0 when no factor of Kd
    separates c, else unbounded along the first separating vector."""
    for f, sl in Kd.slices():
        beta = cones.separate(f, c[sl])
        if beta is not None:
            ray = np.zeros(K.dim)
            ray[sl] = beta / float(np.max(np.abs(beta)))
            return ConicResult(UNBOUNDED, ray=ray, obj=-np.inf)
    return ConicResult(OPTIMAL, z=np.zeros(K.dim), obj=0.0, lam=np.zeros(m))


def _equilibrate(A, b):
    scale = np.maximum(np.max(np.abs(A), axis=1, initial=0.0), np.abs(b))
    scale = np.where(scale > 0, scale, 1.0)
    d = 1.0 / scale
    return A * d[:, None], b * d, d


def solve_continuous(prob):
    """Solve a continuous conic program with preprocessing and validation."""
    A0, b0, c, K = prob.A, prob.b, prob.c, prob.cones
    m, n = A0.shape
    Kd = K.dual()

    A, b, d_scale = _equilibrate(A0, b0)

    # drop dependent rows; inconsistent dependencies give an exact certificate
    diag, perm = _pivoted_qr(A.T)
    top = diag[0] if len(diag) else 1.0
    rank = int(np.sum(diag > max(m, n) * _RANK_TOL * top))
    kept = np.sort(perm[:rank])
    dropped = np.sort(perm[rank:])
    if len(dropped):
        Wc, *_ = np.linalg.lstsq(A[kept].T, A[dropped].T, rcond=None)
        rho = b[dropped] - Wc.T @ b[kept]
        worst = int(np.argmax(np.abs(rho)))
        if abs(rho[worst]) > _INCONSISTENT_TOL * scale(b):
            lam = np.zeros(m)
            lam[dropped[worst]] = 1.0
            lam[kept] = -Wc[:, worst]
            lam /= float(b @ lam)
            return ConicResult(INFEASIBLE, lam=lam * d_scale, obj=np.inf)
    if rank == 0:
        # every row is numerically zero and consistent with b
        return _solve_unconstrained(c, K, Kd, m)
    Ak, bk = A[kept], b[kept]

    def embed_lam(lam_k):
        lam = np.zeros(m)
        lam[kept] = lam_k
        return lam * d_scale

    if rank == n:
        # the rows determine z outright: certify by direct linear algebra
        z = np.linalg.solve(Ak, bk)
        if cones.member_product(K, z, _FAST_PATH_TOL * scale(z)):
            lam_k = np.linalg.solve(Ak.T, c)
            return ConicResult(OPTIMAL, z=z, obj=float(c @ z),
                               lam=embed_lam(lam_k))
        parts = np.zeros(n)
        for f, sl in K.slices():
            beta = cones.separate(f, z[sl])
            if beta is not None:
                parts[sl] = beta
                break
        lam_k = np.linalg.solve(Ak.T, -parts)
        # beta.z < 0 for the separating beta, so the pairing is positive
        lam_k /= float(bk @ lam_k)
        return ConicResult(INFEASIBLE, lam=embed_lam(lam_k), obj=np.inf)

    res = _hsde_loop(Ak, bk, c, K, Kd)
    if res.lam is not None:
        res.lam = embed_lam(res.lam)
    return res
