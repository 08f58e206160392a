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
(0.25).  The predictor follows a second-order curve, not a straight line
(Coey, Kapelevich and Vielma, "Performance enhancements for a generic conic
interior point algorithm", Math. Prog. Comp. 2023): after its direction d,
the same factored reduced system is solved once more, for the curve's
second-order term t, from the barrier's third derivative along d
(cones.barrier_third), and the trial at step alpha is x + alpha d +
alpha^2 t.  On the 60-program benchmark corpus this took the interior-point
iterations from 1,292 to 773 and the centering steps from 383 to 96.

One function judges every point, the start, each trial and each rescaled
point: it returns the point's record with mu, the block Hessian and the
proximity, or None.  An accepted trial's record is the next iterate as it
is, so its Hessian is never built again.

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

If no certificate reaches the target tolerance the best candidate within a
looser tolerance is reported as almost optimal, otherwise the solve is a
numeric failure.  Preprocessing removes dependent rows (producing an exact
infeasibility certificate when they are inconsistent) and short-circuits
problems whose rows already determine z completely.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from . import cones
from .errors import NotInterior

OPTIMAL = "optimal"
ALMOST_OPTIMAL = "almost_optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERIC_FAILURE = "numeric_failure"

EPS_OPT = 1e-7
EPS_ALMOST = 1e-5
EPS_PAIRING = 1e-8

_MAX_ITERS = 400

# neighbourhoods of the central path, in squared proximity: a predictor
# step starts only inside the narrow one and must land inside the wide one
_NARROW = 0.1
_WIDE = 0.25


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
    return dict.fromkeys(("predictor_steps", "centering_steps",
                          "line_search_trials", "hessian_builds"), 0)


@dataclass
class ConicResult:
    """Solve outcome with its certificate vectors.

    For optimal/almost_optimal: z, obj, lam (c - A'lam in K*).  For
    infeasible: lam with -A'lam in K* and b.lam > 0, scaled so that either
    max|A'lam| = 1 or b.lam = 1.  For unbounded: ray with max|ray| = 1.
    iterations counts interior-point iterations run, and metrics counts
    their predictor and centering steps, the trial points of their line
    searches and the block Hessian builds begun, also those the barrier
    ends at a z outside K; all are 0 when preprocessing settled the
    problem.  For almost_optimal and numeric_failure, diagnostic names the
    exit that ended the iterations.
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


def _validate_optimal(A, b, c, K, Kd, z, lam, tol):
    if not np.isfinite(z).all() or not np.isfinite(lam).all():
        return None
    pres = float(np.abs(A @ z - b).max(initial=0.0))
    if pres > tol * (1.0 + float(np.abs(b).max(initial=0.0))):
        return None
    pobj = float(c @ z)
    dobj = float(b @ lam)
    # the gap test is a tenth of the others: the objective of the returned
    # point should be as accurate as its feasibility, and primal and dual
    # residuals of size tol already move it by about that much
    if abs(pobj - dobj) > 0.1 * tol * (1.0 + abs(pobj) + abs(dobj)):
        return None
    zs = 1.0 + float(np.abs(z).max(initial=0.0))
    if not cones.member_product(K, z, tol * zs):
        return None
    beta = c - A.T @ lam
    bs = 1.0 + float(np.abs(beta).max(initial=0.0))
    if not cones.member_product(Kd, beta, tol * bs):
        return None
    return z, lam, pobj


def _validate_infeasible(A, b, Kd, lam, tol):
    if not np.isfinite(lam).all():
        return None
    g = -(A.T @ lam)
    s = float(np.abs(g).max(initial=0.0))
    pairing = float(b @ lam)
    if s > 1e-12 * max(1.0, float(np.abs(lam).max(initial=0.0))):
        lam_n = lam / s
        if float(b @ lam_n) <= EPS_PAIRING:
            return None
        if not cones.member_product(Kd, g / s, tol * 2.0):
            return None
        return lam_n
    if pairing <= 0.0:
        return None
    lam_n = lam / pairing
    beta = -(A.T @ lam_n)
    if float(np.abs(beta).max(initial=0.0)) > tol:
        return None
    return lam_n


def _validate_unbounded(A, c, K, z, tol):
    if not np.isfinite(z).all():
        return None
    s = float(np.abs(z).max(initial=0.0))
    if s <= 0.0:
        return None
    ray = z / s
    arow = float(np.abs(A @ ray).max(initial=0.0))
    if arow > tol * (1.0 + float(np.abs(A).max(initial=0.0))):
        return None
    # an interior point hugging a flat face of K can fake a descent rate of
    # order sqrt(kernel residual); demand the pairing clear that scale
    floor = 30.0 * np.sqrt(arow) * (1.0 + float(np.abs(c).max(initial=0.0)))
    if float(c @ ray) > -max(EPS_PAIRING, floor):
        return None
    # rays come from strictly interior iterates, so membership must hold
    # essentially exactly after rescaling
    if not cones.member_product(K, ray, 1e-14):
        return None
    return ray


# LAPACK's Cholesky factorization and solve, called without scipy.linalg's
# per-call input validation, which costs several times the work itself on
# these small matrices
_potrf = scipy.linalg.lapack.dpotrf
_potrs = scipy.linalg.lapack.dpotrs


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
                blocks[bad] += 1e-13 * scale * np.eye(d)
                self.H[g.blocks] = blocks
            self.L, info = _potrf(self.H, lower=1)
            if info != 0:
                raise np.linalg.LinAlgError("Hessian not positive definite")

    def solve(self, rhs):
        return _potrs(self.L, rhs, lower=1)[0]


def _barrier_grad(K, z):
    g = np.empty_like(z)
    for grp in K.groups:
        g[grp.index] = cones.barrier_value_grad_hess(
            grp.cone, grp.stack(z))[1].ravel()
    return g


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


def _point(K, Kd, z, beta, tau, kappa, metrics):
    """The point's record, or None unless it is interior.

    The one place a point is judged: tau and kappa positive, beta strictly
    inside Kd, mu finite and positive, and z strictly inside K, which the
    barrier decides as it builds the Hessian.  Each build begun counts in
    metrics["hessian_builds"].
    """
    if not (tau > 0.0 and kappa > 0.0):
        return None
    for g in Kd.groups:
        if not cones.strict_member(g.cone, g.stack(beta)).all():
            return None
    mu = (float(z @ beta) + tau * kappa) / (K.nu + 1.0)
    if not np.isfinite(mu) or mu <= 0.0:
        return None
    metrics["hessian_builds"] += 1
    try:
        W = _BlockHessian(K, z, mu)
    except (np.linalg.LinAlgError, NotInterior):
        return None
    e = beta + mu * W.grad
    prox2 = float(e @ W.solve(e)) / mu + (tau * kappa / mu - 1.0) ** 2
    if not np.isfinite(prox2):
        return None
    return _Point(z, beta, tau, kappa, mu, W, prox2)


def _hsde_loop(A, b, c, K, Kd):
    """Run the embedding on a preprocessed full-row-rank system."""
    m, n = A.shape
    metrics = _no_steps()
    z = np.concatenate([cones.interior_point(f) for f in K.factors])
    point = _point(K, Kd, z, -_barrier_grad(K, z), 1.0, 1.0, metrics)
    lam = np.zeros(m)

    best_almost = None
    stalls = 0
    force_center = False
    it = 0

    why = "iteration limit of %d reached" % _MAX_ITERS
    for it in range(1, _MAX_ITERS + 1):
        # only the start and a rescaled point can lack a record
        if point is None:
            why = "barrier Hessian not formed at the current point"
            break
        z, beta, tau, kappa, mu, W, prox2 = point
        # offer scaled candidates to the validators first; every check is
        # monotone in its tolerance, so only a point that passes the loose
        # one can pass the tight one
        if tau > 1e-300:
            zs, ls = z / tau, lam / tau
            cand = _validate_optimal(A, b, c, K, Kd, zs, ls, EPS_ALMOST)
            if cand is not None:
                best_almost = cand
                if _validate_optimal(A, b, c, K, Kd, zs, ls, EPS_OPT):
                    zc, lc, obj = cand
                    return ConicResult(OPTIMAL, z=zc, obj=obj, lam=lc,
                                       iterations=it, metrics=metrics)
        lc = _validate_infeasible(A, b, Kd, lam, EPS_OPT)
        if lc is not None:
            return ConicResult(INFEASIBLE, lam=lc, obj=np.inf,
                               iterations=it, metrics=metrics)
        cand = _validate_unbounded(A, c, K, z, EPS_OPT)
        if cand is not None:
            return ConicResult(UNBOUNDED, ray=cand, obj=-np.inf,
                               iterations=it, metrics=metrics)

        # predictor-corrector: re-centre until the point is inside the
        # narrow neighbourhood, then take a pure predictor step from it
        centering = prox2 > _NARROW or force_center
        sigma = 1.0 if centering else 0.0
        metrics["centering_steps" if centering else "predictor_steps"] += 1
        force_center = False

        r_p = A @ z - b * tau
        r_d = -(A.T @ lam) + c * tau - beta
        r_g = float(b @ lam) - float(c @ z) - kappa

        Winv_c = W.solve(c)
        S = W.solve(A.T)
        G = A @ S
        # a fresh array, so the jitter goes onto its diagonal in place
        G.flat[:: m + 1] += 1e-13 * max(1.0, np.trace(G) / m)
        Gf, info = _potrf(G)
        if info != 0 or not np.isfinite(Gf).all():
            why = "Schur complement not factored"
            break
        v = _potrs(Gf, b + A @ Winv_c)[0]
        g1 = b - A @ Winv_c
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
        for _ in range(2):
            # iterative refinement keeps the direction accurate when the
            # scaled Hessian is badly conditioned near convergence
            e1 = d1 - (A @ dz - b * dtau)
            e2 = d2 - (-(A.T @ dlam) + c * dtau + W.H @ dz)
            e3 = d3 - (float(b @ dlam) - float(c @ dz) + wtau * dtau)
            if (
                np.abs(e1).max(initial=0.0) + np.abs(e2).max(initial=0.0) + abs(e3)
            ) < 1e-11 * (1.0 + np.abs(d2).max(initial=0.0)):
                break
            cz, cl, ct = solve_reduced(e1, e2, e3)
            dz, dlam, dtau = dz + cz, dlam + cl, dtau + ct
        dbeta = -beta - sigma * mu * W.grad - W.H @ dz
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
                t2 = W.H @ dz - 0.5 * mu * third
                t3 = wtau * dtau + wtau * (dtau / tau) * dtau
                tz, tlam, ttau = solve_reduced(np.zeros(m), t2, t3)
                tbeta = t2 - W.H @ tz
                tkappa = t3 - wtau * ttau

        # backtrack until the trial point is interior and stays near the
        # central path: predictor steps must land inside the wide
        # neighbourhood, centering steps must at least shrink the proximity
        alpha = 1.0
        for _ in range(90):
            metrics["line_search_trials"] += 1
            a2 = alpha * alpha
            trial = _point(K, Kd, z + alpha * dz + a2 * tz,
                           beta + alpha * dbeta + a2 * tbeta,
                           tau + alpha * dtau + a2 * ttau,
                           kappa + alpha * dkappa + a2 * tkappa, metrics)
            if trial is not None and (
                trial.prox2 <= _WIDE or (centering and trial.prox2 < prox2)
            ):
                break
            alpha *= 0.8
        else:
            # the point stays, and the next step re-centres it
            stalls += 1
            force_center = True
            if stalls >= 3:
                why = "3 straight line searches stalled"
                break
            continue
        stalls = 0
        if not centering and alpha < 0.05:
            # poor predictor progress: recenter before trying again
            force_center = True
        # the accepted trial's record is the next iterate, bit for bit
        point, lam = trial, lam + alpha * dlam + alpha * alpha * tlam

        big = max(point.tau, point.kappa,
                  *(float(np.abs(v).max(initial=0.0))
                    for v in (point.z, point.beta, lam)))
        if big > 1e10:
            s = 1.0 / big
            lam = lam * s
            point = _point(K, Kd, point.z * s, point.beta * s, point.tau * s,
                           point.kappa * s, metrics)

    if best_almost is not None:
        zc, lc, obj = best_almost
        return ConicResult(ALMOST_OPTIMAL, z=zc, obj=obj, lam=lc,
                           iterations=it, metrics=metrics, diagnostic=why)
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
    r, perm = scipy.linalg.qr(A.T, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > max(m, n) * 1e-13 * (diag[0] if len(diag) else 1.0)))
    kept = np.sort(perm[:rank])
    dropped = np.sort(perm[rank:])
    if len(dropped):
        Wc, *_ = np.linalg.lstsq(A[kept].T, A[dropped].T, rcond=None)
        rho = b[dropped] - Wc.T @ b[kept]
        worst = int(np.argmax(np.abs(rho)))
        if abs(rho[worst]) > 1e-9 * (1.0 + float(np.max(np.abs(b)))):
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
        zs = 1.0 + float(np.abs(z).max())
        if cones.member_product(K, z, 1e-9 * zs):
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
        scale = float(bk @ lam_k)
        # beta.z < 0 for the separating beta, so the pairing is positive
        lam_k /= scale
        return ConicResult(INFEASIBLE, lam=embed_lam(lam_k), obj=np.inf)

    res = _hsde_loop(Ak, bk, c, K, Kd)
    if res.lam is not None:
        res.lam = embed_lam(res.lam)
    return res
