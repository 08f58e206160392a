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
(0.25).  Each trial point of the line search needs its block Hessian for
the proximity test, and the accepted trial's Hessian is the one the next
iteration factors, so it is carried forward instead of built again.

The problems are small, so the linear algebra is dense.  The block-diagonal
barrier Hessian of a point is one matrix with one Cholesky factor, as is
the Schur complement of the reduced Newton system; each factorization and
each solve is one direct LAPACK call.  Barriers and interior tests are
evaluated a cone group at a time (see cones.ConeProduct), one call for all
factors of one shape.

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
    searches and the block Hessians built; all are 0 when preprocessing
    settled the problem.  For almost_optimal and numeric_failure,
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
        self.grad = np.empty_like(z)
        self.H = np.zeros((len(z), len(z)))
        for g in K.groups:
            _, grad, hess = cones.barrier_value_grad_hess(g.cone, g.stack(z))
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


def _interior(K, Kd, z, beta, tau, kappa):
    if tau <= 0.0 or kappa <= 0.0:
        return False
    for g, gd in zip(K.groups, Kd.groups):
        if g.cone.family is gd.cone.family:
            # a self-dual group tests its primal and dual rows in one call
            rows = np.concatenate((g.stack(z), gd.stack(beta)))
            if not cones.strict_member(g.cone, rows).all():
                return False
        elif not (cones.strict_member(g.cone, g.stack(z)).all()
                  and cones.strict_member(gd.cone, gd.stack(beta)).all()):
            return False
    return True


def _proximity(K, z, beta, tau, kappa, nu):
    """Squared distance to the central path in the local Hessian metric.

    Returns (distance, block Hessian at z), or None when either cannot be
    formed.  The Hessian is the one the next iteration needs if z is
    accepted, so the caller keeps it instead of building it again.
    """
    mu = (float(z @ beta) + tau * kappa) / (nu + 1.0)
    if not np.isfinite(mu) or mu <= 0.0:
        return None
    try:
        W = _BlockHessian(K, z, mu)
    except (np.linalg.LinAlgError, NotInterior):
        return None
    e = beta + mu * W.grad
    val = float(e @ W.solve(e)) / mu + (tau * kappa / mu - 1.0) ** 2
    if not np.isfinite(val):
        return None
    return val, W


def _hsde_loop(A, b, c, K, Kd, max_iters):
    """Run the embedding on a preprocessed full-row-rank system."""
    m, n = A.shape
    nu = K.nu

    z = np.concatenate([cones.interior_point(f) for f in K.factors])
    beta = -_barrier_grad(K, z)
    lam = np.zeros(m)
    tau = 1.0
    kappa = 1.0

    best_almost = None
    stalls = 0
    force_center = False
    # proximity and block Hessian at the current point; None means rebuild
    W = prox2 = None
    metrics = _no_steps()
    it = 0

    why = "iteration limit of %d reached" % max_iters
    for it in range(1, max_iters + 1):
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

        mu = (float(z @ beta) + tau * kappa) / (nu + 1.0)
        if not np.isfinite(mu) or mu <= 0.0:
            why = "mu is not finite and positive"
            break
        if W is None:
            metrics["hessian_builds"] += 1
            here = _proximity(K, z, beta, tau, kappa, nu)
            if here is None:
                why = "barrier Hessian not formed at the current point"
                break
            prox2, W = here
        grad = W.grad

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
        Gf, info = _potrf(G + 1e-13 * max(1.0, np.trace(G) / m) * np.eye(m))
        if info != 0 or not np.isfinite(Gf).all():
            why = "Schur complement not factored"
            break
        v = _potrs(Gf, b + A @ Winv_c)[0]
        g1 = b - A @ Winv_c
        denom = float(g1 @ v) + float(c @ Winv_c) + mu / tau**2

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
        d2 = (sigma - 1.0) * r_d - beta - sigma * mu * grad
        d3 = (sigma - 1.0) * r_g - kappa + sigma * mu / tau
        dz, dlam, dtau = solve_reduced(d1, d2, d3)
        for _ in range(2):
            # iterative refinement keeps the direction accurate when the
            # scaled Hessian is badly conditioned near convergence
            e1 = d1 - (A @ dz - b * dtau)
            e2 = d2 - (-(A.T @ dlam) + c * dtau + W.H @ dz)
            e3 = d3 - (float(b @ dlam) - float(c @ dz) + (mu / tau**2) * dtau)
            if (
                np.abs(e1).max(initial=0.0) + np.abs(e2).max(initial=0.0) + abs(e3)
            ) < 1e-11 * (1.0 + np.abs(d2).max(initial=0.0)):
                break
            cz, cl, ct = solve_reduced(e1, e2, e3)
            dz, dlam, dtau = dz + cz, dlam + cl, dtau + ct
        dbeta = -beta - sigma * mu * grad - W.H @ dz
        dkappa = -kappa + sigma * mu / tau - (mu / tau**2) * dtau

        # backtrack until the trial point is interior and stays near the
        # central path: predictor steps must land inside the wide
        # neighbourhood, centering steps must at least shrink the proximity
        alpha = 1.0
        accepted = False
        for _ in range(90):
            metrics["line_search_trials"] += 1
            zt = z + alpha * dz
            bt = beta + alpha * dbeta
            tt = tau + alpha * dtau
            kt = kappa + alpha * dkappa
            if _interior(K, Kd, zt, bt, tt, kt):
                metrics["hessian_builds"] += 1
                trial = _proximity(K, zt, bt, tt, kt, nu)
                if trial is not None and (
                    trial[0] <= _WIDE or (centering and trial[0] < prox2)
                ):
                    accepted = True
                    break
            alpha *= 0.8
        if not accepted:
            stalls += 1
            force_center = True
            if stalls >= 3:
                why = "3 straight line searches stalled"
                break
        else:
            stalls = 0
            if not centering and alpha < 0.05:
                # poor predictor progress: recenter before trying again
                force_center = True
            z = z + alpha * dz
            lam = lam + alpha * dlam
            beta = beta + alpha * dbeta
            tau = tau + alpha * dtau
            kappa = kappa + alpha * dkappa
            # the accepted trial point is the new point, bit for bit
            prox2, W = trial

        big = max(tau, kappa, float(np.abs(z).max(initial=0.0)),
                  float(np.abs(beta).max(initial=0.0)),
                  float(np.abs(lam).max(initial=0.0)))
        if big > 1e10:
            s = 1.0 / big
            z, lam, beta = z * s, lam * s, beta * s
            tau, kappa = tau * s, kappa * s
            W = None

    if best_almost is not None:
        zc, lc, obj = best_almost
        return ConicResult(ALMOST_OPTIMAL, z=zc, obj=obj, lam=lc,
                           iterations=it, metrics=metrics, diagnostic=why)
    return ConicResult(NUMERIC_FAILURE, iterations=it, metrics=metrics,
                       diagnostic=why)


def _solve_unconstrained(c, K, Kd, m):
    """min c.z over z in K with no effective rows: 0 or unbounded below."""
    n = K.dim
    if cones.member_product(Kd, c, 0.0):
        return ConicResult(OPTIMAL, z=np.zeros(n), obj=0.0, lam=np.zeros(m))
    ray = np.zeros(n)
    for f, sl in Kd.slices():
        beta = cones.separate(f, c[sl])
        if beta is not None:
            ray[sl] = beta
            break
    return ConicResult(UNBOUNDED, ray=ray, obj=-np.inf)


def _equilibrate(A, b):
    scale = np.maximum(np.max(np.abs(A), axis=1), np.abs(b))
    scale = np.where(scale > 0, scale, 1.0)
    d = 1.0 / scale
    return A * d[:, None], b * d, d


def solve_continuous(prob):
    """Solve a continuous conic program with preprocessing and validation."""
    A0, b0, c, K = prob.A, prob.b, prob.c, prob.cones
    m, n = A0.shape
    Kd = K.dual()

    if n == 0:
        if float(np.abs(b0).max(initial=0.0)) <= 1e-12:
            return ConicResult(OPTIMAL, z=np.zeros(0), obj=0.0,
                               lam=np.zeros(m))
        lam = b0 / float(b0 @ b0)
        return ConicResult(INFEASIBLE, lam=lam, obj=np.inf)

    if m == 0:
        return _solve_unconstrained(c, K, Kd, m)

    A, b, d_scale = _equilibrate(A0, b0)

    # drop dependent rows; inconsistent dependencies give an exact certificate
    q, r, perm = scipy.linalg.qr(A.T, mode="economic", pivoting=True)
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

    res = _hsde_loop(Ak, bk, c, K, Kd, _MAX_ITERS)
    if res.lam is not None:
        res.lam = embed_lam(res.lam)
    return res
