"""Dense bounded simplex: two-phase primal, and dual re-solve from a basis.

Solves  min c.x  s.t.  A x = b,  l <= x <= u  where entries of l and u may be
infinite.  Phase one minimizes the total artificial infeasibility; phase two
keeps the artificial columns pinned to zero.  Nonbasic variables rest at a
finite bound (or at zero when free), and the ratio test allows bound flips.

Entering variables follow Dantzig's rule with ties broken by lowest index;
after a long run of degenerate pivots the rule switches to Bland's, which
cannot cycle.  An unbounded ray is returned only once it passes a check
scaled to max|ray| = 1.  A false ray means a drifted inverse, which is
refactored, or a basis so near singular that the column's reduced cost is
rounding noise; that column is then kept out until the basis changes.

An optimal result carries its final tableau: the extended array [A, I']
the solve pivoted on (I' the signed artificial columns), the basis, every
column's rest and the basis inverse.  Passing it back with another problem
on the same A array re-optimizes by the bounded dual simplex method
(Koberstein, *The dual simplex method*, 2005), starting from a copy of the
carried inverse rather than a fresh factorization.  Tightening bounds keeps
the basis dual feasible; the final primal pass, which ends every solve,
mends whatever dual infeasibility a start has.  The extended array is never
written, so every warm descendant of one cold solve shares it.  The
inverse's age, the product-form updates since its last refactor, carries
over too, so the refactor after 64 updates counts them along the whole
chain of warm starts.  Branch and bound uses this to solve each child node
from its parent's final tableau.  Whenever the warm start cannot finish (a
tableau from another A, a rest on a bound the problem lacks, singular
refactor, iteration cap, or a certificate that fails its check) the solve
falls back to the cold two-phase method.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericFailure

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3


@dataclass
class LpProblem:
    """min c.x subject to A x = b and elementwise bounds on x."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float).ravel()
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.lb = np.asarray(self.lb, dtype=float).ravel()
        self.ub = np.asarray(self.ub, dtype=float).ravel()
        m, n = self.A.shape
        if self.b.shape != (m,) or self.c.shape != (n,):
            raise ValueError("inconsistent LP dimensions")
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise ValueError("inconsistent bound dimensions")
        if np.any(self.lb > self.ub):
            raise ValueError("crossing bounds")


@dataclass
class LpResult:
    """Outcome of a simplex solve.

    status is one of optimal / infeasible / unbounded.  For optimal results
    x, obj, the equality-row duals y and basis, the solve's final tableau
    and the warm start of a re-solve on the same A, are set.  For
    infeasible results farkas holds y with y.b > sup{y.A x : l <= x <= u}.
    For unbounded results x is a point that meets the rows and bounds and
    ray a recession direction with A ray = 0 and c.ray < 0.  iterations
    counts simplex iterations of both methods when a warm start fell back
    to a cold solve; warm tells whether the result, of any status, came
    from the warm start.
    """

    status: str
    x: np.ndarray = None
    obj: float = None
    y: np.ndarray = None
    farkas: np.ndarray = None
    ray: np.ndarray = None
    iterations: int = 0
    basis: "_Tableau" = None
    warm: bool = False


@dataclass(eq=False)
class _Tableau:
    """Simplex state on [A, I'], I' one signed artificial column per row.

    source is the problem's own A (a reference), the array a warm start
    must be posed on.  basis lists the basic columns, status gives every
    column's rest (at lower, at upper, free or basic), Binv is the inverse
    of the basis columns and age the product-form updates it has taken
    since it was last refactored.
    """

    A: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    basis: np.ndarray
    status: np.ndarray
    degenerate_pivots: int = 0
    iterations: int = 0
    enterable: np.ndarray = field(default=None)
    Binv: np.ndarray = None
    age: int = 0
    source: np.ndarray = None

    def refactor(self):
        try:
            self.Binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError:
            raise NumericFailure("singular simplex basis")
        self.age = 0

    def pivot_basis(self, leave, enter, w):
        """Replace basis[leave] by enter, updating Binv in product form."""
        wl = w[leave]
        if abs(wl) < 1e-13 or self.age >= 64:
            self.basis[leave] = enter
            self.refactor()
            return
        row = self.Binv[leave] / wl
        self.Binv -= np.outer(w, row)
        self.Binv[leave] = row
        self.basis[leave] = enter
        self.age += 1

    def nonbasic_values(self):
        v = np.zeros(self.A.shape[1])
        at_lower = self.status == _AT_LOWER
        at_upper = self.status == _AT_UPPER
        v[at_lower] = self.lb[at_lower]
        v[at_upper] = self.ub[at_upper]
        return v

    def values(self):
        v = self.nonbasic_values()
        rhs = self.b - self.A @ v
        v[self.basis] = self.Binv @ rhs
        return v

    def duals(self, c):
        return c[self.basis] @ self.Binv


_PIVOT_TOL = 1e-11
_COST_TOL = 1e-9
_MAX_ITER = 50000
_FEAS_TOL = 1e-9
_DUAL_PIVOT_TOL = 1e-9


def _choose_entering(tab, d, bland):
    at_upper = tab.status == _AT_UPPER
    score = np.where(at_upper, d, -d)
    sigma = np.where(at_upper, -1.0, 1.0)
    flip = (tab.status == _FREE) & (d > _COST_TOL)
    score[flip] = d[flip]
    sigma[flip] = -1.0
    score[~tab.enterable | (tab.status == _BASIC)] = -np.inf
    if bland:
        ok = score > _COST_TOL
        if not ok.any():
            return None
        best = int(np.argmax(ok))
    else:
        best = int(np.argmax(score))
        if not score[best] > _COST_TOL:
            return None
    return best, float(sigma[best])


def _phase(tab, c, allow_unbounded):
    """Run simplex iterations to optimality of objective c.

    Returns (status, values) where status is OPTIMAL or UNBOUNDED, the
    latter only when allow_unbounded is set (phase one is always bounded).
    """
    m, n = tab.A.shape
    bland_after = 10 * (m + n)
    # columns whose ray proved false on a fresh factorization; they may
    # enter again once the basis changes
    barred = []
    # a nearly singular basis can yield false ray after false ray, each
    # barring one column; Bland's rule cannot cycle
    false_rays = 0
    while True:
        tab.iterations += 1
        if tab.iterations > _MAX_ITER:
            raise NumericFailure("simplex iteration limit")
        x = tab.values()
        y = tab.duals(c)
        d = c - tab.A.T @ y
        bland = tab.degenerate_pivots > bland_after or false_rays >= 2
        pick = _choose_entering(tab, d, bland)
        if pick is None:
            tab.enterable[barred] = True
            return OPTIMAL, x
        e, sigma = pick
        w = tab.Binv @ tab.A[:, e]
        # entering moves by t >= 0 in direction sigma; basic values move -sigma*w*t
        wi = sigma * w
        xB = x[tab.basis]
        lbB = tab.lb[tab.basis]
        ubB = tab.ub[tab.basis]
        cap = np.full(m, np.inf)
        pos = wi > _PIVOT_TOL
        neg = wi < -_PIVOT_TOL
        with np.errstate(invalid="ignore"):
            cap[pos] = np.where(
                np.isfinite(lbB[pos]), (xB[pos] - lbB[pos]) / wi[pos], np.inf
            )
            cap[neg] = np.where(
                np.isfinite(ubB[neg]), (ubB[neg] - xB[neg]) / (-wi[neg]),
                np.inf,
            )
        np.maximum(cap, 0.0, out=cap)
        rng_e = tab.ub[e] - tab.lb[e]
        limit = rng_e if np.isfinite(rng_e) else np.inf
        cap_min = float(np.min(cap, initial=np.inf))
        if cap_min < limit - 1e-12:
            idx = np.nonzero(cap <= cap_min + 1e-12)[0]
            if bland:
                leave = int(idx[np.argmin(tab.basis[idx])])
            else:
                leave = int(idx[np.argmax(np.abs(w[idx]))])
            t_best = cap_min
            leave_hit = _AT_LOWER if wi[leave] > 0 else _AT_UPPER
        else:
            leave = -1
            t_best = limit
        if not np.isfinite(t_best):
            if not allow_unbounded:
                raise NumericFailure("phase one claims unbounded")
            ray = np.zeros(n)
            ray[e] = sigma
            ray[tab.basis] = -sigma * w
            if _ray_holds(tab.A, c, ray):
                tab.enterable[barred] = True
                return UNBOUNDED, ray
            # a false ray: Binv has drifted, or the basis is so near
            # singular that the column's reduced cost is rounding noise
            false_rays += 1
            if tab.age:
                tab.refactor()
            else:
                tab.enterable[e] = False
                barred.append(e)
            continue
        if t_best < 1e-9:
            tab.degenerate_pivots += 1
        else:
            tab.degenerate_pivots = 0
        if barred:
            # the basis changes below, so barred columns may enter again
            tab.enterable[barred] = True
            barred.clear()
        if leave < 0:
            # entering variable flips to its opposite bound
            tab.status[e] = _AT_UPPER if sigma > 0 else _AT_LOWER
            continue
        tab.status[e] = _BASIC
        tab.status[tab.basis[leave]] = leave_hit
        tab.pivot_basis(leave, e, w)


def _ray_holds(A, c, ray):
    """ray, scaled to max|ray| = 1, keeps A ray = 0 and has c.ray < 0.

    The scaling puts both tests in units of the data, as _farkas_holds does
    for Farkas vectors: a ray computed through a nearly singular basis can
    have huge entries, a small raw residual and a raw descent that is
    rounding noise once scaled.
    """
    r = ray / float(np.max(np.abs(ray)))
    resid = float(np.max(np.abs(A @ r), initial=0.0))
    return (resid <= _FEAS_TOL * (1.0 + float(np.max(np.abs(A))))
            and float(c @ r) < -_COST_TOL)


def _solve_box(prob):
    """A problem without rows: push each variable to its favorable bound."""
    rest = np.clip(0.0, prob.lb, prob.ub)
    x = np.where(prob.c > 0, prob.lb, np.where(prob.c < 0, prob.ub, rest))
    far = np.flatnonzero(~np.isfinite(x))
    if len(far):
        ray = np.zeros(len(x))
        ray[far[0]] = -np.sign(prob.c[far[0]])
        return LpResult(UNBOUNDED, x=rest, ray=ray)
    return LpResult(OPTIMAL, x=x, obj=float(prob.c @ x), y=np.zeros(0))


def _finish(prob, tab, c, warm):
    """Price a primal feasible tableau with c to an optimum or a ray.

    Both solves end here, so this is the one place that decides dual
    feasibility.  It mends what a warm start lacks: Harris residue, a basis
    from another c, or a column that looser bounds freed.
    """
    n = prob.A.shape[1]
    st, res = _phase(tab, c, allow_unbounded=True)
    if st == UNBOUNDED:
        # the basic point at which the ray was found
        return LpResult(UNBOUNDED, x=tab.values()[:n], ray=res[:n],
                        iterations=tab.iterations, warm=warm)
    x = res[:n]
    # nothing touches tab once the solve returns: it is the warm start
    return LpResult(OPTIMAL, x=x, obj=float(prob.c @ x), y=tab.duals(c),
                    iterations=tab.iterations, basis=tab, warm=warm)


def _solve_cold(prob):
    """Two-phase primal simplex from an all-artificial basis."""
    m, n = prob.A.shape
    # initial nonbasic rest points: finite bound nearest zero, else free at 0
    status = np.empty(n + m, dtype=int)
    for j in range(n):
        lo, hi = prob.lb[j], prob.ub[j]
        if np.isfinite(lo) and np.isfinite(hi):
            status[j] = _AT_LOWER if abs(lo) <= abs(hi) else _AT_UPPER
        elif np.isfinite(lo):
            status[j] = _AT_LOWER
        elif np.isfinite(hi):
            status[j] = _AT_UPPER
        else:
            status[j] = _FREE
    status[n:] = _BASIC

    v0 = np.zeros(n)
    v0[status[:n] == _AT_LOWER] = prob.lb[status[:n] == _AT_LOWER]
    v0[status[:n] == _AT_UPPER] = prob.ub[status[:n] == _AT_UPPER]
    rho = prob.b - prob.A @ v0
    signs = np.where(rho >= 0, 1.0, -1.0)

    lb = np.concatenate([prob.lb, np.zeros(m)])
    ub = np.concatenate([prob.ub, np.full(m, np.inf)])
    tab = _Tableau(
        A=np.hstack([prob.A, np.diag(signs)]),
        b=prob.b.copy(),
        lb=lb,
        ub=ub,
        basis=np.arange(n, n + m),
        status=status,
        enterable=np.ones(n + m, dtype=bool),
        source=prob.A,
    )
    tab.refactor()

    # fixed columns contribute a constant and must never enter the basis
    tab.enterable[:n] = prob.ub - prob.lb > 0.0

    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    _, x1 = _phase(tab, c1, allow_unbounded=False)
    infeas = float(c1 @ x1)
    if infeas > _infeasible_floor(prob):
        y = tab.duals(c1)
        return LpResult(INFEASIBLE, farkas=y, iterations=tab.iterations)

    # phase two: artificials pinned at zero and barred from entering
    tab.ub[n:] = 0.0
    tab.enterable[n:] = False
    c2 = np.concatenate([prob.c, np.zeros(m)])
    return _finish(prob, tab, c2, warm=False)


def _infeasible_floor(prob):
    """Total infeasibility above which a problem counts as infeasible."""
    return 1e-8 * (1.0 + float(np.linalg.norm(prob.b, np.inf)))


def _dual_phase(tab, c):
    """Bounded dual simplex toward a primal feasible basis.

    Each iteration takes the basic variable furthest outside its bounds out
    of the basis, onto the bound it violates, and brings in the nonbasic
    column that keeps every reduced cost of the right sign (Harris' ratio
    test, largest pivot among near ties).  Returns None once every basic
    value is within its bounds, or a Farkas vector when the violating row
    can no longer move toward its bound.  The start need not be dual
    feasible: _finish checks the first exit and _farkas_holds the second.
    """
    m, n = tab.A.shape
    cap = tab.iterations + 10 * (m + n)
    while True:
        x = tab.values()
        xB = x[tab.basis]
        below = tab.lb[tab.basis] - xB
        above = xB - tab.ub[tab.basis]
        viol = np.maximum(below, above)
        r = int(np.argmax(viol))
        if not np.isfinite(viol[r]):
            raise NumericFailure("non-finite basic value in dual simplex")
        if viol[r] <= _FEAS_TOL * (1.0 + abs(xB[r])):
            return None
        tab.iterations += 1
        if tab.iterations > cap:
            raise NumericFailure("dual simplex iteration limit")
        # s = +1: the leaving variable rises to its lower bound; -1: falls
        s = 1.0 if below[r] > 0 else -1.0
        rho = tab.Binv[r]
        alpha = s * (rho @ tab.A)
        d = c - tab.A.T @ tab.duals(c)
        st = tab.status
        at_lower = (st == _AT_LOWER) & (alpha < -_DUAL_PIVOT_TOL)
        at_upper = (st == _AT_UPPER) & (alpha > _DUAL_PIVOT_TOL)
        free = (st == _FREE) & (np.abs(alpha) > _DUAL_PIVOT_TOL)
        cand = np.nonzero(tab.enterable & (at_lower | at_upper | free))[0]
        if len(cand) == 0:
            return -s * rho
        slack = np.where(st[cand] == _AT_LOWER, d[cand], -d[cand])
        slack[st[cand] == _FREE] = np.abs(d[cand][st[cand] == _FREE])
        np.maximum(slack, 0.0, out=slack)
        size = np.abs(alpha[cand])
        bound = float(np.min((slack + _COST_TOL) / size))
        near = slack / size <= bound
        q = int(cand[near][np.argmax(size[near])])
        leaving = tab.basis[r]
        tab.status[leaving] = _AT_LOWER if s > 0 else _AT_UPPER
        tab.status[q] = _BASIC
        tab.pivot_basis(r, q, tab.Binv @ tab.A[:, q])


def _farkas_holds(prob, y, margin):
    """y.b exceeds sup{y.A x : l <= x <= u} by more than margin.

    y is scaled to max|y| = 1, so the margin is in units of the rows.
    """
    g = prob.A.T @ y
    # products that are zero up to rounding carry no bound (max|y| = 1)
    g[np.abs(g) <= 1e-12] = 0.0
    top = np.where(g > 0, prob.ub, prob.lb)
    with np.errstate(invalid="ignore"):
        sup = float(np.sum(np.where(g != 0.0, g * top, 0.0)))
    return np.isfinite(sup) and float(prob.b @ y) > sup + margin


def _solve_warm(prob, warm):
    """Dual simplex from the final tableau of an earlier optimal solve.

    Returns (result, iterations); result is None when the warm start cannot
    finish and the caller should solve cold.
    """
    m = prob.A.shape[0]
    # the carried inverse is of warm.A's basis columns; any other array,
    # even one of equal shape and values, is solved cold
    if prob.A is not warm.source:
        return None, 0
    lb = np.concatenate([prob.lb, np.zeros(m)])
    ub = np.concatenate([prob.ub, np.zeros(m)])
    status = warm.status.copy()
    # every nonbasic column must still rest on a bound it has
    if (
        np.any((status == _AT_LOWER) & ~np.isfinite(lb))
        or np.any((status == _AT_UPPER) & ~np.isfinite(ub))
        or np.any((status == _FREE) & (np.isfinite(lb) | np.isfinite(ub)))
    ):
        return None, 0
    tab = _Tableau(
        # never written, so shared by every warm descendant of one cold solve
        A=warm.A,
        b=prob.b.copy(),
        lb=lb,
        ub=ub,
        # pivots update these in place, and the sibling node shares them
        basis=warm.basis.copy(),
        status=status,
        enterable=ub - lb > 0.0,
        Binv=warm.Binv.copy(),
        age=warm.age,
        source=warm.source,
    )
    c = np.concatenate([prob.c, np.zeros(m)])
    try:
        y = _dual_phase(tab, c)
        if y is None:
            return _finish(prob, tab, c, warm=True), tab.iterations
    except NumericFailure:
        return None, tab.iterations
    y = y / float(np.max(np.abs(y)))
    if not _farkas_holds(prob, y, _infeasible_floor(prob)):
        return None, tab.iterations
    return LpResult(INFEASIBLE, farkas=y, iterations=tab.iterations,
                    warm=True), tab.iterations


def solve_lp(prob, warm=None):
    """Solve a bounded-variable LP by the simplex method.

    Without warm, runs the two-phase primal simplex.  With warm set to the
    basis (the final tableau) of an optimal result for the same A (b, c and
    the bounds may all differ), re-optimizes from it by the dual simplex,
    starting from the inverse the tableau carries, then prices with c by
    the primal simplex, and falls back to the two-phase method when that
    does not finish.  The warm tableau must come from a problem built on
    the very same A array (prob.A is warm.source); one from any other
    array, even an equal one, is ignored and the problem is solved cold.
    """
    if prob.A.shape[0] == 0:
        return _solve_box(prob)
    spent = 0
    if warm is not None:
        res, spent = _solve_warm(prob, warm)
        if res is not None:
            return res
    res = _solve_cold(prob)
    res.iterations += spent
    return res
