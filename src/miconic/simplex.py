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
More false rays in one phase than the extended array has columns end the
solve with NumericFailure.

Both methods carry the basic values x_B and the reduced costs d through
the one pivot step, _Tableau.pivot (Koberstein 2005, ch. 3; Maros 2003):
x_B moves along the pivot column, and d along the dual method's pivot row;
the primal method, which forms no pivot row, prices d afresh after each
pivot.  Both are computed afresh at a solve's start, when the objective
changes and at each refactor.  The dual method decides that it is primal
feasible on x_B recomputed from the inverse, and hands those values and
the carried d to the primal pricing that ends every solve.

The warm-start contract.  An optimal or unbounded result carries its final
tableau: the extended array [A, I'] the solve pivoted on (I' the signed
artificial columns), the basis, every column's rest and the basis
inverse.  Passing the tableau back with another problem re-optimizes by
the bounded dual simplex method (Koberstein, *The dual simplex method*,
2005), then prices with c by the primal simplex.  b, c and the bounds may
all differ from the earlier problem's, but A must be the very same array
(prob.A is warm.source).  The solve starts from the carried inverse rather
than a fresh factorization.  The extended array is never written, so every
warm descendant of one solve shares it, and the inverse's age, the
product-form updates since its last refactor, carries over too, so the
refactor after 64 updates counts them along the whole chain of warm
starts.  Branch and bound solves each child node this way from its
parent's final tableau, whatever its parent's status.

A tableau reaches another array only through border, when that array
borders its own: more rows, the old array equal in value to its leading
block, and each appended column zero above the old rows and the slack of
one new row, the i-th column of the i-th row.  bordered builds every such
array the package poses.  The old columns keep their rests, the new slacks
enter the basis, the new artificials rest at zero, and the basis inverse
is the carried one extended by the block formula for a bordered matrix, so
no factorization runs and its age carries over.  The result is posed on
the new array, a warm start as above.  Outer approximation resumes each
MILP's search tree this way: every leaf the previous MILPs handed on
carries a tableau on an earlier array, which the new cut rows border, and
branch and bound checks the bordering and builds the extended array once
per earlier array, not once per leaf.

Tightening bounds keeps the basis dual feasible, and so do new rows with
basic slacks; the final primal pass, which ends every solve, mends
whatever dual infeasibility a start has.  Whenever the warm start cannot
finish (a tableau on any other array, an equal copy of A included, a
rest on a bound the problem lacks, singular refactor, iteration cap, or a
certificate that fails its check) the solve falls back to the cold
two-phase method.
"""

from dataclasses import dataclass

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
    x, obj and the equality-row duals y are set.  For infeasible results
    farkas holds y with y.b > sup{y.A x : l <= x <= u}.  For unbounded
    results x is a point that meets the rows and bounds and ray a recession
    direction with A ray = 0 and c.ray < 0.  basis, set for both, is the
    final tableau, a warm start (module docstring).  iterations counts
    simplex iterations of both methods when a warm start fell back to a
    cold solve; warm tells whether the result, of any status, came from the
    warm start.
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
    since it was last refactored.  Each update or refactor makes a new
    Binv array and none is written in place, so tableaus may share one.
    xB holds the basic values by basis position and d the reduced costs of
    the objective c, zero on the basis; pivot carries both, and recompute,
    which each refactor calls, computes them afresh.
    """

    A: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    basis: np.ndarray
    status: np.ndarray
    iterations: int = 0
    enterable: np.ndarray = None
    Binv: np.ndarray = None
    age: int = 0
    source: np.ndarray = None
    c: np.ndarray = None
    xB: np.ndarray = None
    d: np.ndarray = None

    def refactor(self):
        try:
            self.Binv = np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError:
            raise NumericFailure("singular simplex basis")
        self.age = 0
        self.recompute()

    def recompute(self):
        """xB, and d when c is set, afresh from Binv."""
        self.xB = self.basic_values()
        if self.c is not None:
            self.price()

    def price(self):
        """d afresh from Binv."""
        d = self.c - self.A.T @ self.duals(self.c)
        d[self.basis] = 0.0
        self.d = d

    def pivot(self, leave, enter, w, rest, step, row=None):
        """Replace basis[leave] by enter, w = Binv a_enter, updating Binv
        in product form; the leaving column comes to rest at rest.

        The entering column moves by step from its rest and every basic
        value by -step w.  row, the pivot row Binv[leave] A under any
        nonzero scale, updates d; without it d is priced afresh.
        """
        st = self.status[enter]
        value = step + (self.lb[enter] if st == _AT_LOWER
                        else self.ub[enter] if st == _AT_UPPER else 0.0)
        self.status[self.basis[leave]] = rest
        self.status[enter] = _BASIC
        self.basis[leave] = enter
        wl = w[leave]
        if abs(wl) < _TINY_PIVOT or self.age >= 64:
            self.refactor()
            return
        row_inv = self.Binv[leave] / wl
        # into a new array: Binv is never written in place, so a warm
        # start shares it with the tableau it starts from
        Binv = np.outer(w, row_inv)
        np.subtract(self.Binv, Binv, out=Binv)
        Binv[leave] = row_inv
        self.Binv = Binv
        self.age += 1
        self.xB = self.xB - step * w
        self.xB[leave] = value
        if row is None:
            self.price()
        else:
            d = self.d - (self.d[enter] / row[enter]) * row
            d[self.basis] = 0.0
            self.d = d

    def basic_values(self):
        """The basic values afresh from Binv, by basis position."""
        return self.Binv @ (self.b - self.A @ _rests(self.status, self.lb,
                                                     self.ub))

    def values(self):
        """Every column's value, the basic ones afresh from Binv."""
        v = _rests(self.status, self.lb, self.ub)
        v[self.basis] = self.basic_values()
        return v

    def point(self):
        """Every column's value, the basic ones as carried in xB."""
        v = _rests(self.status, self.lb, self.ub)
        v[self.basis] = self.xB
        return v

    def duals(self, c):
        return c[self.basis] @ self.Binv


_PIVOT_TOL = 1e-11
_COST_TOL = 1e-9
_MAX_ITER = 50000
_FEAS_TOL = 1e-9
_DUAL_PIVOT_TOL = 1e-9
_TIE_TOL = 1e-12  # ratio-test caps this close are a tie
_TINY_PIVOT = 1e-13  # a pivot element this small refactors, not updates
_DEGENERATE_STEP = 1e-9  # a primal step this short is a degenerate pivot
_INFEASIBLE_TOL = 1e-8  # phase one's floor, per unit of 1 + max|b|


def _rests(status, lb, ub):
    """Each column's value at its rest: its lower or upper bound, else 0."""
    return np.where(status == _AT_LOWER, lb,
                    np.where(status == _AT_UPPER, ub, 0.0))


def _choose_entering(tab, d, bland, barred):
    # a column enters downward from its upper bound, or free when d > 0;
    # barred columns are kept out as if their bounds were fixed
    st = tab.status
    down = (st == _AT_UPPER) | ((st == _FREE) & (d > _COST_TOL))
    sigma = np.where(down, -1.0, 1.0)
    score = -sigma * d
    score[~tab.enterable | (st == _BASIC)] = -np.inf
    if barred:
        score[barred] = -np.inf
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
    if tab.c is not c:
        tab.c = c
        tab.recompute()
    bland_after = 10 * (m + n)
    # columns whose ray proved false on a fresh factorization; they may
    # enter again once the basis changes
    barred = []
    # a nearly singular basis can yield false ray after false ray, each
    # barring one column; Bland's rule cannot cycle, but a basis that
    # stays near singular can, so more false rays than columns end it
    false_rays = 0
    # this phase's run of degenerate pivots; a long one switches to Bland's
    degenerate = 0
    while True:
        tab.iterations += 1
        if tab.iterations > _MAX_ITER:
            raise NumericFailure("simplex iteration limit")
        bland = degenerate > bland_after or false_rays >= 2
        pick = _choose_entering(tab, tab.d, bland, barred)
        if pick is None:
            return OPTIMAL, tab.point()
        e, sigma = pick
        w = tab.Binv @ tab.A[:, e]
        # entering moves by t >= 0 in direction sigma; basic values move -sigma*w*t
        wi = sigma * w
        xB = tab.xB
        # x_B is finite, so an infinite bound gives an infinite cap
        with np.errstate(divide="ignore", invalid="ignore"):
            cap = np.where(
                wi > _PIVOT_TOL, (xB - tab.lb[tab.basis]) / wi,
                np.where(wi < -_PIVOT_TOL, (tab.ub[tab.basis] - xB) / -wi,
                         np.inf),
            )
        np.maximum(cap, 0.0, out=cap)
        limit = tab.ub[e] - tab.lb[e]
        cap_min = float(np.min(cap, initial=np.inf))
        if cap_min < limit - _TIE_TOL:
            idx = np.nonzero(cap <= cap_min + _TIE_TOL)[0]
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
                return UNBOUNDED, ray
            # a false ray: Binv has drifted, or the basis is so near
            # singular that the column's reduced cost is rounding noise
            false_rays += 1
            if false_rays > n:
                raise NumericFailure("simplex false rays outnumber columns")
            if tab.age:
                tab.refactor()
            else:
                barred.append(e)
            continue
        degenerate = degenerate + 1 if t_best < _DEGENERATE_STEP else 0
        # the basis or a rest changes below: barred columns may enter again
        barred.clear()
        if leave < 0:
            # entering variable flips to its opposite bound; the basis, so
            # d, stays
            tab.status[e] = _AT_UPPER if sigma > 0 else _AT_LOWER
            tab.xB = xB - (sigma * t_best) * w
            continue
        tab.pivot(leave, e, w, leave_hit, sigma * t_best)


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
    from another c, or a column that looser bounds freed.  Nothing touches
    tab once the solve returns: it is the warm start of either result.
    """
    n = prob.A.shape[1]
    st, res = _phase(tab, c, allow_unbounded=True)
    if st == UNBOUNDED:
        # the basic point at which the ray was found
        return LpResult(UNBOUNDED, x=tab.values()[:n], ray=res[:n],
                        iterations=tab.iterations, basis=tab, warm=warm)
    x = res[:n]
    return LpResult(OPTIMAL, x=x, obj=float(prob.c @ x), y=tab.duals(c),
                    iterations=tab.iterations, basis=tab, warm=warm)


def _tableau(prob, A, basis, status, art_ub):
    """prob's tableau on the extended array A, and c padded with zeros.

    The artificials lie in [0, art_ub]: unbounded above in phase one,
    pinned at zero in phase two and in every warm start.  A column may
    enter only when its bounds leave it room, so fixed columns never do.
    """
    m = prob.A.shape[0]
    lb = np.concatenate([prob.lb, np.zeros(m)])
    ub = np.concatenate([prob.ub, np.full(m, art_ub)])
    tab = _Tableau(A=A, b=prob.b, lb=lb, ub=ub, basis=basis, status=status,
                   enterable=ub - lb > 0.0, source=prob.A)
    return tab, np.concatenate([prob.c, np.zeros(m)])


def _solve_cold(prob):
    """Two-phase primal simplex from an all-artificial basis."""
    m, n = prob.A.shape
    # each column rests at its finite bound nearest zero, a tie going to
    # the lower one, else at its one finite bound, else free at zero
    lower = np.isfinite(prob.lb) & (np.abs(prob.lb) <= np.abs(prob.ub))
    status = np.where(lower, _AT_LOWER,
                      np.where(np.isfinite(prob.ub), _AT_UPPER, _FREE))
    rho = prob.b - prob.A @ _rests(status, prob.lb, prob.ub)
    signs = np.where(rho >= 0, 1.0, -1.0)
    tab, c2 = _tableau(prob, np.hstack([prob.A, np.diag(signs)]),
                       np.arange(n, n + m),
                       np.concatenate([status, np.full(m, _BASIC)]), np.inf)
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    tab.c = c1
    tab.refactor()
    _, x1 = _phase(tab, c1, allow_unbounded=False)
    infeas = float(c1 @ x1)
    if infeas > _infeasible_floor(prob):
        y = tab.duals(c1)
        return LpResult(INFEASIBLE, farkas=y, iterations=tab.iterations)

    # phase two: artificials pinned at zero and barred from entering
    tab.ub[n:] = 0.0
    tab.enterable[n:] = False
    return _finish(prob, tab, c2, warm=False)


def _infeasible_floor(prob):
    """Total infeasibility above which a problem counts as infeasible."""
    return _INFEASIBLE_TOL * (1.0 + float(np.linalg.norm(prob.b, np.inf)))


def _dual_phase(tab, c):
    """Bounded dual simplex toward a primal feasible basis.

    Each iteration takes the basic variable furthest outside its bounds out
    of the basis, onto the bound it violates, and brings in the nonbasic
    column that keeps every reduced cost of the right sign (Harris' ratio
    test, largest pivot among near ties).  Returns None once every basic
    value is within its bounds, or a Farkas vector when the violating row
    can no longer move toward its bound.  The first exit is decided on
    basic values recomputed from Binv, which tab then carries.  The start
    need not be dual feasible: _finish checks the first exit and
    _farkas_holds the second.
    """
    m, n = tab.A.shape
    cap = tab.iterations + 10 * (m + n)
    fresh = tab.c is not c
    if fresh:
        tab.c = c
        tab.recompute()
    # the basic columns' bounds, and the columns that may enter from each
    # rest: a pivot changes one basic column and moves two columns' rests
    lbB, ubB = tab.lb[tab.basis], tab.ub[tab.basis]
    st = tab.status
    at_lower = tab.enterable & (st == _AT_LOWER)
    at_upper = tab.enterable & (st == _AT_UPPER)
    free = tab.enterable & (st == _FREE)
    while True:
        xB = tab.xB
        below = lbB - xB
        above = xB - ubB
        viol = np.maximum(below, above)
        r = int(np.argmax(viol))
        if viol[r] <= _FEAS_TOL * (1.0 + abs(xB[r])):
            if fresh:
                return None
            # exit on basic values recomputed from Binv, not carried ones
            tab.xB, fresh = tab.basic_values(), True
            continue
        fresh = False
        if not np.isfinite(viol[r]):
            raise NumericFailure("non-finite basic value in dual simplex")
        tab.iterations += 1
        if tab.iterations > cap:
            raise NumericFailure("dual simplex iteration limit")
        # s = +1: the leaving variable rises to its lower bound; -1: falls
        s = 1.0 if below[r] > 0 else -1.0
        rho = tab.Binv[r]
        alpha = s * (rho @ tab.A)
        up = at_lower & (alpha < -_DUAL_PIVOT_TOL)
        down = at_upper & (alpha > _DUAL_PIVOT_TOL)
        cand = np.nonzero(up | down
                          | (free & (np.abs(alpha) > _DUAL_PIVOT_TOL)))[0]
        if len(cand) == 0:
            return -s * rho
        dc = tab.d[cand]
        slack = np.where(up[cand], dc, -dc)
        f = free[cand]
        slack[f] = np.abs(dc[f])
        np.maximum(slack, 0.0, out=slack)
        size = np.abs(alpha[cand])
        bound = float(np.min((slack + _COST_TOL) / size))
        near = slack / size <= bound
        q = int(cand[near][np.argmax(size[near])])
        w = tab.Binv @ tab.A[:, q]
        leaving = tab.basis[r]
        target = lbB[r] if s > 0 else ubB[r]
        tab.pivot(r, q, w, _AT_LOWER if s > 0 else _AT_UPPER,
                  (xB[r] - target) / w[r], alpha)
        lbB[r], ubB[r] = tab.lb[q], tab.ub[q]
        (at_lower if s > 0 else at_upper)[leaving] = tab.enterable[leaving]
        at_lower[q] = at_upper[q] = free[q] = False


def _farkas_holds(prob, y, margin):
    """y.b exceeds sup{y.A x : l <= x <= u} by more than margin.

    y is scaled to max|y| = 1, so the margin is in units of the rows.  A
    product (A'y)_j within _DUAL_PIVOT_TOL, _dual_phase's zero, bounds
    nothing toward an infinite bound; every other one counts exactly.
    """
    g = prob.A.T @ y
    top = np.where(g > 0, prob.ub, prob.lb)
    g[(np.abs(g) <= _DUAL_PIVOT_TOL) & np.isinf(top)] = 0.0
    with np.errstate(invalid="ignore"):
        sup = float(np.sum(np.where(g != 0.0, g * top, 0.0)))
    return np.isfinite(sup) and float(prob.b @ y) > sup + margin


def _bordering(A, warm):
    """The extended array [A, diag(signs)] a tableau on warm.A carries to
    A, or None when A does not border warm.source.

    A borders it when its leading block equals warm.source, its appended
    columns are zero above the new rows, and below them each holds one
    nonzero, in the row of its own index: the i-th new column is the slack
    of the i-th new row.  The old rows keep the signs of warm.A's
    artificial columns and the new rows get +1.  The answer depends on
    warm.A and A alone, so every tableau on one array shares it.
    """
    m0, n0 = warm.source.shape
    m, n = A.shape
    k = m - m0
    if k <= 0 or n - n0 != k:
        return None
    slacks = A[m0:, n0:]
    if not (np.array_equal(A[:m0, :n0], warm.source)
            and not np.any(A[:m0, n0:])
            and np.count_nonzero(slacks) == k
            and np.all(np.diagonal(slacks) != 0.0)):
        return None
    signs = np.ones(m)
    signs[:m0] = np.diagonal(warm.A[:, n0:])
    return np.hstack([A, np.diag(signs)])


def bordered(prob, rows, rhs, cols):
    """prob (an LpProblem or any object with its five arrays) with rows
    g.x - s = h, g from rows on the columns cols and h from rhs, each with
    its own slack s in [0, inf) at cost 0, the slacks last: an LpProblem
    whose A borders prob.A (see _bordering), or is prob.A if rhs is empty,
    and whose b, c and bounds are new arrays, free to write."""
    k, (m, n) = len(rhs), prob.A.shape
    A = prob.A
    if k:
        A = np.zeros((m + k, n + k))
        A[:m, :n] = prob.A
        A[m:, cols] = rows
        A[m:, n:] -= np.eye(k)  # -I; subtracting keeps its zeros +0.0
    return LpProblem(A, np.concatenate([prob.b, rhs]),
                     np.concatenate([prob.c, np.zeros(k)]),
                     np.concatenate([prob.lb, np.zeros(k)]),
                     np.concatenate([prob.ub, np.full(k, np.inf)]))


def border(warm, A, arrays):
    """warm, the final tableau of an optimal or unbounded solve, carried
    onto A, an array that borders warm.source (see _bordering), as a warm
    start posed on A; None when A does not border it.

    Old structural columns keep their index and rest, old artificial
    columns their rest and sign; the new slacks are basic and the new
    artificials rest at zero.  With the new slacks last, the basis is
    [[B, 0], [R, S]]: B the old basis, R the new rows on its columns and
    S the diagonal of the slacks.  So its inverse is
    [[B^-1, 0], [-S^-1 R B^-1, S^-1]] (Koberstein 2005, ch. 3), built from
    the carried inverse without a factorization, and the inverse's age
    carries over with it.

    arrays, a dict a caller keeps while it poses its LPs on the one array
    A, holds the outcome of _bordering per carried extended array, so the
    tableaus on one array share one check and one extended array.
    """
    # the entry keeps warm.A alive, so its id names it for the dict's life
    if id(warm.A) not in arrays:
        arrays[id(warm.A)] = warm.A, _bordering(A, warm)
    ext = arrays[id(warm.A)][1]
    if ext is None:
        return None
    m0, n0 = warm.source.shape
    m, n = A.shape
    # where each column of warm.A sits in the bordered extended array
    old = np.concatenate([np.arange(n0), np.arange(n, n + m0)])
    status = np.full(n + m, _AT_LOWER)
    status[old] = warm.status
    status[n0:n] = _BASIC
    kept = old[warm.basis]
    s = np.diagonal(ext[m0:, n0:n])
    Binv = np.zeros((m, m))
    Binv[:m0, :m0] = warm.Binv
    Binv[m0:, :m0] = (ext[m0:, kept] @ warm.Binv) / -s[:, None]
    Binv[m0:, m0:] = np.diag(1.0 / s)
    return _Tableau(A=ext, b=None, lb=None, ub=None,
                    basis=np.concatenate([kept, np.arange(n0, n)]),
                    status=status, Binv=Binv, age=warm.age, source=A)


def _solve_warm(prob, warm):
    """Dual simplex from the final tableau of an earlier solve.

    Returns (result, iterations); result is None when the warm start cannot
    finish and the caller should solve cold.
    """
    # the carried inverse is of warm.A's basis columns, so it serves only
    # the very same array, whose extended array is never written and so
    # shared by every warm descendant of one solve, as is the inverse
    # until a pivot replaces it; basis and rests are copied, since pivots
    # update them in place and a sibling node starts from the same
    # parent.  Any other array, even one of equal values or one that
    # borders warm.source (border carries warm onto it first), is solved
    # cold
    if prob.A is not warm.source:
        return None, 0
    tab, c = _tableau(prob, warm.A, warm.basis.copy(), warm.status.copy(),
                      0.0)
    # every nonbasic column must still rest on a bound it has
    st, has_lb, has_ub = tab.status, np.isfinite(tab.lb), np.isfinite(tab.ub)
    if (
        np.any((st == _AT_LOWER) & ~has_lb)
        or np.any((st == _AT_UPPER) & ~has_ub)
        or np.any((st == _FREE) & (has_lb | has_ub))
    ):
        return None, 0
    tab.Binv, tab.age = warm.Binv, warm.age
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
    basis (the final tableau) of an optimal or unbounded result on the very
    same A, or to such a tableau carried onto A by border, re-optimizes
    from it under the warm-start contract of this module's docstring, and
    falls back to the two-phase method when that does not finish.
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
