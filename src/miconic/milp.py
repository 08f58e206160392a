"""Branch and bound for mixed-integer linear programs over the simplex core.

Nodes are explored best-bound first; branching picks the integer variable
whose relaxation value is nearest the middle of two integers, ties broken by
lowest index, and splits on floor/ceil.  Integer variables must carry finite
bounds, which keeps the tree finite even when a node relaxation is unbounded:
such a node is branched on the feasible point its unbounded LP result
carries until the integer part is fixed.

A node LP's final simplex tableau, optimal or unbounded, is its
children's warm start, under the warm-start contract stated in
simplex.py: each open node keeps its parent's tableau, and every node LP
is posed on the one A array given to solve_milp.

One tree serves a sequence of MILPs in which each one tightens the last:
the integer columns and their boxes stay, and a later MILP is an earlier
one with rows and columns added, its objective unchanged on the old
columns, and right-hand sides and bounds moved only so as to shrink the
feasible set (outer approximation appends cut rows with their slacks,
raises the objective row's right-hand side and raises lower bounds).  The
result's leaves are every node not proven infeasible: the nodes pruned by
bound and the integer-feasible ones, each with its own final tableau and
LP bound, and the nodes still open, each with its parent's.  A later MILP
resumes from them, since a node proven infeasible stays infeasible and a
leaf's bound stays a lower bound over its box.  A leaf's tableau is
carried onto the new A by simplex.border when A borders the array the
tableau was made on, and is its LP's warm start from there; otherwise
its LP is solved cold.  The leaves of one earlier array share one
bordering check and one extended array per call, so a resumed tree pays
the check once per earlier array, and the carried inverse is extended,
not factored.  A fresh search is the one leaf holding the whole box, so
both run the same loop.

A deadline on the time.monotonic clock is checked before each node LP;
once it has passed the search stops with status time_limit, whose lower
bound is the least bound among the nodes not yet solved.

gomory_rounds strengthens a MILP before its search with Gomory
mixed-integer (GMI) rows (Gomory 1960; Balas, Ceria, Cornuejols & Natraj
1996): up to _GMI_ROUNDS rounds, each solving the root LP warm from the
last round and appending one row g.x - s = h, with its slack s >= 0,
per cut read off the optimal tableau.  A GMI row holds at every integer
point of the box, so the MILP keeps its integer-feasible points and its
optimum, and the array with the rows borders the array without them;
the search then starts from the last round's tableau, rows or none.  A
later MILP that tightens this one keeps the rows (outer approximation
keeps them in every later MILP of its run), so its leaves resume.  The
rows follow the numerical-safety rules of Cook, Dash, Fukasawa &
Goycoolea ("Numerically safe Gomory mixed-integer cuts", 2009), and a
row that breaks one is dropped, never repaired:

- rows are read only from a freshly factored basis, and only for integer
  basic columns whose value lies more than _GMI_F0 from an integer;
- a row with a nonzero entry on a free nonbasic column is refused;
- a coefficient below _GMI_TINY of the row's largest is dropped by moving
  the right-hand side by the term's largest value over its column's
  bounds, and the row is refused when that column is unbounded that way;
- a row whose largest coefficient exceeds _GMI_DYNAMISM times its least
  is refused;
- the right-hand side moves outward by _GMI_RELAX (1 + |h|).

Each row is written over the columns the MILP had before the rounds,
earlier rounds' slacks substituted by their rows, so that the rule for
tiny coefficients moves h over the MILP's own bounds: an earlier slack
has no upper bound, and a tiny coefficient on it can refuse the row.
"""

import dataclasses
import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericFailure, UnboundedInteger
from .simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, border,
                      bordered, solve_lp)

INT_TOL = 1e-6  # integral within INT_TOL: B&B's rule, and oa's
_FRACTION_TIE = 1e-15  # fractionalities this close tie; the first one wins
# a node is pruned when its bound is within this relative gap of the incumbent
_REL_GAP = 1e-8
_NODE_LIMIT = 1_000_000
# Gomory mixed-integer rounds: the most rounds, the least distance of a
# row's basic value from an integer, the size relative to the row's
# largest coefficient below which a coefficient is dropped, the largest
# ratio of a row's largest coefficient to its least, and the relative
# outward shift of each right-hand side
_GMI_ROUNDS = 10
_GMI_F0 = 1e-4
_GMI_TINY = 1e-9
_GMI_DYNAMISM = 1e6
_GMI_RELAX = 1e-9

TIME_LIMIT = "time_limit"


@dataclass
class MilpResult:
    """Outcome of branch and bound.

    status is optimal, infeasible, unbounded or time_limit.  The entries
    of x at the integer columns are exact integers, rounded from the LP
    point, so a caller can read an assignment from them.  nodes counts
    the node LPs solved, one per node, and pivots their simplex iterations.
    leaves are the search's nodes not proven infeasible, each a tuple
    (bound, tie-breaker, lower bounds, upper bounds, tableau): the warm
    start of a later MILP that tightens this one (see the module
    docstring), which reads the bounds of the integer columns only.
    """

    status: str
    x: np.ndarray = None
    obj: float = None
    lower_bound: float = -np.inf
    nodes: int = 0
    ray: np.ndarray = None
    pivots: int = 0
    leaves: list = field(default_factory=list)


def _most_fractional(x, int_idx):
    best_j, best_score = -1, INT_TOL
    for j in int_idx:
        f = x[j] - np.floor(x[j])
        score = min(f, 1.0 - f)
        if score > best_score + _FRACTION_TIE:
            best_j, best_score = j, score
    return best_j


def solve_milp(A, b, c, lb, ub, int_idx, deadline=None, warm=None):
    """Globally solve min c.x s.t. A x = b, lb <= x <= ub, x_j integer on int_idx.

    deadline, a time.monotonic() value, stops the search with status
    time_limit before the first node LP that would start after it.  warm,
    the leaves (MilpResult.leaves) of an earlier MILP that this one
    tightens, resumes that search; each leaf's integer box is laid over
    lb and ub.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    lb = np.asarray(lb, dtype=float).ravel()
    ub = np.asarray(ub, dtype=float).ravel()
    int_idx = sorted(int(j) for j in int_idx)
    for j in int_idx:
        if not (np.isfinite(lb[j]) and np.isfinite(ub[j])):
            raise UnboundedInteger("integer variable %d needs finite bounds" % j)

    best_x, best_obj = None, np.inf
    # open nodes: (bound, tie-breaker, lower, upper, tableau), the leaves
    # of an earlier search, whose integer boxes are laid over lb and ub,
    # and the children of this one
    if warm is None:
        warm = [(-np.inf, 0, lb, ub, None)]
    heap = []
    for bound, tie, llb, lub, tab in warm:
        nlb, nub = lb.copy(), ub.copy()
        nlb[int_idx] = np.maximum(lb[int_idx], llb[int_idx])
        nub[int_idx] = np.minimum(ub[int_idx], lub[int_idx])
        heap.append((bound, tie, nlb, nub, tab))
    heapq.heapify(heap)
    counter = 1 + max((node[1] for node in heap), default=0)
    leaves = []
    nodes = pivots = 0
    # simplex.border's memo of the leaves' arrays, dropped on return
    arrays = {}

    def result(status, **fields):
        return MilpResult(status, nodes=nodes, pivots=pivots,
                          leaves=leaves + heap, **fields)

    def snap(x):
        out = x.copy()
        for j in int_idx:
            out[j] = round(out[j])
        return out

    while heap:
        node = heapq.heappop(heap)
        bound, tie, nlb, nub, tab = node
        cutoff = (np.inf if best_x is None
                  else best_obj - _REL_GAP * (1.0 + abs(best_obj)))
        if bound >= cutoff:
            # everything left on the heap is at least this bound
            heapq.heappush(heap, node)
            break
        if np.any(nlb > nub):
            continue
        if deadline is not None and time.monotonic() > deadline:
            # best-bound order: no open node has a bound below this one's
            heapq.heappush(heap, node)
            return result(TIME_LIMIT, lower_bound=bound)
        # nodes counts the node LPs solved
        nodes += 1
        if nodes > _NODE_LIMIT:
            raise NumericFailure("branch and bound node limit exceeded")
        if tab is not None and tab.source is not A:
            tab = border(tab, A, arrays)
        res = solve_lp(LpProblem(A, b, c, nlb, nub), warm=tab)
        pivots += res.iterations
        if res.status == INFEASIBLE:
            continue
        x = res.x
        node_bound = res.obj if res.status == OPTIMAL else -np.inf
        leaf = (node_bound, tie, nlb, nub, res.basis)
        if node_bound >= cutoff:
            leaves.append(leaf)
            continue
        j = _most_fractional(x, int_idx)
        if j < 0:
            leaves.append(leaf)
            if res.status == UNBOUNDED:
                # integer bounds are finite, so the ray lives in the
                # continuous part; the feasible point extends to an
                # unbounded mixed solution, its integer part fixed
                return result(UNBOUNDED, x=snap(x), lower_bound=-np.inf,
                              ray=res.ray)
            best_obj, best_x = node_bound, snap(x)
            continue
        lo = np.floor(x[j])
        left_ub = nub.copy()
        left_ub[j] = lo
        right_lb = nlb.copy()
        right_lb[j] = lo + 1.0
        heapq.heappush(heap, (node_bound, counter, nlb, left_ub, res.basis))
        heapq.heappush(heap, (node_bound, counter + 1, right_lb, nub, res.basis))
        counter += 2

    lower = heap[0][0] if heap else best_obj
    if best_x is None:
        if heap:
            raise NumericFailure("branch and bound stopped with open nodes")
        return result(INFEASIBLE, lower_bound=np.inf)
    return result(OPTIMAL, x=best_x, obj=best_obj,
                  lower_bound=min(lower, best_obj))


@dataclass
class GomoryRounds:
    """The MILP with the rows of Gomory rounds appended, and its start.

    A, b, c, lb and ub are the MILP given to gomory_rounds with one row
    g.x - s = h per GMI row and its slack column s >= 0 appended, over the
    columns the MILP had before the rounds.  warm is the leaves to hand
    solve_milp: [] when a round LP proved the box infeasible, else the
    box's one leaf with the last round LP's tableau (refactored if optimal)
    or with none (a fresh search) when no round got that far.  rounds
    counts the rounds that appended rows, rows those rows, lps the round
    LPs posed and pivots the simplex iterations of those that returned.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    warm: list
    rounds: int = 0
    rows: int = 0
    lps: int = 0
    pivots: int = 0


def _gomory_rows(tab, int_idx, n0, G, H):
    """The GMI rows (g, h), g.x >= h over the first n0 columns, read off
    tab, the freshly factored final tableau of an optimal LP whose columns
    past n0 are the slacks of earlier rows G x - s = H.

    One product gives the tableau rows of every integer basic column
    whose value lies more than _GMI_F0 from an integer.  Each nonbasic
    column enters as its distance t >= 0 from the bound it rests on, an
    integer one when the column is integer and that bound integral; a
    fixed column drops, and a free one with a nonzero entry refuses the
    row.  The cut sum(pi t) >= 1 is written in x and its slack terms
    substituted by G and H, so it cuts the LP point off by 1.  A
    coefficient below _GMI_TINY of the row's largest drops by moving h by
    the term's largest value over its column's bounds, and the row is
    refused when that is infinite, when the largest coefficient exceeds
    _GMI_DYNAMISM times the least one left, or when anything is not
    finite.  h then moves outward by _GMI_RELAX (1 + |h|).  A row that
    fails a check is dropped, never repaired.
    """
    # the refactor has just computed the basic values
    x = tab.point()
    n = tab.source.shape[1]
    basic = np.zeros(len(x), dtype=bool)
    basic[tab.basis] = True
    is_int = np.zeros(len(x), dtype=bool)
    is_int[int_idx] = True
    xB = tab.xB
    f0 = xB - np.floor(xB)
    rows = np.flatnonzero(is_int[tab.basis] & (f0 > _GMI_F0)
                          & (f0 < 1.0 - _GMI_F0))
    if not len(rows):
        return np.zeros((0, n0)), np.zeros(0)
    cols = np.flatnonzero(~basic & (tab.lb < tab.ub))
    xN, lbN, ubN = x[cols], tab.lb[cols], tab.ub[cols]
    # t = x - lb at a lower bound, ub - x at an upper one
    sign = np.where(xN == lbN, 1.0, -1.0)
    free = (xN != lbN) & (xN != ubN)
    a = (tab.Binv[rows] @ tab.A[:, cols]) * sign
    f0 = f0[rows][:, None]
    ok = ~np.any(free & (a != 0.0), axis=1)
    fj = a - np.floor(a)
    pi = np.where(is_int[cols] & (xN == np.round(xN)),
                  np.minimum(fj / f0, (1.0 - fj) / (1.0 - f0)),
                  np.where(a >= 0.0, a / f0, -a / (1.0 - f0)))
    g = np.zeros((len(rows), len(x)))
    g[:, cols] = pi * sign
    # sum(pi t) >= 1 with each t written in x
    h = 1.0 + g[:, cols] @ xN
    # the slacks past n0 are G x - H
    g, h = g[:, :n0] + g[:, n0:n] @ G, h + g[:, n0:n] @ H
    big = np.max(np.abs(g), axis=1)
    ok &= np.isfinite(big) & (big > 0.0) & np.isfinite(h)
    g[~ok], h[~ok], big[~ok] = 0.0, 0.0, 1.0
    lb, ub = tab.lb[:n0], tab.ub[:n0]
    tiny = (g != 0.0) & (np.abs(g) < _GMI_TINY * big[:, None])
    top = np.where(g > 0.0, ub, lb)
    reach = np.isfinite(top)
    ok &= ~np.any(tiny & ~reach, axis=1)
    h -= np.sum(np.where(tiny & reach, g * np.where(reach, top, 0.0), 0.0),
                axis=1)
    g[tiny] = 0.0
    least = np.min(np.where(g != 0.0, np.abs(g), np.inf), axis=1)
    ok &= least * _GMI_DYNAMISM >= big
    h -= _GMI_RELAX * (1.0 + np.abs(h))
    ok &= np.isfinite(h)
    return g[ok], h[ok]


def gomory_rounds(A, b, c, lb, ub, int_idx, deadline=None):
    """Up to _GMI_ROUNDS rounds of Gomory mixed-integer rows at the root of
    min c.x s.t. A x = b, lb <= x <= ub, x_j integer on int_idx.

    Each round solves the root LP, warm from the last round's tableau
    carried onto the bordered array, and appends the rows _gomory_rows
    reads off its optimum, each with its slack column.  Every GMI row is
    valid for every integer point of the box, so the result (GomoryRounds)
    has the same integer-feasible points and optimum; it is an array the
    given one borders.  The rounds end when one appends no row, its LP is
    not optimal, the deadline (a time.monotonic() value) has passed before
    its LP, or its LP or factorization raises NumericFailure; a round that
    does not finish appends nothing.
    """
    prob = LpProblem(A, b, c, lb, ub)
    n0 = prob.A.shape[1]
    G, H = np.zeros((0, n0)), np.zeros(0)
    warm = [(-np.inf, 0, prob.lb, prob.ub, None)]
    rounds = rows = lps = pivots = 0
    tab = None
    while rounds < _GMI_ROUNDS:
        if deadline is not None and time.monotonic() > deadline:
            break
        if tab is not None:
            tab = border(tab, prob.A, {})
        lps += 1
        try:
            res = solve_lp(prob, warm=tab)
            pivots += res.iterations
            if res.status != OPTIMAL:
                warm = ([] if res.status == INFEASIBLE
                        else [(-np.inf, 0, prob.lb, prob.ub, res.basis)])
                break
            # rows are read off, and the next round and the search start
            # from, a fresh factorization of the optimal basis
            tab = dataclasses.replace(res.basis)
            tab.refactor()
            g, h = _gomory_rows(tab, int_idx, n0, G, H)
        except NumericFailure:
            break
        warm = [(res.obj, 0, prob.lb, prob.ub, tab)]
        if not len(h):
            break
        prob = bordered(prob, g, h, slice(0, n0))
        G, H = np.vstack([G, g]), np.concatenate([H, h])
        rounds += 1
        rows += len(h)
    return GomoryRounds(prob.A, prob.b, prob.c, prob.lb, prob.ub, warm,
                        rounds, rows, lps, pivots)
