"""Branch and bound for mixed-integer linear programs over the simplex core.

Nodes are explored best-bound first; branching picks the integer variable
whose relaxation value is nearest the middle of two integers, ties broken by
lowest index, and splits on floor/ceil.  Integer variables must carry finite
bounds, which keeps the tree finite even when a node relaxation is unbounded:
such a node is branched on the feasible point its unbounded LP result
carries until the integer part is fixed.

A node LP's final simplex tableau is its children's warm start, under the
warm-start contract stated in simplex.py: each open node keeps its
parent's tableau, and every node LP is posed on the one A array given to
solve_milp.  Children of nodes without an optimal LP are solved cold.

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
"""

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericFailure, UnboundedInteger
from .simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, border,
                      solve_lp)

_INT_TOL = 1e-6
# a node is pruned when its bound is within this relative gap of the incumbent
_REL_GAP = 1e-8
_NODE_LIMIT = 1_000_000

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
    best_j, best_score = -1, _INT_TOL
    for j in int_idx:
        f = x[j] - np.floor(x[j])
        score = min(f, 1.0 - f)
        if score > best_score + 1e-15:
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
