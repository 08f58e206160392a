"""Branch and bound for mixed-integer linear programs over the simplex core.

Nodes are explored best-bound first; branching picks the integer variable
whose relaxation value is nearest the middle of two integers, ties broken by
lowest index, and splits on floor/ceil.  Integer variables must carry finite
bounds, which keeps the tree finite even when a node relaxation is unbounded:
such a node is branched on the feasible point its unbounded LP result
carries until the integer part is fixed.

A node LP's final simplex tableau, inverse included, is its children's warm
start: each open node keeps its parent's tableau, and its LP is
re-optimized from there by the dual simplex without a fresh factorization.
The two children of a node share the parent's tableau and each copies the
parts it pivots on.  Every node LP is posed on the one A array given to
solve_milp, which the warm start requires.  The root, and children of nodes
without an optimal LP, are solved cold.

A deadline on the time.monotonic clock is checked before each node LP;
once it has passed the search stops with status time_limit, whose lower
bound is the least bound among the nodes not yet solved.
"""

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure, UnboundedInteger
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, solve_lp

_INT_TOL = 1e-6
# a node is pruned when its bound is within this relative gap of the incumbent
_REL_GAP = 1e-8
_NODE_LIMIT = 1_000_000

TIME_LIMIT = "time_limit"


@dataclass
class MilpResult:
    """Outcome of branch and bound.

    status is optimal, infeasible, unbounded or time_limit.  nodes counts
    the node LPs solved, one per node, and pivots their simplex iterations.
    """

    status: str
    x: np.ndarray = None
    obj: float = None
    lower_bound: float = -np.inf
    nodes: int = 0
    ray: np.ndarray = None
    pivots: int = 0


def _most_fractional(x, int_idx):
    best_j, best_score = -1, _INT_TOL
    for j in int_idx:
        f = x[j] - np.floor(x[j])
        score = min(f, 1.0 - f)
        if score > best_score + 1e-15:
            best_j, best_score = j, score
    return best_j


def solve_milp(A, b, c, lb, ub, int_idx, deadline=None):
    """Globally solve min c.x s.t. A x = b, lb <= x <= ub, x_j integer on int_idx.

    deadline, a time.monotonic() value, stops the search with status
    time_limit before the first node LP that would start after it.
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
    # open nodes: (parent bound, tie-breaker, lower, upper, parent tableau)
    heap = [(-np.inf, 0, lb.copy(), ub.copy(), None)]
    counter = 1
    nodes = pivots = 0

    def snap(x):
        out = x.copy()
        for j in int_idx:
            out[j] = round(out[j])
        return out

    while heap:
        node = heapq.heappop(heap)
        bound, _, nlb, nub, warm = node
        if bound >= best_obj - _REL_GAP * (1.0 + abs(best_obj)):
            # everything left on the heap is at least this bound
            heapq.heappush(heap, node)
            break
        if np.any(nlb > nub):
            continue
        if deadline is not None and time.monotonic() > deadline:
            # best-bound order: no open node has a bound below this one's
            return MilpResult(TIME_LIMIT, lower_bound=bound, nodes=nodes,
                              pivots=pivots)
        # nodes counts the node LPs solved
        nodes += 1
        if nodes > _NODE_LIMIT:
            raise NumericFailure("branch and bound node limit exceeded")
        res = solve_lp(LpProblem(A, b, c, nlb, nub), warm=warm)
        pivots += res.iterations
        if res.status == INFEASIBLE:
            continue
        x = res.x
        node_bound = res.obj if res.status == OPTIMAL else -np.inf
        if node_bound >= best_obj - _REL_GAP * (1.0 + abs(best_obj)):
            continue
        j = _most_fractional(x, int_idx)
        if j < 0:
            if res.status == UNBOUNDED:
                # integer bounds are finite, so the ray lives in the
                # continuous part; the feasible point extends to an
                # unbounded mixed solution, its integer part fixed
                return MilpResult(
                    UNBOUNDED, x=snap(x), lower_bound=-np.inf,
                    nodes=nodes, ray=res.ray, pivots=pivots,
                )
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
        return MilpResult(INFEASIBLE, nodes=nodes, lower_bound=np.inf,
                          pivots=pivots)
    return MilpResult(
        OPTIMAL, x=best_x, obj=best_obj,
        lower_bound=min(lower, best_obj), nodes=nodes, pivots=pivots,
    )
