"""Outer approximation for mixed-integer conic programs in standard form.

The driver alternates a MILP relaxation built from an accumulating pool of
dual cuts with continuous conic subproblems on the integer assignments the
MILP proposes.  Every subproblem is posed by _root_relaxation or _fiber
and read by _certificate: a feasible one contributes its dual certificate
and a candidate incumbent, an infeasible one its ray, and when neither
certificate is available the driver separates the MILP point from each
cone factor.  Every cut enters the pool as (factor, block) pairs: the
initial tangents and separation vectors are made one factor at a time,
and the root relaxation's dual, each fiber's certificate and cuts given
to add_cut are split by factor (_blocks).  Each block takes one path
(_block): it is checked (or repaired) against its own dual factor only
and pooled as a cut of its own, unless an earlier cut on that factor
points the same way.  The MILP depends only on the cut pool
and the lower bound, and every solve is deterministic, so an iteration
that adds no cut and leaves the lower bound where it was, up to a rise
within the gap tolerance, is a fixed point: the next MILP differs from
this one only in its objective row's right-hand side, which stays below
its optimum, so the next iteration would repeat this one forever (a
rise at rounding level is no progress).  Instances whose fibers admit no
dual certificates end there, and the driver reports an assumption failure
rather than loop on.

The root relaxation and each MILP are relaxations of the program, so
their optimal values are lower bounds.  One rule ends the run early: a
relaxation optimum that is feasible for the program (_feasible) becomes
the incumbent, at the lower bound, so the gap closes there.  An integral
root then ends the run before any MILP, and a MILP point in K ends its
iteration before the fiber of its assignment is solved.

Each MILP is the previous one plus the new cut rows, a raised objective
row and raised lower bounds, so it tightens the previous one in the sense
of milp.py, and MILP k+1 resumes MILP k's search tree from its leaves:
one tree serves the whole run, while each OA iteration still solves one
MILP to optimality and so keeps the fixed-point rule above.  OA keeps the
last MILP's arrays and appends only what changed (_grow).

The first MILP's root gets up to ten rounds of Gomory mixed-integer rows
(milp.gomory_rounds, whose docstring states their numerical-safety
rules) before its search, which starts from the last round's tableau: of
a run's LPs only the first starts cold.  The rows are valid for every
integer point of the first MILP, and so of every later one, which
tightens it; they are MILP rows, not cuts, so they stay in every later
MILP's arrays, which border them, and never enter the cut pool or
OaOutcome.cuts.  The first trace record counts them: gmi_rounds,
gmi_rows, and gmi_lps and gmi_pivots, the rounds' LPs and their simplex
iterations, which milp_nodes and milp_pivots leave out.
"""

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import cones
from .errors import InvalidCut, NumericFailure, TooLarge
from .ipm import (
    INFEASIBLE,
    NUMERIC_FAILURE,
    OPTIMAL,
    UNBOUNDED,
    ContinuousConicProblem,
    primal_feasible,
    solve_continuous,
)
from .milp import INT_TOL, TIME_LIMIT, gomory_rounds, solve_milp
from .simplex import bordered

SUBPROBLEM_DUAL = "subproblem_dual"
INFEASIBILITY_RAY = "infeasibility_ray"
SEPARATION = "separation"
INITIAL_RELAXATION = "initial_relaxation"

ASSUMPTION_FAILURE = "assumption_failure"
ITERATION_LIMIT = "iteration_limit"

# most integer assignments brute_force_solve will enumerate
_GRID_LIMIT = 100_000


@dataclass
class Cut:
    """A valid inequality beta.z >= 0 with beta in the dual cone product."""

    beta: np.ndarray
    provenance: str
    assignment: tuple = None


@dataclass
class OaConfig:
    """Solve settings: the relative gap tolerance, the most OA iterations,
    and the wall-clock limit in seconds (None for none).  A setting out of
    its range raises ValueError naming the field."""

    tol: float = 1e-5
    max_iters: int = 1000
    time_limit: float = None

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be finite and positive, got %r"
                             % self.tol)
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative, got %r"
                             % self.max_iters)
        if self.time_limit is not None and not self.time_limit >= 0.0:
            raise ValueError("time_limit must be nonnegative or None, got %r"
                             % self.time_limit)


@dataclass
class OaState:
    cones: cones.ConeProduct
    tol: float
    z_upper: float = np.inf
    z_lower: float = -np.inf
    cuts: list = field(default_factory=list)
    incumbent_x: np.ndarray = None
    incumbent_z: np.ndarray = None
    # the unit vectors of the pool's cuts, keyed by cone factor index
    _units: dict = field(default_factory=dict)
    # where the next MILP resumes: the last MILP's leaves, or the rounds'
    leaves: list = None
    # the last MILP's arrays, which the next MILP extends (_grow)
    milp: "_Milp" = None


@dataclass
class _Milp:
    """A MILP relaxation's arrays, the number of pool cuts they hold and
    the index of the objective row, None until it is there."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    cuts: int = 0
    objective: int = None


@dataclass
class OaOutcome:
    status: str
    x: np.ndarray = None
    z: np.ndarray = None
    obj: float = None
    lower_bound: float = -np.inf
    upper_bound: float = np.inf
    iterations: int = 0
    cuts: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    diagnostic: str = None


_REPAIR_CAP = 1e-3


def _onto_dual(f, block):
    """The block if it lies in the dual factor, else a repaired copy or None.

    Numerically computed dual vectors land on either side of the cone
    boundary; a doubling search along the dual factor's canonical interior
    point, of max-abs 1 as the block is, finds a small shift restoring
    membership.  None means the block is farther from the cone than the
    repair cap.
    """
    d = cones.dual(f)
    if cones.member(d, block, 1e-9):
        return block
    g = cones.interior_point(d)
    delta = 1e-10
    while delta <= _REPAIR_CAP:
        cand = block + delta * g
        if cones.member(d, cand, 1e-9):
            return cand
        delta *= 2.0
    return None


def _block(f, raw):
    """raw scaled to max-abs 1, put on the dual of factor f (_onto_dual) and
    scaled to max-abs 1 again, or None beyond repair."""
    block = _onto_dual(f, raw / float(np.max(np.abs(raw))))
    return None if block is None else block / float(np.max(np.abs(block)))


def _blocks(state, beta):
    """(factor index, _block) for each cone factor whose block of beta
    exceeds 1e-12 of beta's max-abs, in factor order; none when beta is
    zero or not finite.  The dual of a product is the product of the
    duals, so the blocks imply beta."""
    scale = float(np.max(np.abs(beta), initial=0.0))
    if not 0.0 < scale < np.inf:
        return []
    K = state.cones
    hit = np.unique(K.factor_of[np.abs(beta) > 1e-12 * scale]).tolist()
    return [(i, _block(K.factors[i], beta[K.slices()[i][1]])) for i in hit]


def _pool(state, blocks, provenance, assignment):
    """Pool each block as a cut of its own, zero off its factor, unless it
    is None or an earlier cut on the same factor points its way."""
    for i, block in blocks:
        if block is None:
            continue
        unit = block / float(np.linalg.norm(block))
        units = state._units.setdefault(i, [])
        if any(float(unit @ u) > 1.0 - 1e-10 for u in units):
            continue
        units.append(unit)
        beta = np.zeros(state.cones.dim)
        beta[state.cones.slices()[i][1]] = block
        state.cuts.append(Cut(beta, provenance, assignment))


def add_cut(state, cut):
    """Validate and pool a cut the way the solver pools its certificates.

    The cut is split by cone factor (see _blocks): each block above 1e-12
    of the cut's max-abs is scaled to max-abs 1, must lie (essentially
    exactly) in its own dual factor, and is pooled as a cut of its own.
    Blocks that miss by a small margin are repaired toward the dual
    interior; vacuous or repeated blocks drop.  A block that stays outside
    the repair cap raises InvalidCut before any block is pooled, so a
    rejected cut leaves the pool unchanged.
    """
    beta = np.asarray(cut.beta, dtype=float).ravel()
    if beta.shape != (state.cones.dim,):
        raise InvalidCut(
            "cut length %d does not match the cone block of dimension %d"
            % (beta.size, state.cones.dim)
        )
    if not np.all(np.isfinite(beta)):
        raise InvalidCut("cut has non-finite entries")
    blocks = _blocks(state, beta)
    for i, block in blocks:
        if block is None:
            raise InvalidCut("cut leaves the dual cone on a %s factor"
                             % state.cones.factors[i].kind)
    _pool(state, blocks, cut.provenance, cut.assignment)
    return state


def _milp_data(program, state):
    """The MILP relaxation of state built afresh, as (A, b, c, lb, ub,
    int_idx): _grow applied to the program's own rows."""
    milp = _grow(program, state, None)
    return (milp.A, milp.b, milp.c, milp.lb, milp.ub,
            list(range(program.num_integer)))


def _grow(program, state, milp):
    """milp, the last MILP's arrays, with what changed since appended, as
    a new _Milp; the program's own rows when milp is None.

    A cut with a single nonzero coordinate is a sign restriction on one
    column, so it is folded into the column bounds instead of adding a row;
    a dual-cone member with one nonzero has it positive, so the fold is
    always a lower bound of zero.
    Once a finite lower bound is known it is added as an objective row
    c.z >= bound (valid on every fiber), which keeps the relaxation
    bounded even though numerically repaired cuts are marginally weaker
    than the exact dual inequalities; each later MILP raises its
    right-hand side.
    New rows come in this order: the objective row when the lower bound
    has just become finite, then the pool's new cut rows in pool order,
    each with its slack column in the same order.  Rows are only ever
    appended, so each MILP's array is the leading block of the next
    one's, which borders it with the new rows and their slacks; each leaf
    tableau a MILP hands on is then a warm start for the next one.  An
    iteration that pools no new row keeps the very array.
    """
    nx, nz = program.num_integer, program.num_conic
    if milp is None:
        A = np.zeros((program.num_rows, nx + nz))
        A[:, :nx] = program.A_x
        A[:, nx:] = program.A_z
        milp = _Milp(A, program.b, np.concatenate([np.zeros(nx), program.c]),
                     np.concatenate([program.L, np.full(nz, -np.inf)]),
                     np.concatenate([program.U, np.full(nz, np.inf)]))
    new = [cut.beta for cut in state.cuts[milp.cuts:]]
    cuts = np.array(new).reshape(len(new), nz)
    single = np.count_nonzero(cuts, axis=1) == 1
    top = ([program.c] if milp.objective is None
           and np.isfinite(state.z_lower) else [])
    rows = np.vstack(top + [cuts[~single]])
    grown = bordered(milp, rows, np.zeros(len(rows)), slice(nx, nx + nz))
    grown.lb[nx + np.nonzero(cuts[single])[1]] = 0.0
    objective = milp.A.shape[0] if top else milp.objective
    if objective is not None:
        grown.b[objective] = state.z_lower - 1e-6 * (1.0 + abs(state.z_lower))
    return _Milp(grown.A, grown.b, grown.c, grown.lb, grown.ub,
                 len(state.cuts), objective)


def _root_relaxation(program):
    """Drop integrality: box the x columns with nonnegative pairs and solve.

    The result's lam is cut down to the duals of the program's own rows.
    """
    m, nx, nz = program.num_rows, program.num_integer, program.num_conic
    A = np.zeros((m + nx, 2 * nx + nz))
    A[:m, :nx] = program.A_x
    A[:m, 2 * nx :] = program.A_z
    A[m:, :nx] = np.eye(nx)
    A[m:, nx : 2 * nx] = np.eye(nx)
    b = np.concatenate(
        [program.b - program.A_x @ program.L, program.U - program.L]
    )
    c = np.concatenate([np.zeros(2 * nx), program.c])
    pairs = (cones.nonneg(nx),) * 2 if nx else ()
    K = cones.ConeProduct(pairs + tuple(program.cones.factors))
    res = solve_continuous(ContinuousConicProblem(A, b, c, K))
    if res.lam is not None:
        res.lam = res.lam[:m]
    return res


def _fiber(program, x):
    """Solve the continuous subproblem of the integer assignment x."""
    r = program.b - program.A_x @ x
    return solve_continuous(
        ContinuousConicProblem(program.A_z, r, program.c, program.cones)
    )


def _certificate(program, res):
    """The dual vector a subproblem certifies: c - A_z'lam when res is
    optimal, the ray -(A_z'lam) when it is infeasible."""
    if res.status == OPTIMAL:
        return program.c - program.A_z.T @ res.lam
    return -(program.A_z.T @ res.lam)


def _feasible(program, x, z):
    """x rounded when (x, z) is feasible for the program, else None.

    x must be integral within milp.INT_TOL and its rounding inside [L, U],
    and (x rounded, z) must pass ipm.primal_feasible, the rule an optimal
    certificate's point passes.  Rounding moves the rows by
    A_x (x_round - x), so they are checked after it.
    """
    if not (np.isfinite(x).all() and np.isfinite(z).all()):
        return None
    xr = np.round(x)
    if np.any(np.abs(x - xr) > INT_TOL):
        return None
    if np.any(xr < program.L) or np.any(xr > program.U):
        return None
    r = program.A_x @ xr + program.A_z @ z - program.b
    return xr if primal_feasible(program.cones, r, program.b, z) else None


def _offer(state, x, z, obj):
    """Make (x, z) the incumbent when its value obj beats the current one."""
    if obj < state.z_upper:
        state.z_upper = float(obj)
        state.incumbent_x, state.incumbent_z = x, z


def _gap_closed(state):
    if not np.isfinite(state.z_upper):
        return False
    return state.z_upper - state.z_lower <= state.tol * (
        1.0 + abs(state.z_upper)
    )


def _stalled(state, lower):
    """The lower bound rose from lower by no more than the gap tolerance,
    state.tol (1 + |lower|); a rise from -inf is progress."""
    if not np.isfinite(lower):
        return state.z_lower == lower
    return state.z_lower - lower <= state.tol * (1.0 + abs(lower))


def oa_solve(program, config=None):
    """Globally solve a mixed-integer conic program by outer approximation."""
    cfg = config or OaConfig()
    t0 = time.monotonic()
    deadline = None if cfg.time_limit is None else t0 + cfg.time_limit
    state = OaState(cones=program.cones, tol=cfg.tol)
    trace = []
    end = _initialize(program, state)
    while end is None and len(trace) < cfg.max_iters:
        if deadline is not None and time.monotonic() > deadline:
            end = TIME_LIMIT, None
            break
        record = {
            "iteration": len(trace) + 1,
            "milp_status": None,
            "milp_value": None,
            "milp_nodes": None,
            "milp_pivots": None,
            "milp_leaves": None,
            "assignment": None,
            "subproblem_status": None,
            "subproblem_value": None,
        }
        pool = len(state.cuts)
        end = _iterate(program, state, record, deadline)
        record["new_cuts"] = len(state.cuts) - pool
        record["lower_bound"] = state.z_lower
        record["upper_bound"] = state.z_upper
        record["cuts"] = len(state.cuts)
        trace.append(record)
    status, diagnostic = end or (ITERATION_LIMIT, None)
    return OaOutcome(
        status=status,
        x=state.incumbent_x,
        z=state.incumbent_z,
        obj=state.z_upper if state.incumbent_x is not None else None,
        lower_bound=state.z_lower,
        upper_bound=state.z_upper,
        iterations=len(trace),
        cuts=list(state.cuts),
        trace=trace,
        diagnostic=diagnostic,
    )


def _initialize(program, state):
    """Seed the pool with tangent cuts and the root relaxation's dual cut.

    Returns (status, diagnostic) when the root relaxation ends the run:
    it is infeasible or unbounded, or its optimum is feasible for the
    program (its x is L plus the first nx entries of its z).
    """
    tangents = [(i, _block(f, t))
                for i, f in enumerate(program.cones.factors)
                for t in cones.tangents(f)]
    _pool(state, tangents, INITIAL_RELAXATION, None)
    root = _root_relaxation(program)
    if root.status == INFEASIBLE:
        state.z_lower = np.inf
        return INFEASIBLE, None
    if root.status == UNBOUNDED:
        return ASSUMPTION_FAILURE, (
            "the continuous relaxation is unbounded, so no bounded "
            "polyhedral relaxation exists"
        )
    if root.status == OPTIMAL:
        state.z_lower = float(root.obj)
        beta = _certificate(program, root)
        _pool(state, _blocks(state, beta), INITIAL_RELAXATION, None)
        nx = program.num_integer
        z = root.z[2 * nx :]
        x = _feasible(program, program.L + root.z[:nx], z)
        if x is not None:
            _offer(state, x, z, program.c @ z)
            if _gap_closed(state):
                return OPTIMAL, None
    # numeric_failure: continue without a root cut
    return None


def _iterate(program, state, record, deadline):
    """One OA iteration: the MILP, the first one after its Gomory rounds,
    then, unless its point is feasible and closes the gap, the fiber of
    its assignment.

    Fills the record's MILP and subproblem fields (and, in the first
    iteration, its gmi_ fields) and returns (status, diagnostic) when the
    run ends in this iteration, else None.  The rounds and the MILP stop
    at the deadline (a time.monotonic() value, or None for none); the
    MILP's bound still raises the lower bound.
    """
    pool, lower = len(state.cuts), state.z_lower
    first = state.milp is None
    milp = state.milp = _grow(program, state, state.milp)
    int_idx = list(range(program.num_integer))
    if first:
        gmi = gomory_rounds(milp.A, milp.b, milp.c, milp.lb, milp.ub,
                            int_idx, deadline)
        milp = state.milp = dataclasses.replace(
            milp, A=gmi.A, b=gmi.b, c=gmi.c, lb=gmi.lb, ub=gmi.ub)
        state.leaves = gmi.warm
        record.update(gmi_rounds=gmi.rounds, gmi_rows=gmi.rows,
                      gmi_lps=gmi.lps, gmi_pivots=gmi.pivots)
    try:
        mres = solve_milp(milp.A, milp.b, milp.c, milp.lb, milp.ub, int_idx,
                          deadline=deadline, warm=state.leaves)
    except NumericFailure as err:
        return ASSUMPTION_FAILURE, (
            "MILP relaxation could not be solved: %s" % err
        )
    record["milp_status"] = mres.status
    record["milp_nodes"] = mres.nodes
    record["milp_pivots"] = mres.pivots
    record["milp_leaves"] = len(mres.leaves)
    state.leaves = mres.leaves
    if mres.status == TIME_LIMIT:
        state.z_lower = max(state.z_lower, float(mres.lower_bound))
        return TIME_LIMIT, None
    if mres.status == INFEASIBLE:
        if state.incumbent_x is not None:
            return ASSUMPTION_FAILURE, (
                "MILP relaxation infeasible while an incumbent exists"
            )
        state.z_lower = np.inf
        return INFEASIBLE, None
    if mres.status == UNBOUNDED:
        return ASSUMPTION_FAILURE, (
            "the MILP relaxation is unbounded; valid cuts cannot bound "
            "it, which indicates a fiber without strong duality"
        )
    record["milp_value"] = float(mres.obj)
    state.z_lower = max(state.z_lower, float(mres.lower_bound))
    nx, nz = program.num_integer, program.num_conic
    x, z_milp = mres.x[:nx], mres.x[nx : nx + nz]
    assignment = tuple(int(v) for v in x)
    record["assignment"] = list(assignment)
    if _feasible(program, x, z_milp) is not None:
        _offer(state, x, z_milp, program.c @ z_milp)
    if _gap_closed(state):
        return OPTIMAL, None

    sub = _fiber(program, x)
    record["subproblem_status"] = sub.status
    if sub.status == UNBOUNDED:
        return ASSUMPTION_FAILURE, (
            "a fiber subproblem is unbounded below, so the instance "
            "has no finite optimum"
        )
    if sub.status == OPTIMAL:
        record["subproblem_value"] = float(sub.obj)
        _offer(state, x, sub.z, sub.obj)
    if sub.status in (OPTIMAL, INFEASIBLE):
        blocks = _blocks(state, _certificate(program, sub))
        provenance = (SUBPROBLEM_DUAL if sub.status == OPTIMAL
                      else INFEASIBILITY_RAY)
    else:
        # no certificate: separate the MILP point from each cone factor
        blocks, provenance = [], SEPARATION
        for i, (f, sl) in enumerate(program.cones.slices()):
            g = cones.separate(f, z_milp[sl])
            if g is not None:
                blocks.append((i, _block(f, g)))
    _pool(state, blocks, provenance, assignment)

    if _gap_closed(state):
        return OPTIMAL, None
    if len(state.cuts) == pool and _stalled(state, lower):
        # the next MILP is this one, so OA would repeat this iteration
        why = "" if sub.diagnostic is None else ": %s" % sub.diagnostic
        return ASSUMPTION_FAILURE, (
            "integer assignment %s added no cut and left the lower bound "
            "unchanged, so the next MILP repeats this one; its subproblem "
            "was %s%s" % (list(assignment), sub.status, why)
        )
    return None


def brute_force_solve(program):
    """Enumerate every integer assignment and solve its fiber; ground truth.

    Returns an OaOutcome whose status is optimal/infeasible when every
    fiber resolved, unbounded when some fiber admits a descent ray, and
    numeric_failure when any fiber came back without a certificate (the
    enumeration then proves nothing).
    """
    ranges = [range(int(math.ceil(lo - 1e-9)), int(math.floor(hi + 1e-9)) + 1)
              for lo, hi in zip(program.L, program.U)]
    total = math.prod(len(r) for r in ranges)
    if total > _GRID_LIMIT:
        raise TooLarge(
            "integer grid has %d points, above the limit of %d"
            % (total, _GRID_LIMIT)
        )
    best = OaOutcome(INFEASIBLE, lower_bound=np.inf, upper_bound=np.inf)
    unresolved = 0
    for fibers, values in enumerate(itertools.product(*ranges), 1):
        x = np.array(values, dtype=float)
        res = _fiber(program, x)
        if res.status == UNBOUNDED:
            return OaOutcome(
                UNBOUNDED, x=x, lower_bound=-np.inf, upper_bound=-np.inf,
                iterations=fibers,
            )
        if res.status == OPTIMAL and (best.obj is None or res.obj < best.obj):
            obj = float(res.obj)
            best = OaOutcome(OPTIMAL, x=x, z=res.z, obj=obj, lower_bound=obj,
                             upper_bound=obj)
        elif res.status not in (OPTIMAL, INFEASIBLE):
            unresolved += 1
    best.iterations = total
    if unresolved:
        best.status, best.lower_bound = NUMERIC_FAILURE, -np.inf
        best.diagnostic = "%d fiber(s) returned no certificate" % unresolved
    return best
