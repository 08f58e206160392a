"""Ready-made example models and random instance generators.

The fixed instances exercise the three qualitative behaviours of the
outer-approximation driver: quick convergence on a disaggregated model,
exponential cut growth on the aggregated version of the same set, and the
assumption failure on a fiber without strong duality.  The random
generators build programs whose ground truth is known by construction.
"""

import numpy as np

from . import atoms, cones
from .ipm import ContinuousConicProblem
from .model import DcpModel
from .program import ConicProgram


def empty_ball_model(n, variant="extended"):
    """A ball around the center of the unit cube that misses every corner.

    The ball of radius sqrt((n-1)/4) centered at (1/2, ..., 1/2) contains
    no binary point, so the model is infeasible for every n >= 2.  The
    naive variant keeps one aggregated cone; the extended variant
    introduces one epigraph variable per coordinate, which is what lets a
    polyhedral outer approximation prove infeasibility in a handful of
    cuts instead of 2**n of them.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if variant not in ("naive", "extended"):
        raise ValueError("variant must be naive or extended")
    m = DcpModel()
    xs = [m.variable("x%d" % i, integer=True, lb=0, ub=1) for i in range(n)]
    m.minimize(0.0 * xs[0])
    if variant == "naive":
        m.add(atoms.sumsquares(*[x - 0.5 for x in xs]) <= (n - 1) / 4.0)
    else:
        zs = [m.variable("z%d" % i, lb=0.0) for i in range(n)]
        for x, z in zip(xs, zs):
            m.add(atoms.square(x - 0.5) <= z)
        m.add(sum(zs[1:], zs[0]) <= (n - 1) / 4.0)
    return m


def disk_model():
    """Maximize a direction 15 degrees above the first axis over a disk.

    The disk has radius 2.5 and the first coordinate is integer in
    [-2, 2]; the optimum sits at (2, 1.5).  Stated as a minimization of
    the negated objective.
    """
    m = DcpModel()
    x1 = m.variable("x1", integer=True, lb=-2, ub=2)
    x2 = m.variable("x2", lb=-2.5, ub=2.5)
    c = float(np.cos(np.radians(15.0)))
    s = float(np.sin(np.radians(15.0)))
    m.minimize(-(c * x1 + s * x2))
    m.add(atoms.sumsquares(x1, x2) <= 2.5 ** 2)
    return m


def disk_best_value():
    """Closed-form optimum of disk_model by enumerating the integer axis."""
    c = float(np.cos(np.radians(15.0)))
    s = float(np.sin(np.radians(15.0)))
    best = -np.inf
    for k in range(-2, 3):
        best = max(best, c * k + s * np.sqrt(2.5 ** 2 - k ** 2))
    return -best


def trimloss_model():
    """A two-pattern cutting toy with the square-root coupling constraint.

    Two integer pattern counts x_k and continuous allocations y_k must
    cover a demand of 4 through sum_k sqrt(x_k y_k) >= 4 at minimum cost.
    Every constraint is second-order representable.
    """
    m = DcpModel()
    x1 = m.variable("x1", integer=True, lb=1, ub=3)
    x2 = m.variable("x2", integer=True, lb=1, ub=3)
    y1 = m.variable("y1", lb=0.0, ub=16.0)
    y2 = m.variable("y2", lb=0.0, ub=16.0)
    m.minimize(2 * x1 + 3 * x2 + y1 + y2)
    m.add(-atoms.geo_mean(x1, y1) - atoms.geo_mean(x2, y2) <= -4.0)
    return m


def duality_failure_program():
    """The smallest instance the outer-approximation loop cannot solve.

    One binary column tied to the first coordinate of a rotated cone by
    the single row u1 + t = 0.  The only feasible assignment is t = 0,
    whose fiber has optimal value 0 but an infeasible dual, so no finite
    family of valid cuts can ever bound the MILP relaxation.
    """
    return ConicProgram(
        c=np.array([0.0, 0.0, 1.0]),
        A_x=np.array([[1.0]]),
        A_z=np.array([[1.0, 0.0, 0.0]]),
        b=np.array([0.0]),
        L=np.array([0.0]),
        U=np.array([1.0]),
        cones=cones.ConeProduct((cones.rsoc(3),)),
    )


def _random_cones(rng):
    choices = (
        lambda: cones.nonneg(int(rng.integers(1, 4))),
        lambda: cones.soc(int(rng.integers(2, 5))),
        lambda: cones.rsoc(int(rng.integers(3, 5))),
        lambda: cones.exp_cone(),
        lambda: cones.pow_cone(float(rng.uniform(0.2, 0.8))),
    )
    k = int(rng.integers(1, 4))
    return cones.ConeProduct(
        tuple(choices[int(rng.integers(len(choices)))]() for _ in range(k))
    )


def _integer_box(rng, nx):
    L = rng.integers(-2, 2, size=nx).astype(float)
    U = L + rng.integers(0, 4, size=nx).astype(float)
    return L, U


def _feasible(rng, K, nx):
    """random_feasible_program's construction over K with nx integers."""
    m = int(rng.integers(1, 4))
    A_x = rng.normal(size=(m, nx))
    A_z = rng.normal(size=(m, K.dim))
    L, U = _integer_box(rng, nx)
    x0 = np.array(
        [float(rng.integers(int(L[j]), int(U[j]) + 1)) for j in range(nx)]
    )
    z0 = cones.sample_product(K, rng, interior=True)
    b = A_x @ x0 + A_z @ z0
    y = rng.normal(size=m)
    c = A_z.T @ y + cones.sample_product(K.dual(), rng, interior=True)
    return ConicProgram(c=c, A_x=A_x, A_z=A_z, b=b, L=L, U=U, cones=K)


def _infeasible(rng, K, nx):
    """random_infeasible_program's construction over K with nx integers."""
    m = int(rng.integers(2, 4))
    lam = rng.normal(size=m)
    lam /= np.linalg.norm(lam)
    beta0 = cones.sample_product(K.dual(), rng, interior=True)
    R = rng.normal(size=(m, K.dim))
    A_z = R - np.outer(lam, lam @ R + beta0)
    P = rng.normal(size=(m, nx))
    A_x = P - np.outer(lam, lam @ P)
    b_r = rng.normal(size=m)
    b = b_r - lam * float(lam @ b_r) + lam * float(rng.uniform(0.5, 2.0))
    L, U = _integer_box(rng, nx)
    c = rng.normal(size=K.dim)
    return ConicProgram(c=c, A_x=A_x, A_z=A_z, b=b, L=L, U=U, cones=K)


def random_feasible_program(rng):
    """A random program that is feasible with strong duality throughout.

    b is chosen so one integer assignment admits a strictly interior z,
    and c = A_z'y + s with s interior to the dual cone, which makes every
    feasible fiber bounded and dual-attained; oa_solve and
    brute_force_solve must then agree.  Draws of size zero take no random
    numbers, so with no integer columns this is
    random_continuous_feasible.
    """
    return _feasible(rng, _random_cones(rng), int(rng.integers(1, 4)))


def random_continuous_feasible(rng):
    """A continuous conic instance solvable with zero duality gap.

    b is the image of an interior point and c is interior-dual shifted,
    so both the primal and the dual have strictly feasible points.
    """
    p = _feasible(rng, _random_cones(rng), 0)
    return ContinuousConicProblem(p.A_z, p.b, p.c, p.cones)


def random_continuous_infeasible(rng):
    """A continuous conic instance carrying a Farkas certificate.

    Built so a multiplier lam has -A'lam interior to the dual cone and
    lam.b > 0, which rules out any conic solution of A z = b.
    """
    p = _infeasible(rng, _random_cones(rng), 0)
    return ContinuousConicProblem(p.A_z, p.b, p.c, p.cones)


def random_infeasible_program(rng):
    """A random program that is infeasible on every integer assignment.

    Built backwards from a Farkas certificate: a multiplier lam with
    -A_z'lam interior to the dual cone, A_x orthogonal to lam, and
    lam.b > 0, so no fiber admits any conic solution.  With no integer
    columns this is random_continuous_infeasible.
    """
    return _infeasible(rng, _random_cones(rng), int(rng.integers(1, 3)))
