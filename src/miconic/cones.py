"""Cone families: membership, duals, separation, and barrier calculus.

Five primal families are supported: the nonnegative orthant NONNEG(d),
the second-order cone SOC(d) = {(t, x) : ||x|| <= t}, the rotated
second-order cone RSOC(d) = {(x, y, w) : 2xy >= ||w||^2, x >= 0, y >= 0},
the exponential cone EXP = cl{(x, y, z) : y > 0, y*exp(x/y) <= z}, and the
power cone POW(a) = {(x, y, z) : |z| <= x^a * y^(1-a), x >= 0, y >= 0}.

Each family is one object in a table keyed by kind.  It holds the
family's dimension rule, barrier parameter and dual kind, and every
operation on it: membership, the strict-interior test, separation, a
canonical interior point, the barrier, two samplers, and the tangent cuts
that start an outer approximation.  A Cone looks its family up once, when
it is made, and the module functions below dispatch through it.

NONNEG, SOC and RSOC are self-dual.  The duals of EXP and POW are linear
images of them: p is in EXPDUAL iff (-v, -u, e*w) is in EXP, and p is in
POWDUAL(a) iff (u/a, v/(1-a), w) is in POW(a), for p = (u, v, w).  Both
maps are symmetric, so they also carry separating vectors between the
pairs.  The dual families support membership and separation, so
certificates can be validated, but no barrier.  Their samplers keep draws
of their own, because generated instances are seeded through them.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import DimensionMismatch, NotInterior

NONNEG = "nonneg"
SOC = "soc"
RSOC = "rsoc"
EXP = "exp"
POW = "pow"
EXPDUAL = "expdual"
POWDUAL = "powdual"

PRIMAL_KINDS = (NONNEG, SOC, RSOC, EXP, POW)


@dataclass(frozen=True)
class Cone:
    """A single cone factor, tagged by family and dimension."""

    kind: str
    dim: int
    alpha: float = None
    family: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        family = _FAMILIES.get(self.kind)
        if family is None:
            raise ValueError("unknown cone kind %r" % (self.kind,))
        family.check(self.dim, self.alpha)
        object.__setattr__(self, "family", family)

    @property
    def nu(self):
        """Barrier parameter of the standard log-homogeneous barrier."""
        return self.dim if self.family.nu is None else self.family.nu


def nonneg(dim):
    return Cone(NONNEG, dim)


def soc(dim):
    return Cone(SOC, dim)


def rsoc(dim):
    return Cone(RSOC, dim)


def exp_cone():
    return Cone(EXP, 3)


def pow_cone(alpha):
    return Cone(POW, 3, alpha)


@dataclass(frozen=True)
class ConeProduct:
    """An ordered product of cone factors covering a z-block."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def dim(self):
        return sum(f.dim for f in self.factors)

    def slices(self):
        """Yield (factor, slice) pairs in order."""
        at = 0
        for f in self.factors:
            yield f, slice(at, at + f.dim)
            at += f.dim

    @property
    def nu(self):
        return sum(f.nu for f in self.factors)

    def dual(self):
        """The dual product: the dual of each factor, in order."""
        return ConeProduct(tuple(dual(f) for f in self.factors))


def _pow_surface(a, b, alpha):
    # a^alpha * b^(1-alpha) with negative inputs clamped to zero.
    a = max(a, 0.0)
    b = max(b, 0.0)
    if a == 0.0 or b == 0.0:
        return 0.0
    return math.exp(alpha * math.log(a) + (1.0 - alpha) * math.log(b))


_RSOC_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _rsoc_rotate(p):
    # Orthogonal involution mapping RSOC onto SOC and back.
    q = p.copy()
    q[0] = (p[0] + p[1]) * _RSOC_INV_SQRT2
    q[1] = (p[0] - p[1]) * _RSOC_INV_SQRT2
    return q


class _Family:
    """A cone family: its rules and operations on a factor of that family.

    Points reach the operations already checked against the factor's
    dimension.  separate is only asked about points outside the cone and
    returns an outer normal of any length.  sample draws a boundary-reaching
    point, or a strictly interior one.  A family without a barrier has no
    interior_point, barrier or tangents.  nu is the barrier parameter, None
    for one per coordinate.
    """

    kind = None
    dual_kind = None
    nu = 3
    fixed_dim = None
    min_dim = 1
    has_alpha = False

    def check(self, dim, alpha):
        """Raise unless dim and alpha describe a factor of this family."""
        if self.fixed_dim is not None and dim != self.fixed_dim:
            raise DimensionMismatch(
                "%s cone has dim %d" % (self.kind, self.fixed_dim))
        if dim < self.min_dim:
            raise DimensionMismatch(
                "%s cone needs dim >= %d" % (self.kind, self.min_dim))
        if self.has_alpha:
            if alpha is None or not 0.0 < alpha < 1.0:
                raise ValueError("%s cone needs alpha in (0, 1)" % self.kind)
        elif alpha is not None:
            raise ValueError("%s cone takes no alpha" % self.kind)


class _Nonneg(_Family):
    kind = dual_kind = NONNEG
    nu = None

    def member(self, cone, p, tol):
        return np.min(p) >= -tol

    def strict_member(self, cone, p):
        return np.min(p) > 0.0

    def separate(self, cone, p):
        beta = np.zeros_like(p)
        beta[int(np.argmin(p))] = 1.0
        return beta

    def interior_point(self, cone):
        return np.ones(cone.dim)

    def barrier(self, cone, z):
        if np.min(z) <= 0.0:
            raise NotInterior("orthant barrier needs strictly positive point")
        val = -float(np.sum(np.log(z)))
        grad = -1.0 / z
        hess = np.diag(1.0 / z**2)
        return val, grad, hess

    def sample(self, cone, rng, scale, interior):
        if interior:
            return rng.uniform(0.2, 2.0, size=cone.dim) * scale
        return np.abs(rng.standard_normal(cone.dim)) * scale

    def tangents(self, cone):
        return list(np.eye(cone.dim))


class _Soc(_Family):
    kind = dual_kind = SOC
    nu = 2
    min_dim = 2

    def member(self, cone, p, tol):
        t, x = p[0], p[1:]
        return t >= -tol and float(np.linalg.norm(x)) <= t + tol

    def strict_member(self, cone, p):
        return p[0] > float(np.linalg.norm(p[1:]))

    def separate(self, cone, p):
        x = p[1:]
        nx = float(np.linalg.norm(x))
        beta = np.zeros_like(p)
        beta[0] = 1.0
        if nx > 0.0:
            beta[1:] = -x / nx
        return beta

    def interior_point(self, cone):
        return np.eye(cone.dim)[0]

    def barrier(self, cone, z):
        t, x = z[0], z[1:]
        s = t * t - float(x @ x)
        if s <= 0.0 or t <= 0.0:
            raise NotInterior("soc barrier domain violated")
        ds = np.concatenate(([2.0 * t], -2.0 * x))
        d2s = np.diag(np.concatenate(([2.0], -2.0 * np.ones(len(x)))))
        val = -math.log(s)
        grad = -ds / s
        hess = np.outer(ds, ds) / s**2 - d2s / s
        return val, grad, hess

    def sample(self, cone, rng, scale, interior):
        x = rng.standard_normal(cone.dim - 1) * scale
        if interior:
            t = np.linalg.norm(x) + rng.uniform(0.2, 1.5) * scale
        else:
            t = np.linalg.norm(x) * rng.uniform(1.0, 2.0)
        return np.concatenate(([t], x))

    def tangents(self, cone):
        out = [self.interior_point(cone)]
        for i in range(1, cone.dim):
            for s in (1.0, -1.0):
                v = np.zeros(cone.dim)
                v[0], v[i] = 1.0, s
                out.append(v)
        return out


class _Rsoc(_Family):
    # Separation and sampling go through the rotation onto SOC; membership
    # and the barrier keep formulas of their own, whose rounding the
    # solver's results depend on.
    kind = dual_kind = RSOC
    nu = 2
    min_dim = 3

    def member(self, cone, p, tol):
        x, y, w = p[0], p[1], p[2:]
        return (
            x >= -tol
            and y >= -tol
            and float(w @ w) <= 2.0 * max(x, 0.0) * max(y, 0.0) + tol
        )

    def strict_member(self, cone, p):
        x, y, w = p[0], p[1], p[2:]
        return x > 0.0 and y > 0.0 and float(w @ w) < 2.0 * x * y

    def separate(self, cone, p):
        return _rsoc_rotate(_SOC.separate(cone, _rsoc_rotate(p)))

    def interior_point(self, cone):
        p = np.zeros(cone.dim)
        p[:2] = 1.0
        return p

    def barrier(self, cone, z):
        x, y, w = z[0], z[1], z[2:]
        s = 2.0 * x * y - float(w @ w)
        if s <= 0.0 or x <= 0.0 or y <= 0.0:
            raise NotInterior("rsoc barrier domain violated")
        ds = np.concatenate(([2.0 * y, 2.0 * x], -2.0 * w))
        d2s = np.zeros((cone.dim, cone.dim))
        d2s[0, 1] = d2s[1, 0] = 2.0
        for i in range(2, cone.dim):
            d2s[i, i] = -2.0
        val = -math.log(s)
        grad = -ds / s
        hess = np.outer(ds, ds) / s**2 - d2s / s
        return val, grad, hess

    def sample(self, cone, rng, scale, interior):
        return _rsoc_rotate(_SOC.sample(cone, rng, scale, interior))

    def tangents(self, cone):
        out = list(np.eye(cone.dim)[:2])
        for i in range(2, cone.dim):
            for a, b in ((1.0, 0.5), (0.5, 1.0)):
                for s in (1.0, -1.0):
                    v = np.zeros(cone.dim)
                    v[0], v[1], v[i] = a, b, s
                    out.append(v)
        return out


class _Exp(_Family):
    kind = EXP
    dual_kind = EXPDUAL
    fixed_dim = 3

    def member(self, cone, p, tol):
        x, y, z = p
        if y > 0.0:
            # y * exp(x/y) <= z + tol, in log form where exp would overflow
            r = x / y
            if r > 500.0:
                inside = z + tol > 0.0 and math.log(y) + r <= math.log(z + tol)
            else:
                inside = y * math.exp(r) <= z + tol
            if inside:
                return True
        # the closure's face y = 0
        return abs(y) <= tol and x <= tol and z >= -tol

    def strict_member(self, cone, p):
        x, y, z = p
        return y > 0.0 and z > 0.0 and math.log(y) + x / y < math.log(z)

    def separate(self, cone, p):
        x, y, z = p
        if y > 0.0:
            # Supporting hyperplane of the graph y*exp(x/y) at the given
            # ray, scaled by exp(-x/y) when that would overflow.
            r = x / y
            if r > 50.0:
                return np.array(
                    [-1.0, r - 1.0, math.exp(-r) if r < 745.0 else 0.0])
            er = math.exp(r)
            return np.array([-er, er * (r - 1.0), 1.0])
        if z >= 0.0 and x > 1e-9:
            # Boundary dual with u < 0; the v*y term only helps since y <= 0.
            v = max(1.0, math.log((abs(z) + 1.0) / x) + 5.0)
            return np.array([-1.0, v, math.exp(-v - 1.0) if v < 744.0 else 0.0])
        # Remaining violations have y < 0 or z < 0; cut on the worse one.
        if z < y:
            return np.array([0.0, 0.0, 1.0])
        return np.array([0.0, 1.0, 0.0])

    def interior_point(self, cone):
        return np.array([-1.0, 1.0, 1.0])

    def barrier(self, cone, z):
        x, y, zz = z
        if y <= 0.0 or zz <= 0.0:
            raise NotInterior("exp barrier domain violated")
        psi = y * math.log(zz / y) - x
        if psi <= 0.0:
            raise NotInterior("exp barrier domain violated")
        dpsi = np.array([-1.0, math.log(zz / y) - 1.0, y / zz])
        d2psi = np.array(
            [
                [0.0, 0.0, 0.0],
                [0.0, -1.0 / y, 1.0 / zz],
                [0.0, 1.0 / zz, -y / zz**2],
            ]
        )
        val = -math.log(psi) - math.log(y) - math.log(zz)
        grad = -dpsi / psi + np.array([0.0, -1.0 / y, -1.0 / zz])
        hess = (
            np.outer(dpsi, dpsi) / psi**2
            - d2psi / psi
            + np.diag([0.0, 1.0 / y**2, 1.0 / zz**2])
        )
        return val, grad, hess

    def sample(self, cone, rng, scale, interior):
        y_low, z_range = (0.2, (1.2, 3.0)) if interior else (0.05, (1.0, 2.0))
        x = rng.uniform(-2.0, 2.0) * scale
        y = rng.uniform(y_low, 2.0) * scale
        z = y * math.exp(min(x / y, 30.0)) * rng.uniform(*z_range)
        return np.array([x, y, z])

    def tangents(self, cone):
        out = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
        for x0 in (-1.0, 0.0, 1.0):
            g = math.exp(x0)
            out.append(np.array([-g, -g * (1.0 - x0), 1.0]))
        return out


class _Pow(_Family):
    kind = POW
    dual_kind = POWDUAL
    fixed_dim = 3
    has_alpha = True

    def member(self, cone, p, tol):
        x, y, z = p
        if x < -tol or y < -tol:
            return False
        return abs(z) <= _pow_surface(x, y, cone.alpha) + tol

    def strict_member(self, cone, p):
        x, y, z = p
        if x <= 0.0 or y <= 0.0:
            return False
        if z == 0.0:
            return True
        a = cone.alpha
        return math.log(abs(z)) < a * math.log(x) + (1.0 - a) * math.log(y)

    def separate(self, cone, p):
        alpha = cone.alpha
        x, y, z = p
        xc, yc = max(x, 0.0), max(y, 0.0)
        viol_sign = -min(x, y, 0.0)
        viol_surf = abs(z) - _pow_surface(xc, yc, alpha)
        if viol_sign >= viol_surf:
            beta = np.zeros(3)
            beta[0 if x <= y else 1] = 1.0
            return beta
        # |z| exceeds the surface: support the graph at (xc+d, yc+d), nudged
        # off zero coordinates but kept below |z| so the cut still separates.
        d = 0.0 if min(xc, yc) > 0.0 else abs(z) * 1e-9 + 1e-300
        for _ in range(60):
            xs, ys = xc + d, yc + d
            if _pow_surface(xs, ys, alpha) <= abs(z) - 0.5 * viol_surf:
                break
            d *= 1e-6
            if d < 1e-300:
                d = 0.0
                xs, ys = max(xc, 1e-300), max(yc, 1e-300)
                break
        b1 = alpha * math.exp((1.0 - alpha) * (math.log(ys) - math.log(xs)))
        b2 = (1.0 - alpha) * math.exp(alpha * (math.log(xs) - math.log(ys)))
        return np.array([b1, b2, -math.copysign(1.0, z)])

    def interior_point(self, cone):
        return np.array([1.0, 1.0, 0.0])

    def barrier(self, cone, z):
        a = cone.alpha
        x, y, zz = z
        if x <= 0.0 or y <= 0.0:
            raise NotInterior("pow barrier domain violated")
        xa = math.exp(2.0 * a * math.log(x) + 2.0 * (1.0 - a) * math.log(y))
        phi = xa - zz * zz
        if phi <= 0.0:
            raise NotInterior("pow barrier domain violated")
        dphi = np.array([2.0 * a * xa / x, 2.0 * (1.0 - a) * xa / y, -2.0 * zz])
        d2phi = np.array(
            [
                [2.0 * a * (2.0 * a - 1.0) * xa / x**2,
                 4.0 * a * (1.0 - a) * xa / (x * y), 0.0],
                [4.0 * a * (1.0 - a) * xa / (x * y),
                 2.0 * (1.0 - a) * (1.0 - 2.0 * a) * xa / y**2, 0.0],
                [0.0, 0.0, -2.0],
            ]
        )
        val = -math.log(phi) - (1.0 - a) * math.log(x) - a * math.log(y)
        grad = -dphi / phi + np.array([-(1.0 - a) / x, -a / y, 0.0])
        hess = (
            np.outer(dphi, dphi) / phi**2
            - d2phi / phi
            + np.diag([(1.0 - a) / x**2, a / y**2, 0.0])
        )
        return val, grad, hess

    def sample(self, cone, rng, scale, interior):
        low, z_max = (0.3, 0.8) if interior else (0.0, 1.0)
        x = rng.uniform(low, 2.0) * scale
        y = rng.uniform(low, 2.0) * scale
        z = _pow_surface(x, y, cone.alpha) * rng.uniform(-z_max, z_max)
        return np.array([x, y, z])

    def tangents(self, cone):
        a = cone.alpha
        out = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        for s in (1.0, -1.0):
            out.append(np.array([a, 1.0 - a, s]))
        return out


class _LinearImage(_Family):
    """The cone {p : M p in primal} for a fixed symmetric invertible M.

    If beta separates M p from the primal cone, M beta separates p from
    this one: (M beta).p = beta.(M p), and M beta pairs nonnegatively with
    every member.  Operations call the primal family's methods, not the
    module functions, so each test of a dual point is one call.
    """

    def __init__(self, primal):
        self.primal = primal
        self.dual_kind = primal.kind
        self.nu = primal.nu
        self.fixed_dim, self.has_alpha = primal.fixed_dim, primal.has_alpha

    def member(self, cone, p, tol):
        return self.primal.member(cone, self.map(cone, p), tol)

    def strict_member(self, cone, p):
        return self.primal.strict_member(cone, self.map(cone, p))

    def separate(self, cone, p):
        return self.map(cone, self.primal.separate(cone, self.map(cone, p)))


class _ExpDual(_LinearImage):
    kind = EXPDUAL

    def map(self, cone, p):
        return np.array([-p[1], -p[0], math.e * p[2]])

    def sample(self, cone, rng, scale, interior):
        u_low, w_range = (0.2, (1.2, 3.0)) if interior else (0.05, (1.0, 2.0))
        u = -rng.uniform(u_low, 2.0) * scale
        v = rng.uniform(-2.0, 2.0) * scale
        w = (-u) * math.exp(min(v / u, 30.0)) / math.e * rng.uniform(*w_range)
        return np.array([u, v, w])


class _PowDual(_LinearImage):
    kind = POWDUAL

    def map(self, cone, p):
        a = cone.alpha
        return np.array([p[0] / a, p[1] / (1.0 - a), p[2]])

    def sample(self, cone, rng, scale, interior):
        a = cone.alpha
        low, w_max = (0.3, 0.8) if interior else (0.0, 1.0)
        u = rng.uniform(low, 2.0) * scale
        v = rng.uniform(low, 2.0) * scale
        w = _pow_surface(u / a, v / (1.0 - a), a) * rng.uniform(-w_max, w_max)
        return np.array([u, v, w])


_SOC = _Soc()
_EXP = _Exp()
_POW = _Pow()
_FAMILIES = {
    f.kind: f
    for f in (_Nonneg(), _SOC, _Rsoc(), _EXP, _ExpDual(_EXP), _POW,
              _PowDual(_POW))
}


def dual(cone):
    """The dual cone description.  Self-dual families return themselves."""
    if cone.family.dual_kind == cone.kind:
        return cone
    return Cone(cone.family.dual_kind, cone.dim, cone.alpha)


def _check_dim(cone, p):
    p = np.asarray(p, dtype=float)
    if p.shape != (cone.dim,):
        raise DimensionMismatch(
            "point of shape %s for cone of dim %d" % (p.shape, cone.dim)
        )
    return p


def member(cone, p, tol=0.0):
    """Membership test with additive tolerance on the defining inequalities.

    A dual family applies the tolerance to its primal family's
    inequalities at the mapped point.
    """
    return bool(cone.family.member(cone, _check_dim(cone, p), tol))


def strict_member(cone, p):
    """Exact strict-interior test, the domain of the cone's barrier.

    Evaluated in log form where the defining inequality could overflow.
    """
    return bool(cone.family.strict_member(cone, _check_dim(cone, p)))


def separate(cone, p):
    """A unit-norm dual vector beta with beta.p < 0, or None if p is inside.

    The returned beta is an outer normal of a hyperplane supporting the cone,
    so beta is a member of the dual cone and every cone point q satisfies
    beta.q >= 0 while beta.p < 0.
    """
    p = _check_dim(cone, p)
    if member(cone, p, 1e-9):
        return None
    beta = cone.family.separate(cone, p)
    n = float(np.linalg.norm(beta))
    if n == 0.0:
        return None
    return beta / n


def interior_point(cone):
    """A canonical strictly interior point, used to start the conic solver."""
    return cone.family.interior_point(cone)


def barrier_value_grad_hess(cone, z):
    """Standard log-homogeneous self-concordant barrier at interior point z.

    Returns (value, gradient, hessian).  Raises NotInterior when z is not
    strictly inside the cone.
    """
    return cone.family.barrier(cone, _check_dim(cone, z))


def tangents(cone):
    """Boundary points of the dual cone that start an outer approximation.

    Each is a valid cut beta.z >= 0 on the factor; together they give the
    first polyhedral relaxation of the cone.
    """
    return cone.family.tangents(cone)


def sample_point(cone, rng, scale=1.0):
    """A random point of the cone (boundary reachable)."""
    return cone.family.sample(cone, rng, scale, False)


def sample_interior(cone, rng, scale=1.0):
    """A random strictly interior point of the cone."""
    return cone.family.sample(cone, rng, scale, True)


def sample_product(cones, rng, interior=False):
    """A stacked sample across all factors of a ConeProduct."""
    parts = [f.family.sample(f, rng, 1.0, interior) for f in cones.factors]
    return np.concatenate(parts) if parts else np.zeros(0)


def member_product(cones, z, tol=0.0):
    """Factor-wise membership of a full z-block."""
    z = np.asarray(z, dtype=float)
    if z.shape != (cones.dim,):
        raise DimensionMismatch("z of shape %s for product dim %d" % (z.shape, cones.dim))
    return all(member(f, z[s], tol) for f, s in cones.slices())
