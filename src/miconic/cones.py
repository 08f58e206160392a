"""Cone families: membership, duals, separation, and barrier calculus.

Five primal families are supported: the nonnegative orthant NONNEG(d),
the second-order cone SOC(d) = {(t, x) : ||x|| <= t}, the rotated
second-order cone RSOC(d) = {(x, y, w) : 2xy >= ||w||^2, x >= 0, y >= 0},
the exponential cone EXP = cl{(x, y, z) : y > 0, y*exp(x/y) <= z}, and the
power cone POW(a) = {(x, y, z) : |z| <= x^a * y^(1-a), x >= 0, y >= 0}.

Each family is one object in a table keyed by kind, holding its dimension
rule, barrier parameter and dual kind, and every operation on it:
membership, the strict-interior test, separation, a canonical interior
point, the barrier and its third directional derivative, two samplers, and
the tangent cuts that start an outer approximation.  A Cone looks its
family up once, when it is made, and the module functions below dispatch
through it.

Membership, the interior test, the barrier, its third derivative and the
samplers take one point or a stack along the last axis.  A ConeProduct
groups its factors by (kind, dim, alpha), the orthant's coordinates as
NONNEG(1) rows of one group, so a solver makes one call per group instead
of one per factor.

NONNEG, SOC and RSOC are self-dual.  The duals of EXP and POW are linear
images of them: p = (u, v, w) is in EXPDUAL iff (-v, -u, e*w) is in EXP,
and in POWDUAL(a) iff (u/a, v/(1-a), w) is in POW(a).  The symmetric maps
also carry separating vectors between the pairs.  The dual families have
membership, separation and a canonical interior point, to validate and
repair certificates, but no barrier, and samplers of their own, since
generated instances are seeded through them.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
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


nonneg = partial(Cone, NONNEG)
soc = partial(Cone, SOC)
rsoc = partial(Cone, RSOC)
exp_cone = partial(Cone, EXP, 3)
pow_cone = partial(Cone, POW, 3)


@dataclass(frozen=True)
class ConeGroup:
    """The k factors of one shape in a product, as a stack of k rows:
    index picks them out of a product vector (a slice when they form one
    range), and blocks indexes their diagonal blocks of a matrix."""

    cone: Cone
    k: int
    index: object
    blocks: tuple

    def stack(self, z):
        """The group's (k, dim) rows of a product vector."""
        return z[self.index].reshape(self.k, self.cone.dim)


@dataclass(frozen=True)
class ConeProduct:
    """An ordered product of cone factors covering a z-block.  Its
    dimension, barrier parameter, (factor, slice) pairs, the index of the
    factor holding each coordinate, and its groups are fixed when it is
    made; its dual product and its interior-point start are made once,
    when first used, so every solve over one product shares them."""

    factors: tuple
    dim: int = field(init=False, repr=False, compare=False)
    nu: int = field(init=False, repr=False, compare=False)
    _pairs: tuple = field(init=False, repr=False, compare=False)
    factor_of: np.ndarray = field(init=False, repr=False, compare=False)
    groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        factors, pairs, dim = tuple(self.factors), [], 0
        for f in factors:
            pairs.append((f, slice(dim, dim + f.dim)))
            dim += f.dim
        coords = {}
        for f, sl in pairs:
            shape = Cone(NONNEG, 1) if f.kind == NONNEG else f
            coords.setdefault(shape, []).extend(range(sl.start, sl.stop))
        groups = []
        for cone, at in coords.items():
            rows = np.array(at).reshape(-1, cone.dim)
            index = (slice(at[0], at[-1] + 1) if at[-1] - at[0] == len(at) - 1
                     else rows.ravel())
            blocks = ((index, index) if len(rows) == 1
                      else (rows[:, :, None], rows[:, None, :]))
            groups.append(ConeGroup(cone, len(rows), index, blocks))
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "nu", sum(f.nu for f in factors))
        object.__setattr__(self, "_pairs", tuple(pairs))
        object.__setattr__(self, "factor_of", np.repeat(
            np.arange(len(factors)), [f.dim for f in factors]))
        object.__setattr__(self, "groups", tuple(groups))

    def slices(self):
        """The (factor, slice) pairs in order."""
        return self._pairs

    def dual(self):
        """The dual of each factor, in order; the groups line up with ours.
        Made on the first call and kept."""
        return self._dual

    @cached_property
    def _dual(self):
        return ConeProduct(tuple(dual(f) for f in self.factors))

    @cached_property
    def start(self):
        """The interior-point start (z0, -F'(z0)): z0 each factor's
        canonical interior point and F the product's barrier, one barrier
        call per group.  Made on the first use and kept, read-only."""
        z = np.concatenate([interior_point(f) for f in self.factors])
        grad = np.empty_like(z)
        for g in self.groups:
            grad[g.index] = barrier_value_grad_hess(
                g.cone, g.stack(z))[1].ravel()
        beta = -grad
        z.flags.writeable = beta.flags.writeable = False
        return z, beta


def _pow_surface(a, b, alpha):
    # a^alpha * b^(1-alpha) with negative inputs clamped to zero.
    if a <= 0.0 or b <= 0.0:
        return 0.0
    return math.exp(alpha * math.log(a) + (1.0 - alpha) * math.log(b))


# The samplers take math's exp and pow surface on every entry of a stack:
# numpy's exp differs in the last bit, and instances are seeded through them.
_exp = np.vectorize(math.exp, otypes=[float])
_pow_surfaces = np.vectorize(_pow_surface, otypes=[float], excluded={2})


def _rsoc_rotate(p):
    # Orthogonal involution mapping RSOC onto SOC and back.
    q, c = p.copy(), 1.0 / math.sqrt(2.0)
    q[..., 0] = (p[..., 0] + p[..., 1]) * c
    q[..., 1] = (p[..., 0] - p[..., 1]) * c
    return q


def _dot(x):
    # x.x over the last axis, rounded as the dot product of one vector
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def _neg_log(s, ds, d2s):
    # value, gradient and Hessian of -log s from those of s; float_power
    # squares as s**2 on a number does, whose bits the iterates depend on
    s = s[..., None]
    hess = ds[..., :, None] * ds[..., None, :]
    hess /= np.float_power(s, 2)[..., None]
    hess -= d2s / s[..., None]
    return -np.log(s[..., 0]), -ds / s, hess


def _rowwise(fn, p, *args):
    # fn(*point, *args) for each point of a stack, as an array over it
    flat = p.reshape(-1, p.shape[-1])
    out = np.array([fn(*row, *args) for row in flat.tolist()])
    return out.reshape(p.shape[:-1] + out.shape[1:])


def _log_row(f, df, d2f, g, h):
    # gradient and Hessian of -log f + l, l separable with gradient g and
    # Hessian diagonal h, in one flat list
    f2 = f**2
    return [-di / f + gi for di, gi in zip(df, g)] + [
        df[i] * df[j] / f2 - d2f[i][j] / f + (h[i] if i == j else 0.0)
        for i in range(3) for j in range(3)]


def _log_third(f, df, d2f, d3f, d, t):
    # third derivative along d, d of -log f + l for three coordinates, from
    # f's gradient and Hessian, d3f = f'''[d, d] and t = l'''[d, d] of the
    # separable l.  With u = f'd/f and v = d'f''d/f it is
    # (2u f''d + (v - 2u^2) f' - f'''[d, d]) / f, which divides by f once:
    # a form over f^3 underflows near the boundary
    hd = [d2f[i][0] * d[0] + d2f[i][1] * d[1] + d2f[i][2] * d[2]
          for i in range(3)]
    u = (df[0] * d[0] + df[1] * d[1] + df[2] * d[2]) / f
    w = (hd[0] * d[0] + hd[1] * d[1] + hd[2] * d[2]) / f - 2.0 * u * u
    return [(2.0 * u * hd[i] + w * df[i] - d3f[i]) / f + t[i]
            for i in range(3)]


def _log_third_1(d, x):
    # (-log x)'''[d, d] = -2 d^2 / x^3, as ratios to x
    r = d / x
    return -2.0 * r * r / x


class _Family:
    """A cone family: its rules and operations on a factor of that family.

    Points arrive checked against the factor's dimension, one or a stack
    along the last axis; separate gets one point outside the cone and
    returns an outer normal of any length.  sample draws boundary-reaching
    or strictly interior points.  interior holds a canonical interior
    point's leading entries and the value of the rest, with max-abs 1.  A
    family without a barrier has no barrier, barrier_third or tangents.
    barrier_third(cone, z, d) is the barrier's third derivative at z along
    d twice, F'''(z)[d, d], a stack of z's shape.  nu is the barrier
    parameter, None for one per coordinate."""

    kind = dual_kind = None
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
        if self.has_alpha and (alpha is None or not 0.0 < alpha < 1.0):
            raise ValueError("%s cone needs alpha in (0, 1)" % self.kind)
        if not self.has_alpha and alpha is not None:
            raise ValueError("%s cone takes no alpha" % self.kind)


class _Nonneg(_Family):
    kind = dual_kind = NONNEG
    nu = None
    interior = ((), 1.0)

    def member(self, cone, p, tol):
        return p.min(axis=-1) >= -tol

    def strict_member(self, cone, p):
        return p.min(axis=-1) > 0.0

    def separate(self, cone, p):
        return (np.arange(cone.dim) == np.argmin(p)).astype(float)

    def barrier(self, cone, z):
        if not z.min() > 0.0:
            raise NotInterior("orthant barrier needs strictly positive point")
        hess = (1.0 / z**2)[..., None] * np.eye(cone.dim)
        return -np.log(z).sum(axis=-1), -1.0 / z, hess

    def barrier_third(self, cone, z, d):
        return _log_third_1(d, z)

    def sample(self, cone, rng, scale, interior, shape):
        if interior:
            return rng.uniform(0.2, 2.0, size=shape + (cone.dim,)) * scale
        return np.abs(rng.standard_normal(shape + (cone.dim,))) * scale

    def tangents(self, cone):
        return list(np.eye(cone.dim))


class _Quadratic(_Family):
    """A family whose barrier is -log s for a quadratic form s = z'Qz: 2Q
    has the leading 2x2 block head and -2I below it, and s > 0 with
    z_0 > 0 puts z inside."""

    nu = 2

    @lru_cache(maxsize=None)
    def hessian(self, dim):
        # 2Q, shared by every call; z 2Q is s's gradient, exactly
        h = -2.0 * np.eye(dim)
        h[:2, :2] = self.head
        h.flags.writeable = False
        return h

    def barrier(self, cone, z):
        s = self.quadratic(z)
        if not (s.min() > 0.0 and z[..., 0].min() > 0.0):
            raise NotInterior("%s barrier domain violated" % cone.kind)
        d2s = self.hessian(cone.dim)
        return _neg_log(s, z @ d2s, d2s)

    def barrier_third(self, cone, z, d):
        # a stack at a time: _log_third's form with s's third derivative 0
        d2s = self.hessian(cone.dim)
        ds, hd, s = z @ d2s, d @ d2s, self.quadratic(z)[..., None]
        u = (ds * d).sum(axis=-1, keepdims=True) / s
        w = (hd * d).sum(axis=-1, keepdims=True) / s - 2.0 * u * u
        return (2.0 * u * hd + w * ds) / s


class _Soc(_Quadratic):
    kind = dual_kind = SOC
    min_dim = 2
    head = ((2.0, 0.0), (0.0, -2.0))
    interior = ((1.0,), 0.0)

    def member(self, cone, p, tol):
        t = p[..., 0]
        return (t >= -tol) & (np.sqrt(_dot(p[..., 1:])) <= t + tol)

    def strict_member(self, cone, p):
        return p[..., 0] > np.sqrt(_dot(p[..., 1:]))

    def separate(self, cone, p):
        nx = float(np.linalg.norm(p[1:]))
        return np.r_[1.0, -p[1:] / nx if nx > 0.0 else np.zeros(cone.dim - 1)]

    def quadratic(self, z):
        t = z[..., 0]
        return t * t - _dot(z[..., 1:])

    def sample(self, cone, rng, scale, interior, shape):
        x = rng.standard_normal(shape + (cone.dim - 1,)) * scale
        if interior:
            t = np.sqrt(_dot(x)) + rng.uniform(0.2, 1.5, size=shape) * scale
        else:
            t = np.sqrt(_dot(x)) * rng.uniform(1.0, 2.0, size=shape)
        return np.concatenate((t[..., None], x), axis=-1)

    def tangents(self, cone):
        e = np.eye(cone.dim)
        return [e[0]] + [e[0] + s * e[i] for i in range(1, cone.dim)
                         for s in (1.0, -1.0)]


class _Rsoc(_Quadratic):
    # Separation and sampling go through the rotation onto SOC; membership
    # and the barrier keep their own formulas, whose rounding results rely on.
    kind = dual_kind = RSOC
    min_dim = 3
    head = ((0.0, 2.0), (2.0, 0.0))
    interior = ((1.0, 1.0), 0.0)

    def member(self, cone, p, tol):
        x, y, ww = p[..., 0], p[..., 1], _dot(p[..., 2:])
        return (x >= -tol) & (y >= -tol) & (
            ww <= 2.0 * np.maximum(x, 0.0) * np.maximum(y, 0.0) + tol)

    def strict_member(self, cone, p):
        # x > 0 and w'w < 2xy, which leaves y > 0
        x = p[..., 0]
        return (x > 0.0) & (_dot(p[..., 2:]) < 2.0 * x * p[..., 1])

    def separate(self, cone, p):
        return _rsoc_rotate(_SOC.separate(cone, _rsoc_rotate(p)))

    def quadratic(self, z):
        return 2.0 * z[..., 0] * z[..., 1] - _dot(z[..., 2:])

    def sample(self, cone, rng, scale, interior, shape):
        return _rsoc_rotate(_SOC.sample(cone, rng, scale, interior, shape))

    def tangents(self, cone):
        e = np.eye(cone.dim)
        return list(e[:2]) + [
            a * e[0] + b * e[1] + s * e[i] for i in range(2, cone.dim)
            for a, b in ((1.0, 0.5), (0.5, 1.0)) for s in (1.0, -1.0)]


class _ThreeCoordinate(_Family):
    """A family of three-coordinate factors, each test and the barrier a
    closed form in one point's coordinates: they run point by point in
    scalar math, since a group of these factors holds few points, and one
    numpy operation costs more than a point's whole closed form."""

    fixed_dim = 3

    def member(self, cone, p, tol):
        return _rowwise(self.point_member, p, cone, tol)

    def strict_member(self, cone, p):
        return _rowwise(self.point_strict_member, p, cone)

    def barrier(self, cone, z):
        out = _rowwise(self.point_barrier, z, cone)
        return out[..., 0], out[..., 1:4], out[..., 4:].reshape(z.shape + (3,))

    def barrier_third(self, cone, z, d):
        return _rowwise(self.point_third, np.concatenate((z, d), axis=-1),
                        cone)


class _Exp(_ThreeCoordinate):
    kind = EXP
    dual_kind = EXPDUAL
    interior = ((-1.0, 1.0, 1.0), 0.0)

    def point_member(self, x, y, z, cone, tol):
        # y * exp(x/y) <= z + tol, in log form where exp would overflow;
        # the left side is positive even where it underflows to 0
        if y > 0.0 and z + tol > 0.0:
            r = x / y
            if r > 500.0:
                inside = math.log(y) + r <= math.log(z + tol)
            else:
                inside = y * math.exp(r) <= z + tol
            if inside:
                return True
        # the closure's face y = 0
        return abs(y) <= tol and x <= tol and z >= -tol

    def point_strict_member(self, x, y, z, cone):
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
        return np.array([0.0, 0.0, 1.0] if z < y else [0.0, 1.0, 0.0])

    def psi(self, x, y, z):
        # psi = y log(z/y) - x with its gradient and Hessian, for y, z > 0
        lzy = math.log(z / y)
        d2psi = ((0.0, 0.0, 0.0), (0.0, -1.0 / y, 1.0 / z),
                 (0.0, 1.0 / z, -y / z**2))
        return y * lzy - x, (-1.0, lzy - 1.0, y / z), d2psi

    def point_barrier(self, x, y, z, cone):
        # -log psi - log y - log z
        if y <= 0.0 or z <= 0.0:
            raise NotInterior("exp barrier domain violated")
        psi, dpsi, d2psi = self.psi(x, y, z)
        if psi <= 0.0:
            raise NotInterior("exp barrier domain violated")
        return [-math.log(psi) - math.log(y) - math.log(z)] + _log_row(
            psi, dpsi, d2psi, (0.0, -1.0 / y, -1.0 / z),
            (0.0, 1.0 / y**2, 1.0 / z**2))

    def point_third(self, x, y, z, dx, dy, dz, cone):
        # psi's third derivative along d twice is
        # (0, dy^2/y^2 - dz^2/z^2, 2 dz (y dz/z - dy) / z^2)
        ry, rz = dy / y, dz / z
        d3psi = (0.0, ry * ry - rz * rz, 2.0 * rz * (y * rz - dy) / z)
        return _log_third(*self.psi(x, y, z), d3psi, (dx, dy, dz), (
            0.0, _log_third_1(dy, y), _log_third_1(dz, z)))

    def sample(self, cone, rng, scale, interior, shape):
        y_low, z_range = (0.2, (1.2, 3.0)) if interior else (0.05, (1.0, 2.0))
        x = rng.uniform(-2.0, 2.0, size=shape) * scale
        y = rng.uniform(y_low, 2.0, size=shape) * scale
        z = y * _exp(np.minimum(x / y, 30.0)) * rng.uniform(
            *z_range, size=shape)
        return np.stack((x, y, z), axis=-1)

    def tangents(self, cone):
        return [np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])] + [
            np.array([-math.exp(x0), -math.exp(x0) * (1.0 - x0), 1.0])
            for x0 in (-1.0, 0.0, 1.0)]


class _Pow(_ThreeCoordinate):
    kind = POW
    dual_kind = POWDUAL
    has_alpha = True
    interior = ((1.0, 1.0, 0.0), 0.0)

    def point_member(self, x, y, z, cone, tol):
        if x < -tol or y < -tol:
            return False
        return abs(z) <= _pow_surface(x, y, cone.alpha) + tol

    def point_strict_member(self, x, y, z, cone):
        if x <= 0.0 or y <= 0.0:
            return False
        a = cone.alpha
        return z == 0.0 or (
            math.log(abs(z)) < a * math.log(x) + (1.0 - a) * math.log(y))

    def separate(self, cone, p):
        alpha = cone.alpha
        x, y, z = p
        xc, yc = max(x, 0.0), max(y, 0.0)
        viol_sign = -min(x, y, 0.0)
        viol_surf = abs(z) - _pow_surface(xc, yc, alpha)
        if viol_sign >= viol_surf:
            return np.eye(3)[0 if x <= y else 1]
        # |z| exceeds the surface: support the graph at (xc+d, yc+d), nudged
        # off zero coordinates but kept below |z| so the cut still separates.
        d = 0.0 if min(xc, yc) > 0.0 else abs(z) * 1e-9 + 1e-300
        for _ in range(60):
            xs, ys = xc + d, yc + d
            if _pow_surface(xs, ys, alpha) <= abs(z) - 0.5 * viol_surf:
                break
            d *= 1e-6
            if d < 1e-300:
                xs, ys = max(xc, 1e-300), max(yc, 1e-300)
                break
        b1 = alpha * math.exp((1.0 - alpha) * (math.log(ys) - math.log(xs)))
        b2 = (1.0 - alpha) * math.exp(alpha * (math.log(xs) - math.log(ys)))
        return np.array([b1, b2, -math.copysign(1.0, z)])

    def phi(self, x, y, z, a):
        # xa = x^2a y^(2-2a), and phi = xa - z^2 with its gradient and
        # Hessian, for x, y > 0
        xa = math.exp(2.0 * a * math.log(x) + 2.0 * (1.0 - a) * math.log(y))
        c = 4.0 * a * (1.0 - a) * xa / (x * y)
        d2phi = ((2.0 * a * (2.0 * a - 1.0) * xa / x**2, c, 0.0),
                 (c, 2.0 * (1.0 - a) * (1.0 - 2.0 * a) * xa / y**2, 0.0),
                 (0.0, 0.0, -2.0))
        dphi = (2.0 * a * xa / x, 2.0 * (1.0 - a) * xa / y, -2.0 * z)
        return xa, xa - z * z, dphi, d2phi

    def point_barrier(self, x, y, z, cone):
        # -log phi - (1-a) log x - a log y
        a = cone.alpha
        if x <= 0.0 or y <= 0.0:
            raise NotInterior("pow barrier domain violated")
        _, phi, dphi, d2phi = self.phi(x, y, z, a)
        if phi <= 0.0:
            raise NotInterior("pow barrier domain violated")
        val = -math.log(phi) - (1.0 - a) * math.log(x) - a * math.log(y)
        return [val] + _log_row(
            phi, dphi, d2phi,
            (-(1.0 - a) / x, -a / y, 0.0), ((1.0 - a) / x**2, a / y**2, 0.0))

    def point_third(self, x, y, z, dx, dy, dz, cone):
        # xa = x^A y^B, A = ea = 2a and B = eb = 2 - 2a, has d'xa''d = xa h
        # along d, with rx = dx/x, ry = dy/y, g = A rx + B ry and
        # h = g^2 - A rx^2 - B ry^2; its derivative in x is
        # A xa/x (h - 2 rx (g - rx)), and in y likewise
        a = cone.alpha
        xa, *phi = self.phi(x, y, z, a)
        ea, eb, rx, ry = 2.0 * a, 2.0 - 2.0 * a, dx / x, dy / y
        g = ea * rx + eb * ry
        h = g * g - ea * rx * rx - eb * ry * ry
        d3phi = (ea * xa / x * (h - 2.0 * rx * (g - rx)),
                 eb * xa / y * (h - 2.0 * ry * (g - ry)), 0.0)
        return _log_third(*phi, d3phi, (dx, dy, dz), (
            (1.0 - a) * _log_third_1(dx, x), a * _log_third_1(dy, y), 0.0))

    def sample(self, cone, rng, scale, interior, shape, surface=(1.0, 1.0)):
        # z below the surface at (x, y), or POWDUAL's w at (u/a, v/(1-a))
        low, z_max = (0.3, 0.8) if interior else (0.0, 1.0)
        x = rng.uniform(low, 2.0, size=shape) * scale
        y = rng.uniform(low, 2.0, size=shape) * scale
        z = _pow_surfaces(x / surface[0], y / surface[1], cone.alpha) * (
            rng.uniform(-z_max, z_max, size=shape))
        return np.stack((x, y, z), axis=-1)

    def tangents(self, cone):
        a = cone.alpha
        return [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                np.array([a, 1.0 - a, 1.0]), np.array([a, 1.0 - a, -1.0])]


class _LinearImage(_Family):
    """The cone {p : M p in primal} for a fixed symmetric invertible M.

    If beta separates M p from the primal cone, M beta separates p from
    this one: (M beta).p = beta.(M p), and M beta pairs nonnegatively with
    every member.  Operations call the primal family's methods directly.
    """

    def __init__(self, primal):
        self.primal, self.dual_kind, self.nu = primal, primal.kind, primal.nu
        self.fixed_dim, self.has_alpha = primal.fixed_dim, primal.has_alpha

    def member(self, cone, p, tol):
        return self.primal.member(cone, self.map(cone, p), tol)

    def strict_member(self, cone, p):
        return self.primal.strict_member(cone, self.map(cone, p))

    def separate(self, cone, p):
        return self.map(cone, self.primal.separate(cone, self.map(cone, p)))


class _ExpDual(_LinearImage):
    kind = EXPDUAL
    interior = ((-1.0, 1.0, 1.0), 0.0)
    coefficients = np.array([-1.0, -1.0, math.e])

    def map(self, cone, p):
        return p[..., [1, 0, 2]] * self.coefficients

    def sample(self, cone, rng, scale, interior, shape):
        u_low, w_range = (0.2, (1.2, 3.0)) if interior else (0.05, (1.0, 2.0))
        u = -rng.uniform(u_low, 2.0, size=shape) * scale
        v = rng.uniform(-2.0, 2.0, size=shape) * scale
        w = (-u) * _exp(np.minimum(v / u, 30.0)) / math.e * rng.uniform(
            *w_range, size=shape)
        return np.stack((u, v, w), axis=-1)


class _PowDual(_LinearImage):
    kind = POWDUAL
    interior = ((1.0, 1.0, 0.0), 0.0)

    def map(self, cone, p):
        return p / np.array([cone.alpha, 1.0 - cone.alpha, 1.0])

    def sample(self, cone, rng, scale, interior, shape):
        surface = (cone.alpha, 1.0 - cone.alpha)
        return self.primal.sample(cone, rng, scale, interior, shape, surface)


_SOC, _EXP, _POW = _Soc(), _Exp(), _Pow()
_FAMILIES = {f.kind: f for f in (_Nonneg(), _SOC, _Rsoc(), _EXP, _POW,
                                 _ExpDual(_EXP), _PowDual(_POW))}


def dual(cone):
    """The dual cone description.  Self-dual families return themselves."""
    kind = cone.family.dual_kind
    return cone if kind == cone.kind else Cone(kind, cone.dim, cone.alpha)


def _check_dim(cone, p):
    p = np.asarray(p, dtype=float)
    if p.ndim == 0 or p.shape[-1] != cone.dim:
        raise DimensionMismatch(
            "point of shape %s for cone of dim %d" % (p.shape, cone.dim))
    return p


def member(cone, p, tol=0.0):
    """Membership with additive tolerance on the defining inequalities.

    A bool for one point, an array for a stack along the last axis.  Dual
    families apply tol to the primal inequalities at the mapped point.
    """
    p = _check_dim(cone, p)
    inside = cone.family.member(cone, p, tol)
    return bool(inside) if p.ndim == 1 else inside


def strict_member(cone, p):
    """Exact strict-interior test, the barrier's domain; as member does.

    Evaluated in log form where the defining inequality could overflow."""
    p = _check_dim(cone, p)
    inside = cone.family.strict_member(cone, p)
    return bool(inside) if p.ndim == 1 else inside


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
    return None if n == 0.0 else beta / n


def interior_point(cone):
    """A canonical strictly interior point with max-abs 1: the conic
    solver's start on a primal factor, and on a dual factor the direction
    along which outer approximation repairs a cut."""
    head, rest = cone.family.interior
    return np.r_[head, np.full(cone.dim - len(head), rest)]


def barrier_value_grad_hess(cone, z):
    """Standard log-homogeneous self-concordant barrier at interior point z.

    (value, gradient, hessian), stacked as z is; raises NotInterior unless
    every point is strictly inside the cone."""
    return cone.family.barrier(cone, _check_dim(cone, z))


def barrier_third(cone, z, d):
    """The barrier's third derivative at interior point z along d twice,
    F'''(z)[d, d], stacked as z and d are.  z is not tested, and where the
    term overflows it is not finite."""
    return cone.family.barrier_third(cone, _check_dim(cone, z),
                                     _check_dim(cone, d))


def tangents(cone):
    """Boundary points of the dual cone that start an outer approximation.

    Each is a valid cut beta.z >= 0 on the factor; together they give the
    first polyhedral relaxation of the cone.
    """
    return cone.family.tangents(cone)


def sample_point(cone, rng, scale=1.0, interior=False):
    """A random point of the cone: boundary-reaching, or strictly interior."""
    return cone.family.sample(cone, rng, scale, interior, ())


sample_interior = partial(sample_point, interior=True)


def sample_product(cones, rng, interior=False, size=None):
    """A random point of a ConeProduct, or an (N, dim) stack for size=N.

    One point draws factor by factor, as seeded instances were made; a stack
    draws a group's N points in one call."""
    if size is None:
        return np.concatenate([np.zeros(0)] + [
            f.family.sample(f, rng, 1.0, interior, ()) for f in cones.factors])
    out = np.empty((size, cones.dim))
    for g in cones.groups:
        rows = g.cone.family.sample(g.cone, rng, 1.0, interior, (size, g.k))
        out[:, g.index] = rows.reshape(size, -1)
    return out


def member_product(cones, z, tol=0.0):
    """Factor-wise membership of a full z-block, one test per group."""
    z = np.asarray(z, dtype=float)
    if z.shape != (cones.dim,):
        raise DimensionMismatch("z of shape %s for product dim %d" % (z.shape, cones.dim))
    return all(member(g.cone, g.stack(z), tol).all() for g in cones.groups)
