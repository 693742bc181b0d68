"""Three constant-curvature plane models sharing one small interface.

Points are plain tuples: (x, y) for the euclidean plane and the open unit
Poincare disk, a unit 3-vector (x, y, z) for the sphere.  Each model
provides distances, its law of cosines (which models' plans measure
angles with), geodesic motion (exp map along a unit tangent), the unit
tangent toward a point and its turns, and seeded point sampling.  Each model class also
carries its numeric profile (equality tolerance and order margin, sampling
distances, sampling region, working domain), so no caller branches on a
model's name; `model --tol` measures with copies made by with_eq_tol.

The Poincare disk is handled internally on the hyperboloid sheet
{x^2 + y^2 - t^2 = -1, t > 0} in Minkowski 3-space, where geodesics are the
cosh/sinh analogue of great circles; points are projected back to the disk
at the API boundary.  Spherical work stays inside an open hemisphere around
the north pole so that geodesics between sample points are unique and
strict betweenness behaves as in the plane.
"""

from __future__ import annotations

import math
from random import Random
from typing import Tuple

from . import MODEL_NAMES

Vec = Tuple[float, ...]


class DomainError(ValueError):
    """Point outside a model's domain (e.g. on or beyond the disk rim)."""


class DegenerateDirection(ValueError):
    """No unique tangent direction (coincident or antipodal-ish points)."""


_TINY = 1e-12


def _norm2(v: Vec) -> float:  # a sum(), which is compensated from Python 3.12: not a + b + c
    return math.sqrt(sum((v[0] * v[0], v[1] * v[1], v[2] * v[2])))


def _clamp(x: float, lo: float = -1.0, hi: float = 1.0) -> float:
    return min(hi, max(lo, x))


class Model:
    """One constant-curvature model and its numeric profile: the equality
    tolerance of measurements (two measures are equal when |x-y| <= eq_tol
    * (1 + max(|x|,|y|)), strictly ordered when they differ by lt_margin
    scaled the same way), the intrinsic distances sampled points keep
    (min_separation apart, legs of at most max_leg, instances no wider than
    max_spread), the region random_point draws from and the working domain
    constructions must stay in.  The separation (with models.MIN_ANGLE)
    rejects near-degenerate triangles so that strict facts (Lt,
    NonCollinear) hold by a margin far above the tolerance."""

    name: str = ""
    flat: bool = False  # zero curvature: euclidean-only claims must hold here
    eq_tol: float
    min_separation: float
    max_leg: float
    max_spread: float = math.inf

    @property
    def lt_margin(self) -> float:
        return 10.0 * self.eq_tol

    def with_eq_tol(self, eq_tol: float) -> "Model":
        """A new model of this class that measures at eq_tol; self is unchanged."""
        model = type(self)()
        model.__dict__.update(vars(self), eq_tol=eq_tol)
        return model

    def in_domain(self, p: Vec) -> bool:
        """Whether p lies in the working domain (the whole model by default)."""
        return True

    def in_sample_region(self, p: Vec) -> bool:
        """Whether a sampled instance may keep p."""
        return self.in_domain(p)

    def validate(self, p: Vec) -> None:
        raise NotImplementedError

    def dist(self, p: Vec, q: Vec) -> float:
        raise NotImplementedError

    def cos_angle(self, p: float, q: float, r: float) -> float:
        """Law of cosines: cosine of the angle between two geodesic arms
        of lengths p and q whose far ends are r apart (unclamped)."""
        raise NotImplementedError

    def unit_tangent(self, p: Vec, q: Vec):
        """Unit tangent at p pointing along the geodesic toward q."""
        raise NotImplementedError

    def exp(self, p: Vec, v, t: float) -> Vec:
        """Walk arc length t from p along unit tangent v."""
        raise NotImplementedError

    def perp_tangent(self, p: Vec, v):
        """A unit tangent at p orthogonal to v."""
        raise NotImplementedError

    def tangent_dot(self, p: Vec, u, v) -> float:
        """Riemannian inner product of tangent vectors at p."""
        raise NotImplementedError

    def random_point(self, rng: Random) -> Vec:
        raise NotImplementedError

    def rotate_tangent(self, p: Vec, v, ang: float):
        """Rotate a unit tangent at p by ang (sign picks the half-plane)."""
        w = self.perp_tangent(p, v)
        c, s = math.cos(ang), math.sin(ang)
        return tuple(c * a + s * b for a, b in zip(v, w))

    def point_toward(self, p: Vec, q: Vec, t: float) -> Vec:
        """Point at arc length t from p on the geodesic through q."""
        return self.exp(p, self.unit_tangent(p, q), t)


class EuclideanModel(Model):
    name = "euclidean"
    flat = True
    eq_tol = 1e-9
    min_separation = 0.8
    max_leg = 2.5
    box = 4.0  # random_point draws from [-box, box]^2

    def validate(self, p: Vec) -> None:
        if len(p) != 2 or not all(math.isfinite(c) for c in p):
            raise DomainError(f"bad euclidean point: {p!r}")

    def dist(self, p: Vec, q: Vec) -> float:
        return math.hypot(p[0] - q[0], p[1] - q[1])

    def cos_angle(self, p: float, q: float, r: float) -> float:
        return (p * p + q * q - r * r) / (2.0 * p * q)

    def unit_tangent(self, p: Vec, q: Vec):
        d = self.dist(p, q)
        if d < _TINY:
            raise DegenerateDirection("coincident points")
        return ((q[0] - p[0]) / d, (q[1] - p[1]) / d)

    def exp(self, p: Vec, v, t: float) -> Vec:
        return (p[0] + t * v[0], p[1] + t * v[1])

    def perp_tangent(self, p: Vec, v):
        return (-v[1], v[0])

    def tangent_dot(self, p: Vec, u, v) -> float:
        return u[0] * v[0] + u[1] * v[1]

    def random_point(self, rng: Random) -> Vec:
        b = self.box
        return (rng.uniform(-b, b), rng.uniform(-b, b))


def disk_to_hyperboloid(p: Vec) -> Vec:
    """Lift a disk point to the upper hyperboloid sheet."""
    r2 = p[0] * p[0] + p[1] * p[1]
    d = 1.0 - r2
    if d <= 0:
        raise DomainError(f"point not inside unit disk: {p!r}")
    return (2.0 * p[0] / d, 2.0 * p[1] / d, (1.0 + r2) / d)


def hyperboloid_to_disk(h: Vec) -> Vec:
    return (h[0] / (1.0 + h[2]), h[1] / (1.0 + h[2]))


def minkowski_dot(u: Vec, v: Vec) -> float:
    return u[0] * v[0] + u[1] * v[1] - u[2] * v[2]


class PoincareModel(Model):
    name = "poincare"
    eq_tol = 1e-7
    min_separation = 0.25
    max_leg = 0.9
    sample_radius = 0.9  # euclidean radius of the sampled disk
    # Hyperbolic radius of the working domain.  Float error in a construction
    # grows like e^R at distance R from the centre; a sound two-extend proof
    # first failed at R <= 9, so the bound keeps a margin of 2 below that.
    max_radius = 7.0
    _domain_r2 = math.tanh(max_radius / 2) ** 2  # its euclidean radius, squared

    def validate(self, p: Vec) -> None:
        if len(p) != 2 or not all(math.isfinite(c) for c in p):
            raise DomainError(f"bad disk point: {p!r}")
        if p[0] * p[0] + p[1] * p[1] >= 1.0:
            raise DomainError(f"point not inside unit disk: {p!r}")

    def dist(self, p: Vec, q: Vec) -> float:
        dp = 1.0 - (p[0] * p[0] + p[1] * p[1])
        dq = 1.0 - (q[0] * q[0] + q[1] * q[1])
        if dp <= 0 or dq <= 0:
            raise DomainError("point not inside unit disk")
        dd = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
        return math.acosh(max(1.0, 1.0 + 2.0 * dd / (dp * dq)))

    def cos_angle(self, p: float, q: float, r: float) -> float:
        cosh, sinh = math.cosh, math.sinh
        return (cosh(p) * cosh(q) - cosh(r)) / (sinh(p) * sinh(q))

    def unit_tangent(self, p: Vec, q: Vec):
        P, Q = disk_to_hyperboloid(p), disk_to_hyperboloid(q)
        d = self.dist(p, q)
        if d < _TINY:
            raise DegenerateDirection("coincident points")
        ch, sh = math.cosh(d), math.sinh(d)
        return ((Q[0] - ch * P[0]) / sh, (Q[1] - ch * P[1]) / sh, (Q[2] - ch * P[2]) / sh)

    def exp(self, p: Vec, v, t: float) -> Vec:
        P = disk_to_hyperboloid(p)
        ch, sh = math.cosh(t), math.sinh(t)
        H = (ch * P[0] + sh * v[0], ch * P[1] + sh * v[1], ch * P[2] + sh * v[2])
        # re-project to the sheet to cancel float drift
        s = math.sqrt(max(_TINY, -minkowski_dot(H, H)))
        return hyperboloid_to_disk((H[0] / s, H[1] / s, H[2] / s))

    def perp_tangent(self, p: Vec, v):
        P = disk_to_hyperboloid(p)
        # euclidean cross of the time-flipped vectors is Minkowski-orthogonal
        a = (P[0], P[1], -P[2])
        b = (v[0], v[1], -v[2])
        w = (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
        n = math.sqrt(max(_TINY, minkowski_dot(w, w)))
        return (w[0] / n, w[1] / n, w[2] / n)

    def tangent_dot(self, p: Vec, u, v) -> float:
        return minkowski_dot(u, v)

    def in_domain(self, p: Vec) -> bool:
        """Within hyperbolic distance max_radius of the centre."""
        return p[0] * p[0] + p[1] * p[1] <= self._domain_r2

    def in_sample_region(self, p: Vec) -> bool:
        return math.hypot(p[0], p[1]) <= self.sample_radius

    def random_point(self, rng: Random) -> Vec:
        r = self.sample_radius * math.sqrt(rng.random())
        th = rng.uniform(0.0, 2.0 * math.pi)
        return (r * math.cos(th), r * math.sin(th))


class SphereModel(Model):
    name = "sphere"
    eq_tol = 1e-7
    min_separation = 0.08
    max_leg = 0.45
    cap = 0.5  # radians from the north pole; pairwise <= 1.0 rad
    max_spread = 1.0

    def validate(self, p: Vec) -> None:
        if len(p) != 3 or not all(math.isfinite(c) for c in p):
            raise DomainError(f"bad sphere point: {p!r}")
        if abs(_norm2(p) - 1.0) > 1e-9:
            raise DomainError(f"not a unit vector: {p!r}")

    def in_domain(self, p: Vec) -> bool:
        """The open northern hemisphere."""
        return p[2] > _TINY

    def dist(self, p: Vec, q: Vec) -> float:
        return math.acos(_clamp(p[0] * q[0] + p[1] * q[1] + p[2] * q[2]))

    def cos_angle(self, p: float, q: float, r: float) -> float:
        return (math.cos(r) - math.cos(p) * math.cos(q)) / (math.sin(p) * math.sin(q))

    def unit_tangent(self, p: Vec, q: Vec):
        d = self.dist(p, q)
        if d < _TINY or d > math.pi - _TINY:
            raise DegenerateDirection("coincident or antipodal points")
        c, s = math.cos(d), math.sin(d)
        return ((q[0] - c * p[0]) / s, (q[1] - c * p[1]) / s, (q[2] - c * p[2]) / s)

    def exp(self, p: Vec, v, t: float) -> Vec:
        c, s = math.cos(t), math.sin(t)
        w = (c * p[0] + s * v[0], c * p[1] + s * v[1], c * p[2] + s * v[2])
        n = _norm2(w)
        return (w[0] / n, w[1] / n, w[2] / n)

    def perp_tangent(self, p: Vec, v):
        w = (
            p[1] * v[2] - p[2] * v[1],
            p[2] * v[0] - p[0] * v[2],
            p[0] * v[1] - p[1] * v[0],
        )
        n = _norm2(w)
        if n < _TINY:
            raise DegenerateDirection("tangent parallel to base point")
        return (w[0] / n, w[1] / n, w[2] / n)

    def tangent_dot(self, p: Vec, u, v) -> float:
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    def random_point(self, rng: Random) -> Vec:
        phi = self.cap * math.sqrt(rng.random())
        th = rng.uniform(0.0, 2.0 * math.pi)
        return (math.sin(phi) * math.cos(th), math.sin(phi) * math.sin(th), math.cos(phi))


EUCLIDEAN = EuclideanModel()
POINCARE = PoincareModel()
SPHERE = SphereModel()

MODELS = {m.name: m for m in (EUCLIDEAN, POINCARE, SPHERE)}


def get_model(name: str) -> Model:
    try:
        return MODELS[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; expected one of {MODEL_NAMES}") from None
