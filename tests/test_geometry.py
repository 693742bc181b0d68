"""Metric models: frozen values, metric axioms, quadrature cross-checks."""

import math
from random import Random

import pytest

from ponscheck.geometry import (
    EUCLIDEAN,
    MODELS,
    POINCARE,
    SPHERE,
    DegenerateDirection,
    DomainError,
    disk_to_hyperboloid,
    get_model,
    hyperboloid_to_disk,
    minkowski_dot,
)
from oracles import quadrature_distance

# Independently derived: the hyperbolic length of the diameter segment
# from the origin to (r, 0) is log((1+r)/(1-r)); at r = 0.5 that is log 3,
# at r = 0.8 it is log 9 = 2 log 3.
LOG3 = 1.0986122886681098


def test_poincare_diameter_distance_frozen():
    assert POINCARE.dist((0.0, 0.0), (0.5, 0.0)) == pytest.approx(LOG3, abs=1e-12)
    assert POINCARE.dist((0.0, 0.0), (0.8, 0.0)) == pytest.approx(2 * LOG3, abs=1e-12)


def test_sphere_quarter_turn_frozen():
    assert SPHERE.dist((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) == pytest.approx(
        math.pi / 2, abs=1e-12
    )


def test_euclidean_distance():
    assert EUCLIDEAN.dist((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0, abs=1e-15)


def test_get_model():
    assert get_model("poincare") is POINCARE
    with pytest.raises(KeyError):
        get_model("taxicab")


def test_validate_rejects_out_of_domain():
    with pytest.raises(DomainError):
        POINCARE.validate((1.5, 0.0))
    with pytest.raises(DomainError):
        SPHERE.validate((0.0, 0.0, 0.5))


def test_unit_tangent_degenerate():
    with pytest.raises(DegenerateDirection):
        EUCLIDEAN.unit_tangent((1.0, 2.0), (1.0, 2.0))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_metric_axioms(name):
    # acos conditioning near coincident points bounds precision at ~1e-8
    model = MODELS[name]
    rng = Random(f"metric:{name}")
    for _ in range(200):
        p = model.random_point(rng)
        q = model.random_point(rng)
        r = model.random_point(rng)
        assert model.dist(p, p) == pytest.approx(0.0, abs=5e-8)
        assert model.dist(p, q) == pytest.approx(model.dist(q, p), abs=5e-8)
        assert model.dist(p, r) <= model.dist(p, q) + model.dist(q, r) + 5e-8


@pytest.mark.parametrize("name", sorted(MODELS))
def test_exp_reaches_target(name):
    model = MODELS[name]
    rng = Random(f"exp:{name}")
    for _ in range(100):
        p = model.random_point(rng)
        q = model.random_point(rng)
        d = model.dist(p, q)
        if d < 1e-6:
            continue
        got = model.point_toward(p, q, d)
        assert model.dist(got, q) == pytest.approx(0.0, abs=5e-8)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_exp_arclength_parametrized(name):
    model = MODELS[name]
    rng = Random(f"arc:{name}")
    for _ in range(100):
        p = model.random_point(rng)
        u = model.unit_tangent(p, model.random_point(rng))
        t = rng.uniform(0.05, 0.6)
        assert model.dist(p, model.exp(p, u, t)) == pytest.approx(t, abs=1e-9)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_rotate_tangent_angle(name):
    model = MODELS[name]
    rng = Random(f"rot:{name}")
    for _ in range(100):
        p = model.random_point(rng)
        u = model.unit_tangent(p, model.random_point(rng))
        theta = rng.uniform(0.1, math.pi - 0.1)
        v = model.rotate_tangent(p, u, theta)
        assert model.tangent_dot(p, u, v) == pytest.approx(math.cos(theta), abs=1e-9)
        w = model.perp_tangent(p, u)
        assert model.tangent_dot(p, u, w) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_distance_matches_quadrature(name):
    """dist agrees with the arclength of the exp geodesic under the
    model's line element (scipy quadrature, independent of the closed
    forms used in production)."""
    model = MODELS[name]
    rng = Random(f"quad:{name}")
    for _ in range(5):
        p = model.random_point(rng)
        q = model.random_point(rng)
        d = model.dist(p, q)
        if d < 0.05:
            continue
        assert quadrature_distance(model, p, q) == pytest.approx(d, rel=1e-6)


def test_poincare_diameter_matches_quadrature():
    assert quadrature_distance(POINCARE, (0.0, 0.0), (0.5, 0.0)) == pytest.approx(
        LOG3, rel=1e-9
    )


@pytest.mark.parametrize("name", sorted(MODELS))
def test_random_point_respects_limits(name):
    model = MODELS[name]
    rng = Random(f"lim:{name}")
    for _ in range(300):
        p = model.random_point(rng)
        model.validate(p)
        if name == "poincare":
            assert math.hypot(*p) <= model.sample_radius + 1e-12
        if name == "sphere":
            assert model.in_domain(p)
            # cap radius keeps any two samples within a unit arc
            assert model.dist(p, (0.0, 0.0, 1.0)) <= model.cap + 1e-12


def _norm(v):
    return math.sqrt(sum(c * c for c in v))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _poincare_unit_tangent(p, q):
    P, Q = disk_to_hyperboloid(p), disk_to_hyperboloid(q)
    d = POINCARE.dist(p, q)
    ch, sh = math.cosh(d), math.sinh(d)
    return tuple((Q[i] - ch * P[i]) / sh for i in range(3))


def _poincare_exp(p, v, t):
    P = disk_to_hyperboloid(p)
    ch, sh = math.cosh(t), math.sinh(t)
    H = tuple(ch * P[i] + sh * v[i] for i in range(3))
    s = math.sqrt(max(1e-12, -minkowski_dot(H, H)))
    return hyperboloid_to_disk(tuple(c / s for c in H))


def _poincare_perp_tangent(p, v):
    P = disk_to_hyperboloid(p)
    w = _cross((P[0], P[1], -P[2]), (v[0], v[1], -v[2]))
    n = math.sqrt(max(1e-12, minkowski_dot(w, w)))
    return tuple(c / n for c in w)


def _sphere_unit_tangent(p, q):
    d = SPHERE.dist(p, q)
    c, s = math.cos(d), math.sin(d)
    return tuple((q[i] - c * p[i]) / s for i in range(3))


def _sphere_exp(p, v, t):
    c, s = math.cos(t), math.sin(t)
    w = tuple(c * p[i] + s * v[i] for i in range(3))
    n = _norm(w)
    return (w[0] / n, w[1] / n, w[2] / n)


def _sphere_perp_tangent(p, v):
    w = _cross(p, v)
    n = _norm(w)
    return (w[0] / n, w[1] / n, w[2] / n)


# exp, unit_tangent and perp_tangent of each model with their vectors built
# by tuple(<generator>) and norms by sum(<generator>): the models build the
# same vectors element by element and must round exactly as these do (the
# euclidean model's 2-vectors are the same expressions)
REFERENCE = {
    "euclidean": (
        lambda p, v, t: (p[0] + t * v[0], p[1] + t * v[1]),
        lambda p, q: tuple((q[i] - p[i]) / EUCLIDEAN.dist(p, q) for i in range(2)),
        lambda p, v: (-v[1], v[0]),
    ),
    "poincare": (_poincare_exp, _poincare_unit_tangent, _poincare_perp_tangent),
    "sphere": (_sphere_exp, _sphere_unit_tangent, _sphere_perp_tangent),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_vector_operations_are_bit_identical_to_the_generator_form(name):
    """Same float operations in the same order, so `==`: a sum of products
    written as `a + b + c` would fail here from Python 3.12, where sum() is
    compensated."""
    model = MODELS[name]
    exp, unit_tangent, perp_tangent = REFERENCE[name]
    rng = Random(f"bits:{name}")
    for _ in range(500):
        p, q = model.random_point(rng), model.random_point(rng)
        u = model.unit_tangent(p, q)
        assert u == unit_tangent(p, q)
        assert model.perp_tangent(p, u) == perp_tangent(p, u)
        t = rng.uniform(-2.0 * model.max_leg, 2.0 * model.max_leg)
        assert model.exp(p, u, t) == exp(p, u, t)
