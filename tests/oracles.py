"""Independent oracles used by several test modules.

These deliberately avoid the code paths they validate: angles come from
tangent vectors at the vertex (production uses the law of cosines),
geodesic lengths come from numeric quadrature of each model's line
element (production uses closed-form distance functions), tokens come
from a two-regex tokenizer (production uses one named-group regex), and
lines come from a brute-force closure (production keeps an incidence
index and merges by size), and renamed facts come from a per-kind
dispatch over a {name: point} dict (production runs compiled positions).
"""

import math
import re

from scipy.integrate import quad

from ponscheck import terms as T
from ponscheck.geometry import Model, Vec


def tangent_angle(model: Model, a: Vec, v: Vec, b: Vec) -> float:
    """Angle at v via inner product of unit tangents toward a and b."""
    u1 = model.unit_tangent(v, a)
    u2 = model.unit_tangent(v, b)
    c = model.tangent_dot(v, u1, u2)
    return math.acos(min(1.0, max(-1.0, c)))


def _speed(model: Model, p: Vec, u, t: float, h: float = 1e-6) -> float:
    """Norm of the geodesic velocity at parameter t, by central
    differences in the ambient coordinates weighted by the line element."""
    g1 = model.exp(p, u, t - h)
    g2 = model.exp(p, u, t + h)
    mid = model.exp(p, u, t)
    dg = [(x2 - x1) / (2.0 * h) for x1, x2 in zip(g1, g2)]
    euclid = math.sqrt(sum(x * x for x in dg))
    if model.name == "euclidean":
        return euclid
    if model.name == "poincare":
        r2 = sum(x * x for x in mid)
        return 2.0 * euclid / (1.0 - r2)
    if model.name == "sphere":
        return euclid  # ambient restriction of the round metric
    raise ValueError(model.name)


def quadrature_distance(model: Model, p: Vec, q: Vec) -> float:
    """Arclength of the geodesic from p to q by quadrature; independent
    check that dist and exp agree with the Riemannian line element."""
    total = model.dist(p, q)
    u = model.unit_tangent(p, q)
    val, _err = quad(lambda t: _speed(model, p, u, t), 0.0, total, limit=200)
    return val


# --- symbolic front end ----------------------------------------------------

_OLD_TOKEN_RE = re.compile(r"==|[:,\[\]()<]|[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*|\S")
_OLD_IDENT_RE = r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*"


def two_regex_tokenize(text: str):
    """The original tokenizer: one regex finds the tokens, a second one
    classifies each.  Yields (kind, value, line, col)."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        produced = False
        for m in _OLD_TOKEN_RE.finditer(line):
            v = m.group(0)
            col = m.start() + 1
            if v == "==" or v in ":,[]()<":
                out.append(("punct", v, lineno, col))
            elif re.fullmatch(_OLD_IDENT_RE, v):
                out.append(("ident", v, lineno, col))
            else:
                out.append(("junk", v, lineno, col))
            produced = True
        if produced:
            out.append(("nl", "", lineno, len(raw) + 1))
    out.append(("eof", "", len(text.splitlines()) + 1, 1))
    return out


def closure_lines(triples):
    """Brute-force collinearity closure: start from one line per triple and
    merge any two lines sharing two points until nothing changes."""
    lines = [set(t) for t in triples]
    changed = True
    while changed:
        changed = False
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                if len(lines[i] & lines[j]) >= 2:
                    lines[i] |= lines.pop(j)
                    changed = True
                    break
            if changed:
                break
    return {frozenset(line) for line in lines}


# --- renaming --------------------------------------------------------------


def dict_subst_fact(fact, mapping):
    """The fact with every point p renamed to mapping[p], rebuilt through
    the constructors in the order terms.rename calls them."""
    m, kind = mapping, type(fact)
    if kind is T.SegEq or kind is T.SegLt:
        (_, a, b), (_, c, d) = fact[1], fact[2]
        make = T.seg_eq if kind is T.SegEq else T.seg_lt
        return make(T.segment(m[a], m[b]), T.segment(m[c], m[d]))
    if kind is T.AngEq or kind is T.AngLt:
        (_, v, p, q), (_, w, r, t) = fact[1], fact[2]
        make = T.ang_eq if kind is T.AngEq else T.ang_lt
        return make(T.angle(m[p], m[v], m[q]), T.angle(m[r], m[w], m[t]))
    if kind is T.Between:
        return T.between(m[fact[1]], m[fact[2]], m[fact[3]])
    if kind is T.NonCollinear:
        return T.non_collinear(m[fact[1]], m[fact[2]], m[fact[3]])
    if kind is T.Absurd:
        return T.ABSURD
    raise TypeError(f"not a fact: {fact!r}")
