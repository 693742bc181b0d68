"""Proof checker for the isosceles-triangle base-angle theorems in
neutral geometry, with dependency analysis and numeric model checking."""

from __future__ import annotations

from importlib import import_module
from typing import Sequence

__version__ = "0.1.0"
# The keys of geometry.MODELS, which cli reads without loading geometry.
MODEL_NAMES = ("euclidean", "poincare", "sphere")
# The keys of models.BUILTIN_CONJECTURES and their arities, which every
# command checks a conjecture against without loading models.
CONJECTURE_ARITIES = {"angle_sum_pi": 3}


class UnknownConjecture(Exception):
    pass


def check_conjecture(name: str, points: Sequence[str]) -> None:
    """Raise UnknownConjecture unless `name` is a built-in conjecture over
    as many points as given."""
    arity = CONJECTURE_ARITIES.get(name)
    if arity is None:
        raise UnknownConjecture(name)
    if len(points) != arity:
        raise UnknownConjecture(f"{name} expects {arity} points, got {len(points)}")


from .depgraph import CYCLIC, EUCLIDEAN_ONLY, NEUTRAL, Graph, graph_from_blocks
from .elaborate import collect_statements, elaborate_script
from .kernel import CheckReport, TheoremStatement, check_proof
from .rules import RULES
from .script import ParseError, ScriptAst, parse

_GEOMETRY = ("geometry", "EUCLIDEAN", "MODELS", "POINCARE", "SPHERE", "get_model")
_MODELS = ("models", "ModelCheckReport", "eval_fact", "model_check", "sample_instance")
_LAZY = {**dict.fromkeys(_GEOMETRY, "geometry"), **dict.fromkeys(_MODELS, "models")}


def __getattr__(name: str) -> object:
    """Import the numeric layer (`geometry`, `models`) when it or a name
    exported from it is first asked for (PEP 562): `check` and `deps` never do."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


__all__ = [
    "__version__",
    "CYCLIC",
    "EUCLIDEAN_ONLY",
    "NEUTRAL",
    "Graph",
    "graph_from_blocks",
    "collect_statements",
    "elaborate_script",
    "EUCLIDEAN",
    "MODELS",
    "POINCARE",
    "SPHERE",
    "get_model",
    "CheckReport",
    "TheoremStatement",
    "check_proof",
    "ModelCheckReport",
    "eval_fact",
    "model_check",
    "sample_instance",
    "RULES",
    "ParseError",
    "ScriptAst",
    "parse",
]
