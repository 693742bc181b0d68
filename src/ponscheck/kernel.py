"""The deduction engine.

A proof is checked by forward chaining: hypotheses seed a fact set, each
step justifies new canonical facts via a rule application, a construction,
a trichotomy case split, or a lemma application, and qed verifies that the
cited labels establish every conclusion.  The facts each step other than a
case split derives come from step_facts, once the kernel's own checks pass;
the numeric replay in models measures the same facts.

Label semantics: a step label stands for the full tuple of facts its
justification produced (a rule application can yield up to three), so a
later citation matches if the needed premise is among them.  A citation is
a name: a label, or the reserved word `refl`, which discharges reflexive
equalities and registers SEG_REFL or ANG_REFL as used.  Equalities are
stored canonically, so a label cited for `x == y` also matches `y == x`.

Absurdity is quarantined: the ABSURD_* rules refuse to fire unless at
least one case assumption is open, so a reductio cannot leak out of its
branch except through the case-split bookkeeping itself.

Case branches run one after another on the one proof state.  Every update
to its scope (points, labels, known facts, the NonCollinear index, the line
table, open assumptions) is logged on an undo trail; after a branch closes,
the trail rolls the state back to where the split began.  So a branch sees
nothing its siblings derived, the parent gains only the split's own label,
and a split costs the work its branches do rather than a copy of the state.
A branch with no steps only names its assumption, as its close reads labels.

Names are resolved here and nowhere else: every point a step names and
every label a citation names must be in scope when the step runs, and a
name that is not fails that step alone.  A citation list is resolved in
full before any of its citations is matched.  A ValueError raised while a
step runs (its points cannot build a term) fails it as
DegenerateInstantiation, in _run_steps alone; a rule or lemma step naming
the wrong number of points fails as ArityMismatch.  _fail alone records a
failed step or case close, naming its exception's class.

Statements, steps and reports are NamedTuples (see node).  The parser
builds every step; a RuleStep keeps its fact and points as written, and
apply_rule builds the canonical fact from them.  A rule's premises and
conclusions and a lemma's hypotheses and conclusions are instantiated by
one renaming, terms.rename: a rule's at the step's points by its schema's
compiled positions, a lemma's through terms.subst_fact.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, NoReturn, Optional, Sequence, Set, Tuple, Union

from .rules import RULES
from .terms import (
    ABSURD,
    AngEq,
    Between,
    Fact,
    LineTable,
    NonCollinear,
    PointId,
    SegEq,
    Trail,
    between,
    canon_fact,  # noqa: F401  (perfbench's tracer counts calls through this name)
    fact_point_names,
    non_collinear,
    seg_eq,
    seg_lt,
    segment,
    subst_fact,
    written_fact,
)


class KernelError(Exception):
    """Base class for justification failures."""


class UnknownPremise(KernelError):
    pass


class PremiseMismatch(KernelError):
    pass


class SideConditionFailed(KernelError):
    pass


class DegenerateInstantiation(KernelError):
    pass


class ArityMismatch(KernelError):
    """A rule or lemma step names the wrong number of points."""


class ConclusionMismatch(KernelError):
    """The stated fact is not among the rule's conclusions here."""


class LayoffWithoutBound(KernelError):
    pass


class HypothesisNotSatisfied(KernelError):
    pass


class AbsurdOutsideCase(KernelError):
    pass


# ---------------------------------------------------------------------------
# Statements and proof steps


def node(cls):
    """Class decorator for NamedTuple nodes, steps and records: an instance
    equals only instances of its own class (tuple equality ignores the
    class), and a trailing `line` field is left out of equality and hashing."""
    n = -1 if cls._fields[-1] == "line" else None

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self[:n] == other[:n]

    def __hash__(self) -> int:
        return hash(self[:n])

    # object.__ne__ inverts __eq__; tuple's own __ne__ would bypass it
    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, object.__ne__, __hash__
    return cls


@node
class TheoremStatement(NamedTuple):
    """What a theorem claims: hypotheses over given points, conclusions that
    may also mention existentially introduced points (see check_statement)."""

    name: str
    points: Tuple[str, ...]
    hypotheses: Tuple[Tuple[str, Fact], ...]
    conclusions: Tuple[Fact, ...]
    introduced: Tuple[str, ...] = ()


Registry = Mapping[str, Optional[TheoremStatement]]  # lemmas by name; None for a bad statement


def check_statement(statement: TheoremStatement) -> None:
    """Raise ValueError when a hypothesis names a point other than the given
    ones, or a conclusion one neither given nor introduced."""
    given = set(statement.points)
    scope = given | set(statement.introduced)
    for label, fact in statement.hypotheses:
        for n in fact_point_names(fact):
            if n not in given:
                raise ValueError(
                    f"{statement.name}: hypothesis {label} mentions undeclared point {n}"
                )
    for fact in statement.conclusions:
        for n in fact_point_names(fact):
            if n not in scope:
                raise ValueError(f"{statement.name}: conclusion mentions unknown point {n}")


@node
class FactAst(NamedTuple):
    """A fact as written; `points` keeps source order.  For kind
    "between" the middle point is the one lying between the outer two."""

    kind: str  # seg_eq | seg_lt | ang_eq | ang_lt | between | noncollinear | absurd
    points: Tuple[str, ...] = ()


@node
class RuleStep(NamedTuple):
    """A rule application as written: `fact` is the stated conclusion and
    `points` the rule's, both in source form; `triples` records whether the
    points were written as two triples (congruence criteria) or one list.
    A citation (in `refs` here and in every step, close and qed) is a
    label or `refl`."""

    label: str
    fact: FactAst
    rule_id: str
    points: Tuple[str, ...]
    triples: bool
    refs: Tuple[str, ...]
    line: int = 0


@node
class ExtendStep(NamedTuple):
    """Prolong segment a..b beyond b by a copy of `seg`, naming the new end."""

    label: str
    a: str
    b: str
    seg: Tuple[str, str]
    fresh: str
    line: int = 0


@node
class LayoffStep(NamedTuple):
    """Place a point on segment start..toward at distance `seg` from start;
    needs a cited SegLt bound to guarantee it lands strictly inside."""

    label: str
    start: str
    toward: str
    seg: Tuple[str, str]
    fresh: str
    refs: Tuple[str, ...]
    line: int = 0


@node
class LemmaStep(NamedTuple):
    label: str
    lemma: str
    args: Tuple[str, ...]
    fresh: Tuple[str, ...]
    line: int = 0


@node
class CaseBranch(NamedTuple):
    kind: str  # "lt" | "eq" | "gt"
    steps: Tuple["Step", ...]
    close_kind: str  # "goal" | "absurd"
    close_refs: Tuple[str, ...]
    line: int = 0


@node
class CasesStep(NamedTuple):
    """Trichotomy on two segment terms; branch assumptions get the labels
    <label>.lt / <label>.eq / <label>.gt."""

    label: str
    left: Tuple[str, str]
    right: Tuple[str, str]
    branches: Tuple[CaseBranch, ...]
    line: int = 0


Step = Union[RuleStep, ExtendStep, LayoffStep, LemmaStep, CasesStep]


@node
class Proof(NamedTuple):
    steps: Tuple[Step, ...]
    qed_refs: Tuple[str, ...]
    line: int = 0  # of the qed line


# ---------------------------------------------------------------------------
# Reports


class StepResult(NamedTuple):  # equal only with the same line, so no node
    label: str
    ok: bool
    detail: str = ""
    line: int = 0


@node
class SideConditionRecord(NamedTuple):
    step: str
    triple: Tuple[str, str, str]
    outcome: str  # "derived" | "assumed" | "failed"


@node
class CheckReport(NamedTuple):
    name: str
    status: str  # "ok" | "failed"
    steps: Sequence[StepResult] = ()
    rule_uses: Tuple[str, ...] = ()
    lemma_uses: Tuple[str, ...] = ()
    side_conditions: Sequence[SideConditionRecord] = ()
    error: Optional[str] = None

    @property
    def uses(self) -> Tuple[str, ...]:
        """Dependency edges this proof contributes: rules, then lemmas."""
        return self.rule_uses + self.lemma_uses

    @property
    def assumed(self) -> Tuple[Tuple[str, str, str], ...]:
        """The side conditions taken on faith, each once, in first-seen order."""
        assumed = (r.triple for r in self.side_conditions if r.outcome == "assumed")
        return tuple(dict.fromkeys(assumed))


# ---------------------------------------------------------------------------
# Proof state


class ProofState:
    """The checking context of one proof: its statement, the lemma registry,
    `strict`, what is in scope and known, and the records.  Every update to
    the points, labels, known facts, NonCollinear index, line table and open
    assumptions is logged on `trail`, so a case branch runs on its parent's
    state and `trail.rollback(mark)` then restores the parent exactly.  The
    records (results, rule_uses, lemma_uses, side_conditions) only grow."""

    def __init__(
        self, statement: TheoremStatement, registry: Optional[Registry] = None, strict: bool = False
    ) -> None:
        self.statement = statement
        self.registry = registry or {}
        self.strict = strict
        self.trail = Trail()
        self.known: Set[Fact] = set()
        self.facts: Dict[str, Tuple[Fact, ...]] = {}
        self.points: Set[PointId] = set()
        self.lines = LineTable(self.trail)
        self.noncollinear: Dict[str, List[NonCollinear]] = {}  # by point name
        self.assumptions: List[Tuple[str, Fact]] = []
        self.results: List[StepResult] = []
        self.rule_uses: Dict[str, None] = {}  # an ordered set
        self.lemma_uses: List[str] = []
        self.side_conditions: List[SideConditionRecord] = []

    def point(self, name: str) -> PointId:
        if name not in self.points:
            raise KernelError(f"point {name} is not in scope")
        return name

    def require(self, names: Tuple[str, ...]) -> None:
        """Raise on the first of the names that is not in scope."""
        if not self.points.issuperset(names):
            for name in names:
                self.point(name)

    def bind_point(self, name: str) -> PointId:
        if name in self.points:
            raise KernelError(f"point name {name} already in scope")
        self.points.add(name)
        self.trail.append((set.discard, self.points, name))
        return name

    def name(self, label: str, facts: Tuple[Fact, ...]) -> Tuple[Fact, ...]:
        """Put the facts under a new label, for citations only."""
        if label in self.facts:
            raise KernelError(f"label {label} already defined")
        self.facts[label] = facts
        self.trail.append((dict.pop, self.facts, label))
        return facts

    def add_label(self, label: str, facts: Sequence[Fact]) -> None:
        """Name the given facts, which the term constructors built and so
        are canonical, and add them to the known set."""
        for f in self.name(label, tuple(facts)):
            self.know(f)

    def know(self, fact: Fact) -> None:
        """Add a canonical fact to the known set and to its index."""
        known = self.known
        size = len(known)
        known.add(fact)
        if len(known) == size:
            return
        self.trail.append((set.remove, known, fact))
        if isinstance(fact, Between):
            self.lines.record_between(fact)
        elif isinstance(fact, NonCollinear):
            for name in fact.names():
                facts = self.noncollinear.setdefault(name, [])
                facts.append(fact)
                self.trail.append((list.pop, facts, -1))


def initial_state(
    statement: TheoremStatement, registry: Optional[Registry] = None, strict: bool = False
) -> ProofState:
    check_statement(statement)
    state = ProofState(statement, registry, strict)
    for name in statement.points:
        state.bind_point(name)
    for label, fact in statement.hypotheses:
        state.add_label(label, (fact,))
    return state


# ---------------------------------------------------------------------------
# Side conditions


def _transfer_probe(state: ProofState, want: NonCollinear) -> bool:
    """One NC_TRANSFER step: some known NonCollinear(x,y,z) shares its z with
    the target, and the target's other two points lie with {x,y} on one
    recorded line."""
    target = want.names()
    for z in target:
        pq = [n for n in target if n != z]
        for fact in state.noncollinear.get(z, ()):
            xy = [n for n in fact.names() if n != z]
            if state.lines.common_line(pq + xy) is not None:
                return True
    return False


# ---------------------------------------------------------------------------
# Step semantics


def _lemma_points(lemma: TheoremStatement, args: Sequence[str]) -> Dict[str, PointId]:
    """A lemma's given points mapped to a step's arguments."""
    if len(args) != len(lemma.points):
        raise ArityMismatch(
            f"lemma {lemma.name} takes {len(lemma.points)} point(s), got {len(args)}"
        )
    return dict(zip(lemma.points, args))


def step_facts(step: Step, registry: Mapping[str, TheoremStatement]) -> Tuple[Fact, ...]:
    """The facts a rule, extend, layoff or lemma step derives, by point
    name.  The kernel adds them under the step's label once its checks
    pass; the numeric replay measures them.  Raises ValueError when the
    step's points cannot build them; apply_rule checks a rule step's arity."""
    if isinstance(step, RuleStep):
        return RULES[step.rule_id].instantiate_conclusions(step.points)
    if isinstance(step, (ExtendStep, LayoffStep)):
        fresh, s = step.fresh, segment(*step.seg)
        if isinstance(step, LayoffStep):
            return between(fresh, step.start, step.toward), seg_eq(segment(step.start, fresh), s)
        if step.a == step.b:
            raise ValueError("extend needs two distinct points")
        return between(step.b, step.a, fresh), seg_eq(segment(step.b, fresh), s)
    lemma = registry[step.lemma]
    mapping = _lemma_points(lemma, step.args)
    if len(step.fresh) != len(lemma.introduced):
        raise ArityMismatch(
            f"lemma {lemma.name} introduces {len(lemma.introduced)} point(s), "
            f"{len(step.fresh)} name(s) given"
        )
    mapping.update(zip(lemma.introduced, step.fresh))
    return tuple(subst_fact(c, mapping) for c in lemma.conclusions)


# ---------------------------------------------------------------------------
# Checking

_EQUIV_FOR_REFL = {SegEq: "SEG_REFL", AngEq: "ANG_REFL"}
_new = tuple.__new__  # builds a StepResult without its Python-level __new__


class _ProofFailed(Exception):
    """Ends a proof at a failed step or case close; args[0] is its StepResult."""


def _fail(state: ProofState, where: str, line: int, exc: Exception) -> NoReturn:
    """Record the failed step or close `where` and end the proof."""
    result = StepResult(where, False, f"{type(exc).__name__}: {exc}", line)
    state.results.append(result)
    raise _ProofFailed(result) from exc


def _resolve(state: ProofState, refs: Sequence[str]) -> None:
    """Raise UnknownPremise unless every label the citations name is in scope."""
    for ref in refs:
        if ref != "refl" and ref not in state.facts:
            raise UnknownPremise(f"no step or hypothesis labeled {ref}")


def _justifies(state: ProofState, ref: str, want: Fact) -> bool:
    """Whether one resolved citation yields `want`."""
    if ref == "refl":
        rule = _EQUIV_FOR_REFL.get(type(want))
        if rule is not None and want.left == want.right:  # type: ignore[union-attr]
            state.rule_uses[rule] = None
            return True
        return False
    return want in state.facts[ref]


def _check_covered(
    state: ProofState, refs: Sequence[str], wanted: Sequence[Fact], what: str
) -> None:
    _resolve(state, refs)
    for fact in wanted:
        for r in refs:
            if _justifies(state, r, fact):
                break
        else:
            raise PremiseMismatch(f"{what}: cited labels do not establish {fact!r}")


def _discharge_side_conditions(state: ProofState, step_label: str, triples) -> None:
    """Decide, record and raise on each NonCollinear obligation in turn:
    failed if its points coincide or share a recorded line; derived if known
    or an NC_TRANSFER probe yields it (it is then known); else assumed, or
    failed in strict mode."""
    for triple in triples:
        if len(set(triple)) < 3 or state.lines.common_line(triple) is not None:
            outcome = "failed"
        elif (want := non_collinear(*triple)) in state.known:
            outcome = "derived"
        elif _transfer_probe(state, want):
            outcome = "derived"
            state.rule_uses["NC_TRANSFER"] = None
            state.know(want)
        else:
            outcome = "failed" if state.strict else "assumed"
        names = tuple(sorted(triple))
        state.side_conditions.append(SideConditionRecord(step_label, names, outcome))
        if outcome == "failed":
            raise SideConditionFailed(
                f"cannot justify noncollinear({','.join(names)})"
                + (" (strict mode)" if state.strict else "")
            )


def apply_rule(state: ProofState, step: RuleStep) -> Tuple[Fact, ...]:
    """The facts a rule step derives.  Its checks run in this order; the
    first that fails raises: (1) the named points are in scope; (2) the rule
    exists; (3) the stated fact, then (after one ArityMismatch check of the
    step's points) its premises and conclusions can be built, else a
    ValueError; (4) one citation per premise, or a lone `refl` for none;
    (5) the cited labels are in scope, then each citation yields its
    premise; (6) NC_TRANSFER's points share a recorded line, then each side
    condition is derived or, outside strict mode, assumed; (7) an absurdity
    needs an open case; (8) the stated fact is a conclusion."""
    points = step.points
    state.require((*points, *step.fact.points))
    schema = RULES.get(step.rule_id)
    if schema is None:
        raise KernelError(f"unknown rule {step.rule_id}")
    fact = written_fact(*step.fact)
    if len(points) != len(schema.variables):
        raise ArityMismatch(f"{step.rule_id} expects {len(schema.variables)} points, got {len(points)}")
    premises = schema.instantiate_premises(points) if schema.premises else ()
    conclusions = step_facts(step, state.registry)

    refs = step.refs
    if len(refs) != len(premises):
        # Premise-free rules still need a `from` clause; a lone refl is it.
        if premises or len(refs) != 1 or refs[0] != "refl":
            raise PremiseMismatch(
                f"{step.rule_id} takes {len(premises)} premise(s), {len(refs)} cited"
            )
    elif refs:
        _resolve(state, refs)
        for ref, want in zip(refs, premises):
            if not _justifies(state, ref, want):
                if ref == "refl":
                    raise PremiseMismatch(f"refl does not justify {want!r}")
                have = ", ".join(repr(f) for f in state.facts[ref])
                raise PremiseMismatch(f"premise {want!r} expected; {ref} provides: {have}")

    if schema.collinear_side:
        names = [points[i] for i in schema.collinear_side_at]
        if state.lines.common_line(names) is None:
            raise SideConditionFailed(
                f"points {{{','.join(sorted(set(names)))}}} are not on one recorded line"
            )
    if schema.side_conditions:
        _discharge_side_conditions(state, step.label, schema.instantiate_side_conditions(points))

    if ABSURD in conclusions and not state.assumptions:
        raise AbsurdOutsideCase("absurdity derived outside any case assumption")
    state.rule_uses[step.rule_id] = None
    if fact not in conclusions:
        raise ConclusionMismatch(
            f"{fact!r} is not a conclusion of {step.rule_id} at this "
            f"instantiation (it yields: {', '.join(repr(c) for c in conclusions)})"
        )
    return conclusions


def apply_construction(state: ProofState, step: Union[ExtendStep, LayoffStep]) -> Tuple[Fact, ...]:
    if isinstance(step, LayoffStep):
        s = segment(state.point(step.seg[0]), state.point(step.seg[1]))
        bound = seg_lt(s, segment(state.point(step.start), state.point(step.toward)))
        _resolve(state, step.refs)
        if not any(_justifies(state, r, bound) for r in step.refs):
            raise LayoffWithoutBound(f"layoff needs {bound!r} among its citations")
    else:
        state.require((*step.seg, step.a, step.b))
    state.bind_point(step.fresh)
    return step_facts(step, state.registry)


def apply_lemma(state: ProofState, step: LemmaStep) -> Tuple[Fact, ...]:
    registry = state.registry
    lemma = registry.get(step.lemma)
    if lemma is None:  # no such block, or (None in the registry) a bad statement
        raise KernelError(f"lemma {step.lemma} has a bad statement" if step.lemma in registry
                          else f"unknown lemma {step.lemma}")
    check_statement(lemma)
    mapping = _lemma_points(lemma, step.args)
    state.require(step.args)
    for _, hyp in lemma.hypotheses:
        try:
            mapped = subst_fact(hyp, mapping)
        except ValueError:
            raise HypothesisNotSatisfied(
                f"lemma {lemma.name}: hypothesis {hyp!r} degenerates under this map"
            ) from None
        if mapped not in state.known:
            raise HypothesisNotSatisfied(f"lemma {lemma.name} needs {mapped!r}")
    for name in step.fresh:
        state.bind_point(name)
    facts = step_facts(step, registry)
    state.lemma_uses.append(lemma.name)
    return facts


def _run_step(state: ProofState, step: Step) -> None:
    if isinstance(step, RuleStep):
        state.add_label(step.label, apply_rule(state, step))
    elif isinstance(step, (ExtendStep, LayoffStep)):
        state.add_label(step.label, apply_construction(state, step))
    elif isinstance(step, LemmaStep):
        state.add_label(step.label, apply_lemma(state, step))
    elif isinstance(step, CasesStep):
        left = segment(state.point(step.left[0]), state.point(step.left[1]))
        right = segment(state.point(step.right[0]), state.point(step.right[1]))
        cases = (
            ("lt", seg_lt(left, right)),
            ("eq", seg_eq(left, right)),
            ("gt", seg_lt(right, left)),
        )
        if tuple(branch.kind for branch in step.branches) != ("lt", "eq", "gt"):
            raise KernelError("case branches must be lt, eq, gt in that order")
        for branch, (kind, assumption) in zip(step.branches, cases):
            mark = len(state.trail)
            label = f"{step.label}.{kind}"
            if branch.steps:
                state.assumptions.append((label, assumption))
                state.trail.append((list.pop, state.assumptions, -1))
                state.add_label(label, (assumption,))
                _run_steps(state, branch.steps)
            else:  # its close reads labels only
                state.name(label, (assumption,))
            wanted = (ABSURD,) if branch.close_kind == "absurd" else state.statement.conclusions
            try:
                _check_covered(state, branch.close_refs, wanted, f"close {branch.close_kind}")
            except KernelError as exc:
                _fail(state, f"{step.label} case {kind} close", branch.line, exc)
            state.trail.rollback(mark)
        # All three cases closed, so the goal stands unconditionally.
        state.add_label(step.label, state.statement.conclusions)
    else:
        raise KernelError(f"unknown step type: {step!r}")


def _run_steps(state: ProofState, steps: Sequence[Step]) -> None:
    for step in steps:
        try:
            _run_step(state, step)
        except KernelError as exc:  # a branch's _ProofFailed passes
            _fail(state, step.label, step.line, exc)
        except ValueError as exc:
            _fail(state, step.label, step.line, DegenerateInstantiation(str(exc)))
        state.results.append(_new(StepResult, (step.label, True, "", step.line)))


def bad_statement(name: str, error: object) -> CheckReport:
    """The report on a block whose statement cannot be built or names a
    point out of scope."""
    return CheckReport(name, "failed", error=f"bad statement: {error}")


def check_proof(
    statement: TheoremStatement, proof: Proof, registry: Optional[Registry] = None,
    strict: bool = False,
) -> CheckReport:
    """Check one proof against its statement.

    Status is ok iff every step is justified, every trichotomy branch
    closes, and the qed citations establish every conclusion.
    """
    try:
        state = initial_state(statement, registry, strict)
    except (ValueError, KernelError) as exc:
        return bad_statement(statement.name, exc)
    error = None
    try:
        _run_steps(state, proof.steps)
        _check_covered(state, proof.qed_refs, statement.conclusions, "qed")
    except _ProofFailed as failure:
        where, _, detail, line = failure.args[0]
        error = f"{where} (line {line}): {detail}"
    except KernelError as exc:  # at qed
        error = f"qed (line {proof.line}): {exc}"
    return CheckReport(
        statement.name, "failed" if error is not None else "ok", state.results,
        tuple(state.rule_uses), tuple(dict.fromkeys(state.lemma_uses)), state.side_conditions,
        error,
    )
