"""Interprocedural cast-safety analysis over the MiniJava corpus.

For every downcast expression in the corpus, an abstract interpretation
of its backward slice (:mod:`repro.mining.slicer`, the same slice mining
walks) computes which values can reach the cast operand in the abstract
domain::

    value = (definites: set of concrete types proved by allocation sites,
             unknown:   True when some flow passes through an opaque
                        source — an API call, a field, ``this``, an
                        unbound parameter, or a widened approximation)

Where mining builds one chain per path, :class:`CastAnalyzer` joins the
values of every flow, so it has no example cap. It keeps ``this``,
fields and API calls opaque rather than following a bound receiver the
way mining does: a verdict needs only a sound over-approximation.

Each downcast yields one :class:`CastObservation` recording whether any
witnessed flow is *compatible* with the cast target. Observations are
grouped by ``(operand type, target type)`` pair and classified into the
:class:`~repro.analysis.verdicts.CastVerdict` lattice:

* some flow allocates a subtype of the target → ``JUSTIFIED``
  (allocation-proved);
* some flow reaches an opaque source → ``JUSTIFIED`` (corpus-witnessed:
  working corpus code performing this cast is the paper's evidence that
  such values arrive);
* every flow is fully definite and none satisfies the cast →
  ``INVIABLE``;
* the pair is type-implausible to begin with → ``INVIABLE``.

Null literals contribute *unknown*, not a definite: a null reaching a
cast yields a ``NULL`` outcome at runtime, never ``CLASS_CAST``, so a
null-only flow must not prove a cast inviable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..minijava.ast import (
    CallExpr,
    CastExpr,
    CompilationUnit,
    Expr,
    FieldAccessExpr,
    MethodDecl,
    NewExpr,
    NullLit,
    Position,
    ThisExpr,
    VarRef,
)
from ..mining.slicer import BackwardSlicer, Flow, SliceFrame
from ..typesystem import NamedType, TypeRegistry
from .verdicts import (
    CastFinding,
    CastVerdict,
    CastVerdictIndex,
    PairKey,
    cast_plausible,
)

#: Definite-type sets wider than this widen to *unknown*.
MAX_DEFINITES = 16


@dataclass(frozen=True)
class AbstractValue:
    """One point of the abstract domain (see module docstring)."""

    definites: FrozenSet[NamedType]
    unknown: bool

    @property
    def feasible(self) -> bool:
        """Whether any value at all can flow here."""
        return self.unknown or bool(self.definites)


#: Nothing flows here (an inner cast filtered every definite away).
BOTTOM = AbstractValue(frozenset(), False)
#: An opaque source: any value of the static type may arrive.
UNKNOWN = AbstractValue(frozenset(), True)


def _join(values: Sequence[AbstractValue]) -> AbstractValue:
    definites: Set[NamedType] = set()
    unknown = False
    for v in values:
        definites.update(v.definites)
        unknown = unknown or v.unknown
    return AbstractValue(frozenset(definites), unknown)


@dataclass(frozen=True)
class CastObservation:
    """One corpus downcast with its abstract operand value, classified.

    ``witness_compatible`` / ``allocation_proved`` / ``plausible`` are
    precomputed here, while the registry is in hand, so grouping and
    serialization downstream never need to re-resolve types.
    """

    source: str
    method_name: str
    position: Position
    operand: str
    target: str
    #: Some witnessed flow can satisfy the cast (opaque or compatible
    #: allocation) — the JUSTIFIED criterion.
    witness_compatible: bool
    #: A flow allocates a concrete subtype of the target (strong form).
    allocation_proved: bool
    #: The pair passes the type checker's cast-plausibility rule.
    plausible: bool
    #: Concrete types proved to reach the operand (textual, sorted).
    definite_types: Tuple[str, ...]
    #: Some flow passed through an opaque source.
    unknown_flow: bool

    @property
    def pair(self) -> PairKey:
        return (self.operand, self.target)


class CastAnalyzer(BackwardSlicer):
    """Joins abstract values over the backward slice of every downcast."""

    def analyze_all(self) -> List[CastObservation]:
        observations: List[CastObservation] = []
        for unit in self.units:
            observations.extend(self.analyze_unit(unit))
        return observations

    def analyze_unit(self, unit: CompilationUnit) -> List[CastObservation]:
        """One observation for every downcast in ``unit``.

        The unit of incremental re-analysis: the pipeline caches this
        per corpus file and replays only files whose content (or whose
        slicing dependencies) changed. Each cast is fault-isolated, like
        mining: one pathological slice cannot sink the pass.
        """
        return self.slice_sites(
            unit, self.is_downcast, lambda u, m, cast: (self._observe(u, m, cast),)
        )

    def _observe(
        self, unit: CompilationUnit, method: MethodDecl, cast: CastExpr
    ) -> CastObservation:
        target = cast.resolved_type
        operand_type = cast.operand_type
        assert target is not None and operand_type is not None
        value = self._eval(cast.operand, SliceFrame(method), set(), frozenset())
        allocation_proved = any(
            self.registry.is_subtype(d, target) for d in value.definites
        )
        return CastObservation(
            source=unit.source,
            method_name=method.name,
            position=cast.position,
            operand=str(operand_type),
            target=str(target),
            witness_compatible=value.unknown or allocation_proved,
            allocation_proved=allocation_proved,
            plausible=cast_plausible(self.registry, operand_type, target),
            definite_types=tuple(sorted(str(d) for d in value.definites)),
            unknown_flow=value.unknown,
        )

    # ------------------------------------------------------------------
    # The abstract interpreter
    # ------------------------------------------------------------------

    def _eval(
        self,
        expr: Expr,
        frame: SliceFrame,
        visiting: Set[Tuple[int, int]],
        inline_stack: frozenset,
    ) -> AbstractValue:
        key = (id(expr), id(frame))
        if key in visiting:
            # A data-flow cycle: approximate the fixpoint with unknown.
            return UNKNOWN
        visiting = visiting | {key}

        if isinstance(expr, NullLit):
            # Null never raises CLASS_CAST; it must not prove inviability.
            return UNKNOWN
        if isinstance(expr, NewExpr):
            ctor = expr.resolved_constructor
            if ctor is None or not isinstance(ctor.owner, NamedType):
                return UNKNOWN
            return AbstractValue(frozenset({ctor.owner}), False)
        if isinstance(expr, CastExpr):
            inner = self._eval(expr.operand, frame, visiting, inline_stack)
            target = expr.resolved_type
            if target is None:
                return UNKNOWN
            # Unknown survives the cast (the runtime check passed, so the
            # value *is* a subtype of target — still opaque to us).
            return AbstractValue(
                frozenset(d for d in inner.definites if self.registry.is_subtype(d, target)),
                inner.unknown,
            )
        if isinstance(expr, CallExpr):
            if expr.resolved_method is None:
                return UNKNOWN
            # API calls (no flows) are opaque sources.
            return self._join_flows(self.inline(expr, frame, inline_stack), visiting)
        if isinstance(expr, (FieldAccessExpr, ThisExpr)):
            return UNKNOWN
        if isinstance(expr, VarRef):
            if expr.resolved_kind == "field":
                return UNKNOWN
            if expr.resolved_kind == "param":
                binding = frame.binding(expr.name)
                if binding is not None:
                    return self._eval(binding[0], binding[1], visiting, inline_stack)
                flows = self.caller_arguments(expr, frame, inline_stack)
                return self._join_flows(flows, visiting)
            # Local variable: join every expression ever assigned to it.
            sources = self.local_sources(frame, expr.name)
            return self._join_flows([(s, frame, inline_stack) for s in sources], visiting)
        # Literals and operators: the static type is exact for value
        # types but casts on them are not reference downcasts anyway;
        # treat as opaque.
        t = expr.resolved_type
        if isinstance(t, NamedType):
            return AbstractValue(frozenset({t}), False)
        return UNKNOWN

    def _join_flows(self, flows: Optional[List[Flow]], visiting) -> AbstractValue:
        """Join of every flow's value; no flows at all is an opaque source."""
        if not flows:
            return UNKNOWN
        value = _join([self._eval(e, f, visiting, stack) for e, f, stack in flows])
        if len(value.definites) > MAX_DEFINITES:
            return UNKNOWN
        return value


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------


def classify_pair(observations: Sequence[CastObservation]) -> CastFinding:
    """Compose one pair's observations into a :class:`CastFinding`."""
    assert observations, "classify_pair requires at least one observation"
    head = observations[0]
    definite_types = tuple(
        sorted({t for obs in observations for t in obs.definite_types})
    )
    witnesses = len(observations)
    if not head.plausible:
        verdict, evidence = (
            CastVerdict.INVIABLE,
            "cast between unrelated types (witnessed, but type-implausible)",
        )
    elif any(obs.allocation_proved for obs in observations):
        verdict, evidence = (
            CastVerdict.JUSTIFIED,
            "allocation site proves a compatible concrete type reaches the cast",
        )
    elif any(obs.witness_compatible for obs in observations):
        verdict, evidence = (
            CastVerdict.JUSTIFIED,
            "corpus-witnessed: working corpus code casts values from opaque API flows",
        )
    else:
        verdict, evidence = (
            CastVerdict.INVIABLE,
            "every witnessed flow is definite and incompatible with the target",
        )
    return CastFinding(
        operand=head.operand,
        target=head.target,
        verdict=verdict,
        witnesses=witnesses,
        evidence=evidence,
        definite_types=definite_types,
    )


def group_observations(
    observations: Sequence[CastObservation],
) -> Dict[PairKey, List[CastObservation]]:
    grouped: Dict[PairKey, List[CastObservation]] = {}
    for obs in observations:
        grouped.setdefault(obs.pair, []).append(obs)
    return grouped


def build_verdict_index(
    registry: TypeRegistry, observations: Sequence[CastObservation]
) -> CastVerdictIndex:
    """Classify grouped observations into the query-time verdict index."""
    findings: Dict[PairKey, CastFinding] = {
        pair: classify_pair(group)
        for pair, group in group_observations(observations).items()
    }
    return CastVerdictIndex(registry, findings)
