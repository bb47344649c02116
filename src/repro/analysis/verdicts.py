"""Cast-safety verdicts and the per-pair verdict index.

The static viability analysis classifies every downcast pair ``S → U``
the jungloid graph can traverse:

* ``JUSTIFIED`` — the corpus *witnesses* the cast and its data-flow is
  compatible: either an allocation site proves a concrete type that is a
  subtype of the target, or the witnessing flow passes through an opaque
  API source (working corpus code performing the cast is the paper's own
  §4.2 evidence that such values do reach it);
* ``PLAUSIBLE`` — the types are related (subtype either way, or an
  interface is involved) but no corpus cast witnesses the pair;
* ``INVIABLE`` — no corpus path can produce the target type: the types
  are unrelated classes, or every witnessed flow is fully definite and
  none of the proven concrete types satisfies the cast.

A jungloid's verdict composes over its downcast steps (worst wins); a
jungloid with no downcast is vacuously ``JUSTIFIED``. The index is the
query-time surface: built once at graft time, persisted in snapshots,
and consulted by ranking and :meth:`Prospector.verify` with zero runtime
execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..graph import node_base_type
from ..jungloids import Jungloid
from ..typesystem import JavaType, NamedType, TypeKind, TypeRegistry, is_reference


class CastVerdict(Enum):
    """Static viability of one downcast pair (best to worst)."""

    JUSTIFIED = "justified"
    PLAUSIBLE = "plausible"
    INVIABLE = "inviable"

    @property
    def severity(self) -> int:
        """Composition order: larger is worse."""
        return _SEVERITY[self]

    @classmethod
    def worst(cls, verdicts: Iterable["CastVerdict"]) -> "CastVerdict":
        """The composed verdict of several casts; vacuously JUSTIFIED."""
        out = cls.JUSTIFIED
        for v in verdicts:
            if v.severity > out.severity:
                out = v
        return out


_SEVERITY = {
    CastVerdict.JUSTIFIED: 0,
    CastVerdict.PLAUSIBLE: 1,
    CastVerdict.INVIABLE: 2,
}

#: Ranking demotion: JUSTIFIED and PLAUSIBLE compete on the paper's
#: heuristic unchanged; only INVIABLE jungloids are pushed down.
_DEMOTION = {
    CastVerdict.JUSTIFIED: 0,
    CastVerdict.PLAUSIBLE: 0,
    CastVerdict.INVIABLE: 1,
}


def demotion_of(verdict: CastVerdict) -> int:
    """The ranking demotion bucket of a verdict (0 keeps paper order)."""
    return _DEMOTION[verdict]


def cast_plausible(registry: TypeRegistry, operand: JavaType, target: JavaType) -> bool:
    """Type-level plausibility, mirroring the corpus type checker.

    A reference cast is plausible when the types are equal, related by
    subtyping in either direction, or either side is an interface (the
    runtime class may implement it even if the static types are
    unrelated) — exactly Java's compile-time rule.
    """
    if not (is_reference(operand) and is_reference(target)):
        return False
    if operand == target:
        return True
    if registry.is_subtype(operand, target) or registry.is_subtype(target, operand):
        return True
    for t in (operand, target):
        if isinstance(t, NamedType):
            try:
                if registry.declaration_of(t).kind is TypeKind.INTERFACE:
                    return True
            except Exception:
                pass
    return False


#: Index key of a downcast pair: textual operand and target types.
PairKey = Tuple[str, str]


def pair_key(operand, target) -> PairKey:
    """Key a cast by its node base types (typestate nodes look through)."""
    return (str(node_base_type(operand)), str(node_base_type(target)))


@dataclass(frozen=True)
class CastFinding:
    """The classified evidence for one downcast pair."""

    operand: str
    target: str
    verdict: CastVerdict
    #: Corpus cast expressions witnessing this pair (0 = synthesized).
    witnesses: int
    #: One-line justification, surfaced by ``query --verify`` and lint.
    evidence: str
    #: Concrete types the abstract interpretation proved can flow in.
    definite_types: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "operand": self.operand,
            "target": self.target,
            "verdict": self.verdict.value,
            "witnesses": self.witnesses,
            "evidence": self.evidence,
            "definite_types": list(self.definite_types),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CastFinding":
        return cls(
            operand=str(data["operand"]),
            target=str(data["target"]),
            verdict=CastVerdict(str(data["verdict"])),
            witnesses=int(data["witnesses"]),
            evidence=str(data.get("evidence", "")),
            definite_types=tuple(str(t) for t in data.get("definite_types", ())),
        )

    def __str__(self) -> str:
        return f"({self.target}) {self.operand}: {self.verdict.value} [{self.evidence}]"


@dataclass(frozen=True)
class JungloidVerdict:
    """Verdict for a whole jungloid: the worst of its downcast steps."""

    verdict: CastVerdict
    findings: Tuple[CastFinding, ...] = ()

    @property
    def downcast_count(self) -> int:
        return len(self.findings)

    def __str__(self) -> str:
        if not self.findings:
            return f"{self.verdict.value} (no downcasts)"
        return f"{self.verdict.value} over {len(self.findings)} downcast(s)"


class CastVerdictIndex:
    """Pair-keyed verdicts with a relatedness fallback for unseen pairs.

    Corpus-witnessed pairs carry their classified
    :class:`CastFinding`; a pair never witnessed (for instance a raw
    downcast edge of the Figure-3 ablation graph) synthesizes one from
    type structure alone: related → ``PLAUSIBLE``, unrelated →
    ``INVIABLE``. Synthesized findings are cached, so repeated ranking
    lookups stay O(1).
    """

    def __init__(
        self,
        registry: TypeRegistry,
        findings: Optional[Mapping[PairKey, CastFinding]] = None,
        groups: Optional[Mapping[PairKey, Sequence[object]]] = None,
    ):
        self.registry = registry
        self._findings: Dict[PairKey, CastFinding] = dict(findings or {})
        self._synthesized: Dict[PairKey, CastFinding] = {}
        #: The observations each finding was classified from, when the
        #: index was built from them (not loaded from a snapshot).
        self.groups: Mapping[PairKey, Sequence[object]] = groups or {}

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._findings)

    @property
    def witnessed_pairs(self) -> Tuple[PairKey, ...]:
        return tuple(self._findings)

    def witnesses_for(self, operand, target) -> int:
        """Corpus witness count for a pair (0 when never observed)."""
        finding = self._findings.get(pair_key(operand, target))
        return finding.witnesses if finding is not None else 0

    def verdict_for_cast(self, operand, target) -> CastFinding:
        """The finding for one downcast edge; synthesizes on a miss.

        ``operand``/``target`` may be types or typestate nodes — keys
        are by base type, matching how mined paths are grafted.
        """
        key = pair_key(operand, target)
        finding = self._findings.get(key)
        if finding is not None:
            return finding
        cached = self._synthesized.get(key)
        if cached is not None:
            return cached
        operand_type = node_base_type(operand)
        target_type = node_base_type(target)
        if cast_plausible(self.registry, operand_type, target_type):
            finding = CastFinding(
                operand=key[0],
                target=key[1],
                verdict=CastVerdict.PLAUSIBLE,
                witnesses=0,
                evidence="types related, but no corpus cast witnesses this pair",
            )
        else:
            finding = CastFinding(
                operand=key[0],
                target=key[1],
                verdict=CastVerdict.INVIABLE,
                witnesses=0,
                evidence="no corpus path can produce the target: unrelated types",
            )
        self._synthesized[key] = finding
        return finding

    def verdict_for_jungloid(self, jungloid: Jungloid) -> JungloidVerdict:
        """Compose the per-cast findings over a jungloid's downcasts."""
        findings = tuple(
            self.verdict_for_cast(step.input_type, step.output_type)
            for step in jungloid.steps
            if step.is_downcast
        )
        return JungloidVerdict(
            verdict=CastVerdict.worst(f.verdict for f in findings),
            findings=findings,
        )

    def demotion_rank(self, jungloid: Jungloid) -> int:
        """Ranking bucket: 0 unless some downcast step is INVIABLE."""
        rank = 0
        for step in jungloid.steps:
            if not step.is_downcast:
                continue
            finding = self.verdict_for_cast(step.input_type, step.output_type)
            rank = max(rank, demotion_of(finding.verdict))
        return rank

    # ------------------------------------------------------------------
    # Persistence (a snapshot carries this dict in its header)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "pairs": [
                self._findings[key].to_dict() for key in sorted(self._findings)
            ]
        }

    @classmethod
    def from_dict(cls, registry: TypeRegistry, data: dict) -> "CastVerdictIndex":
        findings: Dict[PairKey, CastFinding] = {}
        for entry in data.get("pairs", ()):
            finding = CastFinding.from_dict(entry)
            findings[(finding.operand, finding.target)] = finding
        return cls(registry, findings)
