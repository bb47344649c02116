"""The ranking heuristic (Section 3.2).

Jungloids are ordered by:

1. **cost** — length (widening-free) plus 2 per reference-typed free
   variable (the paper's empirically tuned estimate);
2. **package boundary crossings** — jungloids that wander across many
   packages (the Lucene ``HTMLParser`` detour) are less likely intended
   than ones that stay near the endpoint packages;
3. **generality of the true output type** — a jungloid whose final
   non-widening step returns ``XMLEditor`` ranks below one returning the
   requested ``IEditorPart`` itself: if the user wanted the subclass they
   would have asked for it;
4. a deterministic textual tie-break so results are stable run to run.

When the static viability analysis is available (see
:mod:`repro.analysis`), ranking can wrap the paper's key in a
:class:`ViabilityRankKey` whose *leading* component demotes jungloids
with an ``INVIABLE``-verdict downcast below everything else; among
non-demoted jungloids the paper's order is untouched, so Table-1 answers
are byte-identical whenever verdicts don't differ.

Cost and crossings are sums over steps, and generality is read off the
last non-widening step, so each step's three parts depend only on the
step and the registry. :class:`StepRankParts` memoizes them by step for
the engine, which ranks thousands of paths over the same few edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..jungloids import CostModel, DEFAULT_COST_MODEL, ElementaryJungloid, Jungloid
from ..typesystem import JavaType, TypeRegistry, VOID, generality_key, package_distance, type_package


def true_output_type(jungloid: Jungloid) -> JavaType:
    """Declared type produced by the last non-widening step.

    Trailing widening steps only exist to reach the requested node; the
    generality tie-break looks through them.
    """
    for step in reversed(jungloid.steps):
        if not step.is_widening:
            return step.output_type
    return jungloid.output_type


def step_crossings(step: ElementaryJungloid) -> int:
    """Package-tree distance walked by one step.

    A non-widening step is charged the distance from the current object's
    package to the member's declaring package (finding the member is a
    navigation step for the programmer too) and from there to the output
    type's package. Casts charge input→output directly. ``void`` inputs
    charge nothing on the input side; widening charges nothing.
    """
    if step.is_widening:
        return 0
    in_pkg = type_package(step.input_type) if step.input_type != VOID else None
    out_pkg = type_package(step.output_type)
    owner = getattr(step.member, "owner", None)
    total = 0
    if owner is not None:
        owner_pkg = type_package(owner)
        if in_pkg is not None:
            total += package_distance(in_pkg, owner_pkg)
        total += package_distance(owner_pkg, out_pkg)
    elif in_pkg is not None:
        total += package_distance(in_pkg, out_pkg)
    return total


def package_crossings(jungloid: Jungloid) -> int:
    """Total package-tree distance walked by the jungloid."""
    return sum(step_crossings(step) for step in jungloid.steps)


#: One step's ``(cost, crossings, generality of its output type)``;
#: generality is ``None`` for widening steps, which never decide it.
StepParts = Tuple[int, int, Optional[int]]


def step_rank_parts(
    registry: TypeRegistry, step: ElementaryJungloid, cost_model: CostModel
) -> StepParts:
    """The rank-key parts one step contributes."""
    generality = None if step.is_widening else generality_key(registry, step.output_type)
    return cost_model.step_total(step), step_crossings(step), generality


class StepRankParts:
    """:func:`step_rank_parts`, memoized by step identity.

    The step is kept with its entry, so a live entry's id is never
    reused. Callers clear it when the graph changes, which may drop
    steps or come with a different registry hierarchy.
    """

    def __init__(self, registry: TypeRegistry, cost_model: CostModel = DEFAULT_COST_MODEL):
        self.registry = registry
        self.cost_model = cost_model
        self._memo: Dict[int, Tuple[ElementaryJungloid, StepParts]] = {}

    def __call__(self, step: ElementaryJungloid) -> StepParts:
        entry = self._memo.get(id(step))
        if entry is not None and entry[0] is step:
            return entry[1]
        parts = step_rank_parts(self.registry, step, self.cost_model)
        self._memo[id(step)] = (step, parts)
        return parts

    def clear(self) -> None:
        self._memo.clear()


@dataclass(frozen=True, order=True)
class RankKey:
    """Sort key: smaller ranks first."""

    cost: int
    crossings: int
    generality: int
    text: str


def rank_key(
    registry: TypeRegistry,
    jungloid: Jungloid,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    text: Optional[str] = None,
    parts: Optional[Callable[[ElementaryJungloid], StepParts]] = None,
) -> RankKey:
    """The paper's key for ``jungloid``.

    ``text`` is its rendering when the caller already has it; ``parts``
    is a per-step parts function such as a :class:`StepRankParts` (by
    default each step's parts are computed afresh). Either way the key
    equals the one computed from the jungloid alone.
    """
    if parts is None:
        parts = partial(step_rank_parts, registry, cost_model=cost_model)
    cost = crossings = 0
    generality: Optional[int] = None
    for step in jungloid.steps:
        step_cost, step_x, step_g = parts(step)
        cost += step_cost
        crossings += step_x
        if step_g is not None:
            generality = step_g
    if generality is None:  # all widening: the output type itself
        generality = generality_key(registry, true_output_type(jungloid))
    return RankKey(
        cost=cost,
        crossings=crossings,
        generality=generality,
        text=jungloid.render_expression("x") if text is None else text,
    )


@dataclass(frozen=True, order=True)
class ViabilityRankKey:
    """The paper's key behind a leading analysis-demotion bucket.

    ``demotion`` is 0 for ``JUSTIFIED``/``PLAUSIBLE`` jungloids and 1
    when any downcast step carries an ``INVIABLE`` verdict, so demoted
    jungloids sort after every non-demoted one regardless of cost.
    """

    demotion: int
    base: RankKey


def viability_rank_key(
    registry: TypeRegistry,
    jungloid: Jungloid,
    verdicts,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    text: Optional[str] = None,
    parts: Optional[Callable[[ElementaryJungloid], StepParts]] = None,
) -> ViabilityRankKey:
    """Rank key demoting statically inviable jungloids.

    ``verdicts`` is a :class:`~repro.analysis.verdicts.CastVerdictIndex`
    (or ``None``, in which case nothing is demoted). ``text`` and
    ``parts`` are passed to :func:`rank_key`.
    """
    demotion = verdicts.demotion_rank(jungloid) if verdicts is not None else 0
    return ViabilityRankKey(
        demotion=demotion,
        base=rank_key(registry, jungloid, cost_model, text=text, parts=parts),
    )


def rank(
    registry: TypeRegistry,
    jungloids: Sequence[Jungloid],
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> List[Jungloid]:
    """Return ``jungloids`` sorted best-first by the paper's heuristic."""
    return sorted(jungloids, key=lambda j: rank_key(registry, j, cost_model))
