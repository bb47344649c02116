"""Example-jungloid extraction (Section 4.2, "Extracting Jungloids").

For every downcast in the corpus we follow each acyclic data-flow path of
its backward slice (:mod:`.slicer`) until it reaches a zero-argument
expression, collecting elementary jungloids along the way. Call sites are
interpreted both ways the paper describes:

* an **API** method call is an elementary jungloid (one path per
  reference-typed flow position);
* a **client** method call is inlined — the walk continues into the
  callee's return expressions, with parameters bound back to the
  call-site arguments;
* when the walk reaches a parameter of the *outermost* method, it jumps
  to every CHA call site of that method and continues into the matching
  argument (the interprocedural part of the slice).

Branching (multiple assignments, multiple flow positions, both call
interpretations) can explode, so extraction stops after a configurable
maximum number of examples per cast — exactly the mitigation the paper
uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from ..jungloids import (
    ElementaryJungloid,
    Jungloid,
    constructor_call,
    downcast,
    field_access,
    instance_call,
    static_call,
)
from ..jungloids.elementary import NO_INPUT, RECEIVER
from ..minijava.ast import (
    CallExpr,
    CastExpr,
    CompilationUnit,
    Expr,
    FieldAccessExpr,
    MethodDecl,
    NewExpr,
    Position,
    ThisExpr,
    VarRef,
)
from ..minijava.callgraph import CallGraph
from ..typesystem import JavaType, NamedType, TypeRegistry
from .dataflow import widening_chain
from .slicer import BackwardSlicer, ExtractionConfig, SliceFrame

#: A partial chain of elementary jungloids, forward order, possibly empty.
Chain = Tuple[ElementaryJungloid, ...]


@dataclass(frozen=True)
class ExampleJungloid:
    """One mined example: a jungloid ending in a downcast, with provenance."""

    jungloid: Jungloid
    source: str
    method_name: str
    cast_position: Position

    @property
    def final_cast(self) -> ElementaryJungloid:
        return self.jungloid.steps[-1]

    def __str__(self) -> str:
        return f"{self.jungloid.describe()}  [{self.source} {self.method_name}() @{self.cast_position}]"


class JungloidExtractor(BackwardSlicer):
    """Builds example jungloids along the backward slice of every downcast."""

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def extract_all(self) -> List[ExampleJungloid]:
        """Extract example jungloids from every downcast in the corpus.

        Each cast is processed in isolation: an error while slicing one
        downcast is recorded in :attr:`faults` and extraction moves on to
        the next cast (unless ``config.strict``), so one pathological
        cast cannot sink the whole mining run.
        """
        examples: List[ExampleJungloid] = []
        for unit in self.units:
            examples.extend(self.extract_unit(unit))
        return examples

    def extract_unit(self, unit: CompilationUnit) -> List[ExampleJungloid]:
        """Extract example jungloids whose final downcast sits in ``unit``.

        The unit of incremental re-mining: the pipeline caches this
        call's result per corpus-file fingerprint and replays only the
        units whose content (or whose slicing dependencies) changed.
        Slices may still cross into *other* units (client-call inlining
        and caller jumps), which is why the pipeline tracks those
        dependencies separately.
        """
        return self.slice_sites(unit, self.is_downcast, self.extract_from_cast)

    def extract_from_cast(
        self, unit: CompilationUnit, method: MethodDecl, cast: CastExpr
    ) -> List[ExampleJungloid]:
        """All (capped) example jungloids ending at one cast expression."""
        return [
            ExampleJungloid(
                jungloid=Jungloid(chain),
                source=unit.source,
                method_name=method.name,
                cast_position=cast.position,
            )
            for chain in self._chains(cast, method)
        ]

    def _chains(self, site: Expr, method: MethodDecl) -> Iterator[Chain]:
        """Distinct chains computing ``site``, capped per site."""
        seen: Set[Chain] = set()
        for chain in self._walk(site, SliceFrame(method), set(), frozenset()):
            if len(chain) < self.config.min_example_steps or chain in seen:
                continue
            seen.add(chain)
            yield chain
            if len(seen) >= self.config.max_examples_per_cast:
                return

    # ------------------------------------------------------------------
    # The backward walk
    # ------------------------------------------------------------------

    def _walk(
        self,
        expr: Expr,
        frame: SliceFrame,
        visiting: Set[Tuple[int, int]],
        inline_stack: frozenset,
    ) -> Iterator[Chain]:
        """Yield forward-order chains that compute ``expr``.

        The empty chain means "the path starts here": the expression is a
        terminal (literal, unbound parameter, ``this``, opaque operator).
        """
        key = (id(expr), id(frame))
        if key in visiting:
            return
        visiting = visiting | {key}

        if isinstance(expr, CastExpr):
            if expr.resolved_type is None or expr.operand_type is None:
                return
            step = downcast(expr.operand_type, expr.resolved_type)
            yield from self._extend(expr.operand, frame, step, visiting, inline_stack)
        elif isinstance(expr, CallExpr):
            yield from self._walk_call(expr, frame, visiting, inline_stack)
        elif isinstance(expr, NewExpr):
            if expr.resolved_constructor is None:
                return
            variants = constructor_call(expr.resolved_constructor)
            yield from self._walk_variants(expr, variants, frame, visiting, inline_stack)
        elif isinstance(expr, FieldAccessExpr):
            f = expr.resolved_field
            if f is None:
                return  # array .length etc.
            if f.static:
                yield (field_access(f),)
                return
            yield from self._extend(expr.receiver, frame, field_access(f), visiting, inline_stack)
        elif isinstance(expr, VarRef):
            yield from self._walk_var(expr, frame, visiting, inline_stack)
        elif isinstance(expr, ThisExpr):
            binding = frame.receiver_binding
            if binding is not None and binding[0] is not None:
                yield from self._walk(binding[0], binding[1], visiting, inline_stack)
            else:
                yield ()
        else:
            # Literals and opaque expressions terminate the path.
            yield ()

    def _extend(
        self, feed: Expr, frame: SliceFrame, step: ElementaryJungloid, visiting, inline_stack
    ) -> Iterator[Chain]:
        """Chains computing ``feed``, each extended by ``step``."""
        for chain in self._walk(feed, frame, visiting, inline_stack):
            extended = self._append(chain, feed, step)
            if extended is not None:
                yield extended

    def _walk_call(
        self, call: CallExpr, frame: SliceFrame, visiting, inline_stack
    ) -> Iterator[Chain]:
        method = call.resolved_method
        if method is None:
            return
        flows = self.inline(call, frame, inline_stack)
        if flows is not None:
            # Client methods are always inlined (they are not API members).
            for ret, callee, stack in flows:
                yield from self._walk(ret, callee, visiting, stack)
            return
        # API method: interpret as an elementary jungloid.
        variants = static_call(method) if method.static else instance_call(method)
        yield from self._walk_variants(call, variants, frame, visiting, inline_stack)

    def _walk_variants(
        self,
        site: Expr,
        variants: Sequence[ElementaryJungloid],
        frame: SliceFrame,
        visiting,
        inline_stack,
    ) -> Iterator[Chain]:
        """Chains through each variant of an API call or constructor ``site``."""
        for variant in variants:
            if variant.flow_position == NO_INPUT:
                yield (variant,)
                continue
            if variant.flow_position == RECEIVER:
                feed = site.receiver
                if feed is None:
                    feed = _implicit_this(site, frame)
                if feed is None:
                    continue
            elif variant.flow_position < len(site.args):
                feed = site.args[variant.flow_position]
            else:
                continue
            yield from self._extend(feed, frame, variant, visiting, inline_stack)

    def _walk_var(
        self, var: VarRef, frame: SliceFrame, visiting, inline_stack
    ) -> Iterator[Chain]:
        if var.resolved_kind == "field":
            f = var.resolved_field
            if f is None:
                return
            step = field_access(f)
            # A static field, or an implicit this.field read with no bound receiver.
            this = frame.receiver_binding
            if f.static or this is None or this[0] is None:
                yield (step,)
                return
            yield from self._extend(this[0], this[1], step, visiting, inline_stack)
            return
        if var.resolved_kind == "param":
            binding = frame.binding(var.name)
            if binding is not None:
                yield from self._walk(binding[0], binding[1], visiting, inline_stack)
                return
            # Top-frame parameter: continue into arguments at CHA call sites.
            produced = False
            for arg, caller, stack in self.caller_arguments(var, frame, inline_stack):
                for chain in self._walk(arg, caller, visiting, stack):
                    produced = True
                    yield chain
            if not produced:
                yield ()
            return
        # Local variable: every expression ever assigned to it.
        sources = self.local_sources(frame, var.name)
        if not sources:
            yield ()
            return
        for source in sources:
            yield from self._walk(source, frame, visiting, inline_stack)

    # ------------------------------------------------------------------
    # Chain plumbing
    # ------------------------------------------------------------------

    def _append(
        self, chain: Chain, feed_expr: Expr, step: ElementaryJungloid
    ) -> Optional[Chain]:
        """Extend ``chain`` with ``step``, inserting widening conversions.

        ``feed_expr`` is the expression the chain computes; its static type
        (or the chain's final output type) must widen to ``step``'s input.
        """
        if len(chain) >= self.config.max_steps:
            return None
        end_type: Optional[JavaType]
        end_type = chain[-1].output_type if chain else feed_expr.resolved_type
        if end_type is None:
            # A null literal fed the flow; no object actually travels.
            return None
        bridge = widening_chain(self.registry, end_type, step.input_type)
        if bridge is None:
            return None
        if len(chain) + len(bridge) + 1 > self.config.max_steps + 2:
            return None
        return chain + bridge + (step,)


def _implicit_this(call: CallExpr, frame: SliceFrame) -> Optional[Expr]:
    """Materialize the implicit ``this`` receiver of an unqualified call."""
    binding = frame.receiver_binding
    if binding is not None and binding[0] is not None:
        return binding[0]
    owner = frame.decl.owner_type
    if owner is None:
        return None
    synthetic = ThisExpr(position=call.position)
    synthetic.resolved_type = owner
    return synthetic


def extract_examples(
    registry: TypeRegistry,
    units: Sequence[CompilationUnit],
    corpus_types: Sequence[NamedType],
    config: ExtractionConfig = ExtractionConfig(),
    call_graph: Optional[CallGraph] = None,
) -> List[ExampleJungloid]:
    """Convenience wrapper: extract all example jungloids from a corpus."""
    extractor = JungloidExtractor(registry, units, corpus_types, call_graph, config)
    return extractor.extract_all()
