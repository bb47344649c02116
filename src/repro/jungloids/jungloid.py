"""Jungloids: well-typed compositions of elementary jungloids (Definition 3).

A jungloid is a chain ``e_1 . e_2 . ... . e_n`` where the output type of
each elementary jungloid equals the input type of the next. (Widening
conversions are explicit elementary jungloids, so exact type equality is
the right composition condition.) A *solution jungloid* for the query
``(t_in, t_out)`` is a jungloid with exactly those endpoint types
(Definition 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from ..typesystem import JavaType, VOID
from .elementary import ElementaryJungloid, ElementaryKind, FreeVariable


class CompositionError(ValueError):
    """The steps do not compose: adjacent input/output types differ."""


@dataclass(frozen=True)
class Jungloid:
    """An immutable, validated chain of elementary jungloids."""

    steps: Tuple[ElementaryJungloid, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise CompositionError("a jungloid must have at least one step")
        for a, b in zip(self.steps, self.steps[1:]):
            if a.output_type != b.input_type:
                raise CompositionError(
                    f"cannot compose {a.output_type} into {b.input_type}: "
                    f"{a.describe()} then {b.describe()}"
                )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def of(*steps: ElementaryJungloid) -> "Jungloid":
        return Jungloid(tuple(steps))

    @staticmethod
    def from_iterable(steps: Iterable[ElementaryJungloid]) -> "Jungloid":
        return Jungloid(tuple(steps))

    def compose(self, other: "Jungloid") -> "Jungloid":
        """``self . other``: feed this jungloid's output into ``other``."""
        return Jungloid(self.steps + other.steps)

    def then(self, step: ElementaryJungloid) -> "Jungloid":
        return Jungloid(self.steps + (step,))

    def prefix(self, n: int) -> "Jungloid":
        return Jungloid(self.steps[:n])

    def suffix(self, n: int) -> "Jungloid":
        """The last ``n`` steps (used by generalization, Section 4.2)."""
        if n < 1 or n > len(self.steps):
            raise ValueError(f"suffix length {n} out of range 1..{len(self.steps)}")
        return Jungloid(self.steps[-n:])

    def suffixes(self) -> Iterator["Jungloid"]:
        """All non-empty suffixes, shortest first."""
        for n in range(1, len(self.steps) + 1):
            yield self.suffix(n)

    # ------------------------------------------------------------------
    # Typing
    # ------------------------------------------------------------------

    @property
    def input_type(self) -> JavaType:
        return self.steps[0].input_type

    @property
    def output_type(self) -> JavaType:
        return self.steps[-1].output_type

    def solves(self, t_in: JavaType, t_out: JavaType) -> bool:
        """Is this a solution jungloid for the query ``(t_in, t_out)``?"""
        return self.input_type == t_in and self.output_type == t_out

    @property
    def is_void_input(self) -> bool:
        return self.input_type == VOID

    # ------------------------------------------------------------------
    # Shape queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[ElementaryJungloid]:
        return iter(self.steps)

    @property
    def length(self) -> int:
        """Ranking length: widening conversions are not counted (§3.2)."""
        return sum(1 for s in self.steps if not s.is_widening)

    @property
    def downcast_count(self) -> int:
        return sum(1 for s in self.steps if s.is_downcast)

    @property
    def has_downcast(self) -> bool:
        return self.downcast_count > 0

    @property
    def final_downcast(self) -> Optional[ElementaryJungloid]:
        if self.steps[-1].is_downcast:
            return self.steps[-1]
        return None

    def free_variables(self) -> Tuple[FreeVariable, ...]:
        """All free variables, renamed apart so names are unique."""
        result: List[FreeVariable] = []
        used = set()
        for step_index, step in enumerate(self.steps):
            for v in step.free_variables:
                name = v.name
                while name in used:
                    name = f"{v.name}_{step_index}"
                    step_index += 1
                used.add(name)
                result.append(FreeVariable(name, v.type))
        return tuple(result)

    def visited_types(self) -> Tuple[JavaType, ...]:
        """The chain of types: input, each intermediate, output."""
        types = [self.input_type]
        for s in self.steps:
            types.append(s.output_type)
        return tuple(types)

    def is_acyclic(self) -> bool:
        """No type repeats along the chain (the search only builds these)."""
        seen = self.visited_types()
        return len(set(seen)) == len(seen)

    def kind_signature(self) -> Tuple[ElementaryKind, ...]:
        return tuple(s.kind for s in self.steps)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render_expression(self, input_expr: str = "x") -> str:
        """Render as a single nested Java expression.

        A downcast that feeds a later step is parenthesized, since member
        access binds tighter than a cast in Java.
        """
        expr = input_expr
        last = len(self.steps) - 1
        for i, step in enumerate(self.steps):
            parts = step.render_parts
            expr = step.render(expr) if parts is None else parts[0] + expr + parts[1]
            if i < last and step.is_downcast:
                expr = f"({expr})"
        return expr

    def describe(self) -> str:
        return f"λx. {self.render_expression('x')} : {self.input_type} → {self.output_type}"

    def __str__(self) -> str:
        return self.describe()


def compose_all(jungloids: Iterable[Jungloid]) -> Jungloid:
    """Compose a sequence of jungloids left to right."""
    items = list(jungloids)
    if not items:
        raise CompositionError("cannot compose an empty sequence")
    acc = items[0]
    for j in items[1:]:
        acc = acc.compose(j)
    return acc
