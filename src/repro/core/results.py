"""Synthesis results: ranked jungloids ready to render as Java code."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..analysis.verdicts import JungloidVerdict
from ..jungloids import FreeVariable, JavaSnippet, Jungloid, render_inline, render_statements
from ..typesystem import JavaType, VOID


@dataclass(frozen=True)
class Synthesis:
    """One ranked answer to a query."""

    rank: int  # 1-based, as the paper reports ranks
    jungloid: Jungloid
    source_type: JavaType
    #: Static viability verdict, when the engine has a verdict index
    #: (``None`` on instances built without the analysis).
    verdict: Optional[JungloidVerdict] = None

    @property
    def is_void_source(self) -> bool:
        return self.source_type == VOID

    @property
    def has_downcast(self) -> bool:
        return self.jungloid.has_downcast

    def free_variables(self) -> Sequence[FreeVariable]:
        return self.jungloid.free_variables()

    def inline(self, input_variable: Optional[str] = None) -> str:
        """One-line rendering for a completion pop-up."""
        return render_inline(self.jungloid, input_variable)

    def code(
        self,
        input_variable: Optional[str] = None,
        result_variable: Optional[str] = None,
    ) -> JavaSnippet:
        """Insertable Java statements (declarations for each step)."""
        return render_statements(self.jungloid, input_variable, result_variable)

    def __str__(self) -> str:
        return f"#{self.rank} {self.jungloid.describe()}"

