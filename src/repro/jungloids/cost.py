"""The jungloid cost model used for ranking (Section 3.2).

The primary ranking key is *length*: the number of elementary jungloids,
not counting widening conversions (which have no syntax, add no code, and
cannot fail). Each free variable is not yet a complete solution — the user
must compute it, typically with a follow-up query — so the paper's
implementation charges an estimated **2** extra elementary jungloids per
free variable. We charge that estimate for *reference-typed* free
variables; primitive- and ``void``-typed free variables are literals the
user just types, so they are free (this reading is required to keep the
Table-1 idioms such as ``FileChannel.map(mode, pos, size)`` competitive,
and is recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from .jungloid import Jungloid

#: Paper's estimated cost (in elementary jungloids) to fill one free variable.
FREE_VARIABLE_COST = 2


@dataclass(frozen=True)
class CostModel:
    """Tunable cost model; the defaults reproduce the paper's heuristic."""

    step_cost: int = 1
    widening_cost: int = 0
    free_variable_cost: int = FREE_VARIABLE_COST
    charge_primitive_free_variables: bool = False

    def step_total(self, step) -> int:
        """Estimated size contribution of one elementary jungloid.

        This weight drives both ranking and the search window: the
        ``m+1`` bound of Section 5 is applied to this estimate, so a
        short-but-free-variable-laden path does not artificially shrink
        the window below the honest solutions.
        """
        return self.total(*step.cost_counts)

    def total(self, is_widening: bool, n_free: int, n_reference_free: int) -> int:
        """The weight of a step with these :attr:`cost_counts`; graph
        edges are charged through it too, without building their step."""
        if is_widening:
            return self.widening_cost
        n = n_free if self.charge_primitive_free_variables else n_reference_free
        return self.step_cost + n * self.free_variable_cost

    def cost(self, jungloid: Jungloid) -> int:
        """Total estimated size of the completed code snippet."""
        return sum(self.step_total(step) for step in jungloid.steps)


#: The default model used by PROSPECTOR's ranking.
DEFAULT_COST_MODEL = CostModel()


def jungloid_cost(jungloid: Jungloid, model: CostModel = DEFAULT_COST_MODEL) -> int:
    """Convenience wrapper around :meth:`CostModel.cost`."""
    return model.cost(jungloid)
