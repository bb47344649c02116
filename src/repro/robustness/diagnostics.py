"""Quarantine reports for fault-isolated corpus loading and mining.

Mining treats a noisy corpus as the normal case (SWIM, API-KG): one
malformed client file or one pathological downcast must not sink the
pipeline. Instead of raising, lenient loaders and the extractor record
what they skipped — file, phase, error — into these reports so the
caller can audit exactly what was left out of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

#: Corpus-loading phases, in pipeline order.
PHASE_READ = "read"
PHASE_PARSE = "parse"
PHASE_RESOLVE = "resolve"
PHASE_CHECK = "check"
LOAD_PHASES = (PHASE_READ, PHASE_PARSE, PHASE_RESOLVE, PHASE_CHECK)


@dataclass(frozen=True)
class CorpusFault:
    """One quarantined corpus file: where it failed and why."""

    source: str  #: file path / source name
    phase: str  #: one of :data:`LOAD_PHASES`
    error: str

    def __str__(self) -> str:
        return f"{self.source} [{self.phase}]: {self.error}"


@dataclass
class CorpusDiagnostics:
    """Everything a lenient corpus load quarantined, plus what survived."""

    faults: List[CorpusFault] = field(default_factory=list)
    #: Source names that loaded cleanly and made it into the program.
    loaded: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.faults

    @property
    def fault_count(self) -> int:
        return len(self.faults)

    def record(self, source: str, phase: str, error: object) -> CorpusFault:
        fault = CorpusFault(source=source, phase=phase, error=str(error))
        self.faults.append(fault)
        return fault

    def quarantined_sources(self) -> List[str]:
        """Unique quarantined source names, first-fault order."""
        seen = set()
        out = []
        for fault in self.faults:
            if fault.source not in seen:
                seen.add(fault.source)
                out.append(fault.source)
        return out

    def faults_for(self, source: str) -> List[CorpusFault]:
        return [f for f in self.faults if f.source == source]

    def extend(self, other: "CorpusDiagnostics") -> None:
        self.faults.extend(other.faults)
        self.loaded.extend(other.loaded)

    def summary(self) -> str:
        if self.ok:
            return f"corpus ok: {len(self.loaded)} file(s) loaded"
        lines = [
            f"corpus degraded: {len(self.loaded)} file(s) loaded,"
            f" {len(self.quarantined_sources())} quarantined"
        ]
        lines.extend(f"  {fault}" for fault in self.faults)
        return "\n".join(lines)


@dataclass(frozen=True)
class ExtractionFault:
    """One downcast whose backward slice blew up and was skipped."""

    source: str
    method: str
    position: str
    error: str

    def __str__(self) -> str:
        return f"{self.source} {self.method}() @{self.position}: {self.error}"
