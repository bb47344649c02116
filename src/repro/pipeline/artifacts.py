"""Per-file stage artifacts of the incremental mining pipeline.

A :class:`FileMineRecord` is everything the extraction stage produced
for one corpus file — its mined examples, its isolated per-cast faults,
and the **dependency fingerprints** that tell a later update whether the
cached examples are still valid:

* ``decl_deps`` — for every client method whose body the slice inlined,
  the file that declared it (and that file's content fingerprint);
* ``site_deps`` — for every method whose CHA call sites the slice jumped
  into, the fingerprinted set of files containing those call sites (so
  a *new* caller appearing in an untouched file still invalidates);
* ``type_deps`` — for every corpus type the unit references (closed over
  corpus supertypes), its declaring file's fingerprint (subtype tests
  and widening chains read the hierarchy those files define).

Records serialize to plain JSON dicts so the snapshot store can persist
the whole stage as its stage file; examples round-trip through the member
serializers in :mod:`repro.graph.serialize`, which means deserialization
needs the corpus-augmented registry (mined steps may reference client
types) — the pipeline re-resolves its cached texts first and only then
rehydrates records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graph import jungloid_from_dict, jungloid_to_dict
from ..minijava.ast import Position
from ..mining import ExampleJungloid
from ..robustness import ExtractionFault
from ..typesystem import TypeRegistry

#: ``(source, content_fingerprint)`` of a dependency, or ``None`` when the
#: dependency resolved to nothing (e.g. a method with no corpus body).
DepFingerprint = Optional[Tuple[str, str]]


@dataclass
class FileMineRecord:
    """Cached extraction output for one corpus file."""

    source: str
    fingerprint: str
    examples: List[ExampleJungloid] = field(default_factory=list)
    faults: List[ExtractionFault] = field(default_factory=list)
    #: method key → declaring file fingerprint (client-body inlining).
    decl_deps: Dict[str, DepFingerprint] = field(default_factory=dict)
    #: method key → sorted caller-file fingerprints (CHA caller jumps).
    site_deps: Dict[str, Tuple[Tuple[str, str], ...]] = field(default_factory=dict)
    #: corpus type name → declaring file fingerprint (hierarchy reads).
    type_deps: Dict[str, DepFingerprint] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "fingerprint": self.fingerprint,
            "examples": [
                {
                    "steps": jungloid_to_dict(e.jungloid),
                    "source": e.source,
                    "method_name": e.method_name,
                    "cast_position": [e.cast_position.line, e.cast_position.column],
                }
                for e in self.examples
            ],
            "faults": [
                {
                    "source": f.source,
                    "method": f.method,
                    "position": f.position,
                    "error": f.error,
                }
                for f in self.faults
            ],
            "decl_deps": {k: list(v) if v else None for k, v in self.decl_deps.items()},
            "site_deps": {k: [list(p) for p in v] for k, v in self.site_deps.items()},
            "type_deps": {k: list(v) if v else None for k, v in self.type_deps.items()},
        }

    @classmethod
    def from_dict(cls, registry: TypeRegistry, data: dict) -> "FileMineRecord":
        """Rehydrate a record; ``registry`` must contain API + corpus types."""
        examples = [
            ExampleJungloid(
                jungloid=jungloid_from_dict(registry, e["steps"]),
                source=e["source"],
                method_name=e["method_name"],
                cast_position=Position(*e["cast_position"]),
            )
            for e in data["examples"]
        ]
        if any(e.source != data["source"] for e in examples):
            # Every example of a file comes from that file.
            raise StageFormatError(f"record {data['source']!r} holds another file's examples")
        faults = [ExtractionFault(**f) for f in data["faults"]]
        return cls(
            source=data["source"],
            fingerprint=data["fingerprint"],
            examples=examples,
            faults=faults,
            decl_deps={
                k: tuple(v) if v else None for k, v in data["decl_deps"].items()
            },
            site_deps={
                k: tuple(tuple(p) for p in v)
                for k, v in data["site_deps"].items()
            },
            type_deps={
                k: tuple(v) if v else None for k, v in data["type_deps"].items()
            },
        )


#: Format tag guarding persisted stage artifacts against schema drift.
STAGE_FORMAT = "prospector-stages-v1"


def stages_to_dict(
    texts: List[Tuple[str, str]],
    records: Dict[str, FileMineRecord],
    extraction_config: dict,
    min_precast_steps: int,
    lenient: bool,
    check: bool,
) -> dict:
    """The persistable form of the pipeline's staged state."""
    return {
        "format": STAGE_FORMAT,
        "texts": [[source, text] for source, text in texts],
        "records": [records[s].to_dict() for s in sorted(records)],
        "extraction_config": dict(extraction_config),
        "min_precast_steps": int(min_precast_steps),
        "lenient": bool(lenient),
        "check": bool(check),
    }


class StageFormatError(ValueError):
    """Persisted stage artifacts are malformed or from another schema."""


def check_stage_dict(data: object) -> dict:
    """Validate the outer shape of a persisted stage payload."""
    if not isinstance(data, dict):
        raise StageFormatError(
            f"stage payload must be a JSON object, got {type(data).__name__}"
        )
    if data.get("format") != STAGE_FORMAT:
        raise StageFormatError(f"unknown stage format: {data.get('format')!r}")
    for key in ("texts", "records", "extraction_config", "min_precast_steps"):
        if key not in data:
            raise StageFormatError(f"stage payload missing key {key!r}")
    return data
