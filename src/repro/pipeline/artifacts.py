"""Per-file stage artifacts of the incremental mining pipeline, and the
stage file's form.

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

Records live only in memory. A file's examples depend on nothing but
the corpus texts (paper §4: slice each cast, then generalize), so the
stage file persists the pipeline's *inputs* — the texts and the load
discipline — and a restart mines them again, as it analyzes them again.
Nothing derived is read back, so no stored result can disagree with
what this build's extractor would mine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..mining import ExampleJungloid
from ..robustness import ExtractionFault

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


#: Format tag guarding persisted stage artifacts against schema drift.
STAGE_FORMAT = "prospector-stages-v1"


def stages_to_dict(texts: List[Tuple[str, str]], lenient: bool, check: bool) -> dict:
    """The persistable form of the pipeline's inputs."""
    return {
        "format": STAGE_FORMAT,
        "texts": [[source, text] for source, text in texts],
        "lenient": bool(lenient),
        "check": bool(check),
    }


class StageFormatError(ValueError):
    """Persisted stage artifacts are malformed or from another schema."""


def check_stage_dict(data: object) -> dict:
    """Validate the outer shape of a persisted stage payload. Keys it does
    not read (``records``, ``extraction_config`` and
    ``min_precast_steps``, which older stage files carry) are ignored."""
    if not isinstance(data, dict):
        raise StageFormatError(
            f"stage payload must be a JSON object, got {type(data).__name__}"
        )
    if data.get("format") != STAGE_FORMAT:
        raise StageFormatError(f"unknown stage format: {data.get('format')!r}")
    if "texts" not in data:
        raise StageFormatError("stage payload missing key 'texts'")
    return data
