"""Incremental jungloid-graph pipeline: staged, fingerprinted builds.

See :mod:`.pipeline` for the stage breakdown. The public surface:

* :class:`CorpusPipeline` — build once, then :meth:`~CorpusPipeline.update`
  with file-level edits; only touched artifacts recompute.
* :class:`FileMineRecord` — one file's mined examples and the
  dependency fingerprints that keep them valid across updates (held in
  memory only);
* :func:`stages_to_dict` / :func:`check_stage_dict` — the stage file's
  form: the corpus texts and load discipline a restart syncs from.
* fingerprint helpers — content hashing and diffing for corpus files.
"""

from .artifacts import (
    DepFingerprint,
    FileMineRecord,
    STAGE_FORMAT,
    StageFormatError,
    check_stage_dict,
    stages_to_dict,
)
from .fingerprint import (
    FingerprintDiff,
    diff_fingerprints,
    fingerprint_text,
    fingerprint_texts,
)
from .pipeline import (
    CorpusPipeline,
    PipelineUpdateStats,
    StageTimings,
)

__all__ = [
    "CorpusPipeline",
    "DepFingerprint",
    "FileMineRecord",
    "FingerprintDiff",
    "PipelineUpdateStats",
    "STAGE_FORMAT",
    "StageFormatError",
    "StageTimings",
    "check_stage_dict",
    "diff_fingerprints",
    "fingerprint_text",
    "fingerprint_texts",
    "stages_to_dict",
]
