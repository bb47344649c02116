"""The benchmark's tracer wraps the program's layers where the program
looks them up (``perfbench/tracer.py``'s ``SITES``). One short traced
run of every operation kind must fire every site, so a refactor that
moves a layer's call site fails here, not only in the traced benchmark
runs."""

import importlib
import sys
from pathlib import Path

from repro import Prospector
from repro.data import corpus_texts
from repro.eval import TABLE1_PROBLEMS
from repro.pipeline import CorpusPipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_site_fires(standard_registry_and_corpus, tmp_path):
    trace = _tracer()
    registry = standard_registry_and_corpus[0]
    texts = corpus_texts()
    source, text = next((s, t) for s, t in texts if s == "ant_targets.mj")
    queries = [(p.t_in, p.t_out) for p in TABLE1_PROBLEMS[:3]]
    snap = tmp_path / "g.psnap"
    tracer = trace.LayerTracer()
    tracer.install()
    try:
        with tracer.operation(trace.UPDATE):
            live = Prospector(registry, pipeline=CorpusPipeline.build(registry, texts))
        with tracer.operation(trace.QUERY):
            assert live.query(*queries[0])
        with tracer.operation(trace.UPDATE):
            assert live.update_corpus([(source, text + "\n// touched\n")]).files_remined
        with tracer.operation(trace.SAVE):
            live.save_snapshot(snap)
        with tracer.operation(trace.RESTART):
            restarted = Prospector.from_snapshot(snap)
        with tracer.operation(trace.BATCH, len(queries)):
            assert all(o.results for o in restarted.query_batch(queries))
        assert tracer.silent_sites() == []
    finally:
        tracer.uninstall()
