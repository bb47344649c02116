"""The benchmark's workloads and the closed-loop harness they share.

One client in one process, no extra threads: an IDE user waits for each
answer, so every operation completes before the next one starts. Every
workload runs every operation the end-to-end metrics name (queries,
batches, corpus updates, snapshot restarts); what differs is the data
and the mix, and so which layers carry the load:

* ``table1-warm`` replays the 20 Table-1 queries on the bundled stubs
  and corpus in seeded, shuffled rounds. Twenty targets fit the 64-map
  distance cache, so after round one no distance map is computed and
  the time goes to enumeration, path->jungloid, render, rank and
  packaging: the bypass case for any distance-layer change. Its updates
  are comment-only touches, which change no suffix and keep the cache
  warm.
* ``scale-query`` serves a fixed population of 500 class pairs over the
  J2SE-sized synthetic API plus a generated corpus, in seeded order,
  twice one at a time and then in batches, whole passes only. Some 500
  distinct targets overflow the cache, so every query pays for a fresh
  Dijkstra, and large path sets make a long tail. Updates work as in
  ``table1-warm``.
* ``scale-edit`` applies a seeded mix of edits to a seeded corpus over
  the same API through the staged pipeline (touches, cast idioms added
  or dropped, files added or removed) and queries after each edit, first
  at the types it touched, then the next pairs of a fixed population.
  One corpus file never resolves, so lenient quarantine stays on the
  path.

Every workload restarts now and then: it saves a snapshot with its stage
sidecar, drops the serving instance, loads the snapshot and carries on
with the loaded instance, as a restarted IDE would.

Answers are checked against goldens captured from the program
(``golden/``), between single and batch serving, across restarts and
against a fresh build; a mismatch, exception or degraded outcome counts
as a failed operation.

Times are the client thread's CPU time (:func:`time.thread_time`). The
workload is single-threaded and its timed operations wait on nothing
but reads of a snapshot file just written, so on a host of its own its
CPU time is its wall time; on a shared host, CPU time leaves out the
spells in which other processes hold the core, which otherwise make the
tail percentiles jump from run to run.

CPU times are also scaled to a reference host speed. The host is
shared, and its speed drifts by a third within seconds, so the harness
times a fixed pure-Python loop (:func:`probe_seconds`) between operations, every
``PROBE_EVERY_S`` seconds, and multiplies each operation's time by
``PROBE_REFERENCE_S`` over the median of the probes taken within
``PROBE_WINDOW_S`` of it. A reported millisecond is a millisecond on a
host where the probe takes ``PROBE_REFERENCE_S``. The probe touches no
program object, so a change to the program moves the scaled times as it
moves the raw ones. The heap is frozen (:func:`gc.freeze`) for the
measured loop, so a collection scans only what the loop made.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import json
import random
import resource
import statistics
from pathlib import Path
from time import perf_counter, thread_time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import Prospector
from repro.apispec import SyntheticApiConfig, generate_synthetic_api
from repro.corpus import load_corpus_texts
from repro.data import corpus_texts, standard_registry
from repro.eval import TABLE1_PROBLEMS
from repro.eval.perf import percentile
from repro.eval.queryproc import DEFAULT_READ_LIMIT
from repro.pipeline import CorpusPipeline
from repro.store import stage_sidecar_path

import corpusgen
from tracer import BATCH, QUERY, RESTART, SAVE, UPDATE, LayerTracer

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Healthy generated files in the scale corpora (each adds one broken file).
SCALE_FILES = 100
#: The scale corpus of scale-query and the query populations of both
#: scale workloads are fixed, so every seed serves the same pairs and a
#: stored digest can check scale-query's answers; the seed orders the
#: pairs and picks the touched files and the edits. Either population
#: holds far more targets than the 64-map distance cache, and cycling
#: through it misses the cache every time.
SCALE_QUERY_SEED = 20050612
SCALE_QUERY_PAIRS = 500
EDIT_QUERY_PAIRS = 100
#: Share of scale-query pairs aimed at mined idioms rather than random types.
IDIOM_QUERY_SHARE = 0.2
#: scale-query serves its whole population this many times one query at a
#: time, so its tail percentile has ten samples beyond it, then serves it
#: in batches of ``BATCH_SIZE`` until the measured seconds have passed
#: and a pass is complete. So every run times the same queries.
SINGLE_PASSES = 2
BATCH_SIZE = 50
#: Size of the fixed scale-query probe whose answer digest is golden.
PROBE_PAIRS = 40
#: Population pairs queried after each scale-edit edit, besides the touched idioms.
POPULATION_QUERIES_PER_EDIT = 10
#: Final scale-edit check: recently touched idioms plus population pairs.
CHECK_AIMED = 10
CHECK_POPULATION = 20
#: The host-speed probe runs at most this often, between operations, and
#: an operation's time is scaled by the probes this close to it.
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 0.5
#: The probe's time on the reference host; times are scaled to it.
PROBE_REFERENCE_S = 0.0025


class Schedule(NamedTuple):
    """When a workload touches and restarts, and where its seeded prefix ends.

    The deterministic counters are taken over the first ``prefix`` steps,
    which include one restart (at step ``prefix_restart``) and updates,
    so every layer's counts repeat exactly for a seed. After the prefix,
    one restart follows whenever a fraction in ``restart_at`` of the
    measured seconds has passed.
    """

    prefix: int
    prefix_restart: int
    restart_at: Tuple[float, ...]
    touch_every: int


SCHEDULES = {
    # A Table-1 restart is cheap, so it restarts often.
    "table1-warm": Schedule(8, 5, tuple(k / 10 for k in range(1, 10)), touch_every=2),
    "scale-query": Schedule(200, 150, (0.45,), touch_every=150),
    # scale-edit edits on every step; its touches are drawn among the edits.
    "scale-edit": Schedule(8, 5, (0.35, 0.7), touch_every=1),
}

Pair = Tuple[str, str]
Answer = Tuple[str, ...]


class Aborted(Exception):
    """The workload cannot go on: its serving instance was lost."""


def answer_of(results) -> Answer:
    """The checked form of a ranked answer: rank, source, rendering, verdict."""
    return tuple(
        f"{s.rank} {s.source_type} {s.jungloid.render_expression('x')} "
        f"{s.verdict.verdict.value if s.verdict is not None else '-'}"
        for s in results
    )


def digest(answers: Sequence[Optional[Answer]]) -> str:
    h = hashlib.sha256()
    for answer in answers:
        h.update("\n".join(answer or ("<failed>",)).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def probe_seconds() -> float:
    """Median time of three runs of a fixed dict and big-integer loop."""
    times = []
    for _ in range(3):
        start = thread_time()
        table: Dict[int, int] = {}
        total = 0
        for k in range(10_000):
            table[k & 1023] = total
            total += table.get((k * 7) & 1023, 1)
        times.append(thread_time() - start)
    return statistics.median(times)


class HostSpeed:
    """Scales operation times to the reference host speed.

    The probe runs between operations, at most every ``PROBE_EVERY_S``
    seconds. An operation's time waits until :meth:`scale`, which
    multiplies it by ``PROBE_REFERENCE_S`` over the median of the probes
    taken within ``PROBE_WINDOW_S`` of the operation.
    """

    def __init__(self) -> None:
        #: (when, probe seconds), in time order.
        self.probes: List[Tuple[float, float]] = []
        self._pending: List[Tuple[List[float], float, float, float]] = []
        self.probe()

    def probe(self) -> None:
        self.probes.append((perf_counter(), probe_seconds()))

    def record(self, samples: List[float], seconds: float) -> None:
        """Append ``seconds``, the time of an operation that just ended, to
        ``samples`` when :meth:`scale` runs."""
        end = perf_counter()
        self._pending.append((samples, seconds, end - seconds, end))
        if end - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probe()

    def scale(self) -> None:
        self.probe()
        times = [when for when, _ in self.probes]
        for samples, value, start, end in self._pending:
            lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
            hi = bisect.bisect_right(times, end + PROBE_WINDOW_S)
            window = [seconds for _, seconds in self.probes[lo:hi]]
            samples.append(value * PROBE_REFERENCE_S / statistics.median(window))
        self._pending.clear()

    def factor(self) -> float:
        """The run's median scale factor."""
        return PROBE_REFERENCE_S / statistics.median(seconds for _, seconds in self.probes)


def _freeze_heap() -> None:
    """Move every live object out of the collector's reach, so that a
    collection during the measured loop scans only what the loop made."""
    gc.collect()
    gc.freeze()


class Harness:
    """Runs operations one after another, times them and counts failures.

    ``live`` is the serving instance. Operations are timed and traced
    only between :meth:`start_clock` and :meth:`stop_clock`; the builds
    of :meth:`setup` are always timed. Answer checks are never timed.
    """

    def __init__(
        self,
        workload: str,
        seconds: float,
        seed: int,
        tracer: Optional[LayerTracer],
        work_dir: Path,
    ):
        self.schedule = SCHEDULES[workload]
        self.seconds = seconds
        self.seed = seed
        self.tracer = tracer
        self.snapshot = work_dir / "index.psnap"
        self.live: Optional[Prospector] = None
        self.speed = HostSpeed()
        self.setup_s: List[float] = []
        self.query_s: List[float] = []
        self.batch_queries = 0
        self.batch_s: List[float] = []
        self.update_s: List[float] = []
        self.restart_s: List[float] = []
        self.peak_rss_mb = 0.0
        self.snapshot_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.measuring = False
        self._start = 0.0
        self._restart_marks: List[float] = []

    # -- bookkeeping -----------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def match(self, answer: Optional[Answer], want: Optional[Answer], what: str) -> None:
        """Fail when both answers exist and differ (a missing one already failed)."""
        if answer is not None and want is not None and answer != want:
            self.fail(what)

    def _op(self, kind: str, weight: int = 1):
        if self.tracer is None or not self.measuring:
            return contextlib.nullcontext()
        return self.tracer.operation(kind, weight)

    def _record(self, samples: List[float], seconds: float) -> None:
        if self.measuring:
            self.speed.record(samples, seconds)

    def start_clock(self) -> None:
        _freeze_heap()
        self.measuring = True
        self._start = perf_counter()
        self._restart_marks = [f * self.seconds for f in self.schedule.restart_at]

    def stop_clock(self) -> None:
        """End the measured loop: scale its times, read the peak RSS."""
        self.speed.scale()
        self.measuring = False
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gc.unfreeze()

    def elapsed(self) -> float:
        return perf_counter() - self._start

    def finished(self, step: int, boundary: bool = True) -> bool:
        """Whether the loop ends after ``step``: the prefix is done (its
        counters are frozen), a batch was served, the measured seconds
        have passed and the workload is at a ``boundary``."""
        if step + 1 == self.schedule.prefix and self.tracer is not None:
            self.tracer.freeze_counts()
        done = (
            step + 1 >= self.schedule.prefix
            and self.batch_queries > 0
            and self.elapsed() >= self.seconds
            and boundary
        )
        if done:
            self.stop_clock()
        return done

    def touch_due(self, step: int) -> bool:
        every = self.schedule.touch_every
        return step % every == every - 1

    def restart_due(self, step: int) -> bool:
        """The prefix restarts at a fixed step; timed restarts come after
        the prefix, so they never change its counters."""
        if step == self.schedule.prefix_restart:
            return True
        if step >= self.schedule.prefix and self._restart_marks:
            if self.elapsed() >= self._restart_marks[0]:
                self._restart_marks.pop(0)
                return True
        return False

    # -- operations ------------------------------------------------------

    def setup(self, build: Callable[[], Prospector]) -> None:
        for _ in range(SETUP_REPEATS):
            self.live = None
            gc.collect()
            self.speed.probe()
            start = thread_time()
            self.live = build()
            self.speed.record(self.setup_s, thread_time() - start)
        self.speed.scale()

    def answer(self, prospector: Prospector, pair: Pair) -> Optional[Answer]:
        """An untimed query for answer checks."""
        self.attempted += 1
        try:
            return answer_of(prospector.query(*pair))
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            self.fail(f"check query {pair}: {exc!r}")
            return None

    def query(self, pair: Pair) -> Optional[Answer]:
        self.attempted += 1
        with self._op(QUERY):
            start = thread_time()
            try:
                results = self.live.query(*pair)
            except Exception as exc:  # noqa: BLE001
                self.fail(f"query {pair}: {exc!r}")
                return None
            elapsed = thread_time() - start
        self._record(self.query_s, elapsed)
        return answer_of(results)

    def batch(self, pairs: Sequence[Pair]) -> List[Optional[Answer]]:
        self.attempted += len(pairs)
        with self._op(BATCH, len(pairs)):
            start = thread_time()
            try:
                outcomes = self.live.query_batch(pairs)
            except Exception as exc:  # noqa: BLE001
                for _ in pairs:
                    self.fail(f"batch: {exc!r}")
                return [None] * len(pairs)
            elapsed = thread_time() - start
        if self.measuring:
            self.batch_queries += len(pairs)
        self._record(self.batch_s, elapsed)
        answers: List[Optional[Answer]] = []
        for pair, outcome in zip(pairs, outcomes):
            if outcome.degraded:
                self.fail(f"batch query {pair} degraded: {outcome.reasons}")
                answers.append(None)
            else:
                answers.append(answer_of(outcome.results))
        return answers

    def update(self, upserts=(), removes=()) -> None:
        self.attempted += 1
        with self._op(UPDATE):
            start = thread_time()
            try:
                self.live.update_corpus(upserts, removes)
            except Exception as exc:  # noqa: BLE001
                self.fail(f"update: {exc!r}")
                return
            elapsed = thread_time() - start
        self._record(self.update_s, elapsed)

    def touch(self, rng: random.Random, texts: Dict[str, str],
              names: Sequence[str], touched: set) -> None:
        """A comment-only edit: the file is re-mined, no suffix changes."""
        name = rng.choice(names)
        text = texts[name] if name in touched else texts[name] + "// touched\n"
        touched ^= {name}
        self.update([(name, text)])

    def restart(self, first: Pair) -> None:
        """Save a snapshot, drop the serving instance, then time
        ``from_snapshot`` to the answer for ``first``, which must equal the
        dropped instance's; the loaded instance serves from then on.
        Raises :class:`Aborted` when it cannot load."""
        want = self.answer(self.live, first)
        self.attempted += 2
        with self._op(SAVE):
            try:
                self.live.save_snapshot(self.snapshot)
            except Exception as exc:  # noqa: BLE001
                self.fail(f"save: {exc!r}")
                return
        if not self.snapshot_bytes:
            # The first restart is the prefix's, so the size repeats for a seed.
            self.snapshot_bytes = (
                self.snapshot.stat().st_size + stage_sidecar_path(self.snapshot).stat().st_size
            )
        gc.unfreeze()
        self.live = None
        gc.collect()
        if self.measuring:
            self.speed.probe()
        with self._op(RESTART):
            start = thread_time()
            try:
                self.live = Prospector.from_snapshot(self.snapshot)
                results = self.live.query(*first)
            except Exception as exc:  # noqa: BLE001
                self.fail(f"restart: {exc!r}")
                raise Aborted("the snapshot did not load") from exc
            elapsed = thread_time() - start
        self._record(self.restart_s, elapsed)
        if self.measuring:
            _freeze_heap()
        if not self.live.store_diagnostics.ok:
            self.fail(f"restart: {self.live.store_diagnostics.summary()}")
        if self.live.pipeline is None:
            self.fail("restart: the stage sidecar was not adopted")
        self.match(answer_of(results), want, f"restart: {first} differs")

    # -- metrics ---------------------------------------------------------

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        q, u = self.query_s, self.update_s
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "query_p50_ms": (percentile(q, 50) * 1000.0, "ms"),
            "query_p99_ms": (percentile(q, 99) * 1000.0, "ms"),
            "queries_per_s": (len(q) / sum(q), "1/s"),
            "batch_queries_per_s": (self.batch_queries / sum(self.batch_s), "1/s"),
            "update_p50_ms": (percentile(u, 50) * 1000.0, "ms"),
            "update_p90_ms": (percentile(u, 90) * 1000.0, "ms"),
            "restart_ms": (statistics.median(self.restart_s) * 1000.0, "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def per_layer(self) -> Dict[str, Tuple[float, str]]:
        """Layer times per operation over the measured loop, scaled by the
        run's median host-speed factor; counts and ratios over the seeded
        prefix, so they repeat exactly for a seed."""
        t = self.tracer
        q, u = "query", "update"
        scale = self.speed.factor()

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m: Dict[str, Tuple[float, str]] = {}
        for layer in QUERY_LAYERS:
            m[f"{layer}.ms"] = (t.layer_ms(layer, q) * scale, "ms/query")
        for layer in UPDATE_LAYERS:
            m[f"{layer}.ms"] = (t.layer_ms(layer, u) * scale, "ms/update")
        m["store.save.ms"] = (t.layer_ms("store.save", "save") * scale, "ms/save")
        m["store.load.ms"] = (t.layer_ms("store.load", "restart") * scale, "ms/restart")
        m["graph.build.ms"] = (t.layer_ms("graph.build", "restart") * scale, "ms/restart")
        m["pipeline.from_artifacts.ms"] = (
            t.layer_ms("pipeline.from_artifacts", "restart", inclusive=True) * scale,
            "ms/restart",
        )
        paths = t.count("search.enumerate.paths", q)
        expansions = t.count("search.enumerate.expansions", q)
        hits = t.count("search.cache.hits", q)
        lookups = hits + t.count("search.cache.misses", q)
        counts = {
            "search.distance.calls": t.calls("search.distance", q),
            "search.distance.settled_nodes": t.count("search.distance.settled_nodes", q),
            "search.enumerate.expansions": expansions,
            "search.enumerate.paths": paths,
            "search.compile.calls": t.calls("search.compile", q),
            "graph.graft.suffixes_added": t.count("graph.graft.suffixes_added", u),
            "graph.graft.suffixes_removed": t.count("graph.graft.suffixes_removed", u),
            "graph.graft.affected_targets": t.count("graph.graft.affected_targets", u),
            "minijava.parse.files": t.calls("minijava.parse", u),
            "corpus.resolve.passes": t.calls("corpus.resolve.pass", u),
            "mining.extract.files": t.calls("mining.extract", u),
            "analysis.castsafety.casts": t.count("analysis.castsafety.casts", u),
            "graph.build.calls": t.calls("graph.build", "restart"),
        }
        ratios = {
            "search.distance.useful_ratio": ratio(
                t.count("search.distance.useful_nodes", q),
                t.count("search.distance.credited_nodes", q),
            ),
            "search.cache.hit_ratio": ratio(hits, lookups),
            "search.enumerate.yield_ratio": ratio(paths, expansions),
            "search.render.calls_per_path": ratio(t.calls("search.render", q), paths),
            "search.dedup.kept_ratio": ratio(t.calls("search.dedup", q), paths),
            "graph.graft.affected_ratio": ratio(
                t.count("graph.graft.affected_targets", u), t.count("graph.graft.nodes", u)
            ),
            "pipeline.reuse_ratio": ratio(
                t.count("pipeline.files_reused", u), t.count("pipeline.files_total", u)
            ),
        }
        m.update({name: (value, "count") for name, value in counts.items()})
        m.update({name: (value, "ratio") for name, value in ratios.items()})
        m["store.snapshot_bytes"] = (float(self.snapshot_bytes), "bytes")
        m["run.query_samples"] = (float(len(self.query_s)), "count")
        m["run.update_samples"] = (float(len(self.update_s)), "count")
        m["run.restart_samples"] = (float(len(self.restart_s)), "count")
        m["run.host_speed"] = (scale, "ratio")
        e2e = self.end_to_end()
        for name in ("query_p50_ms", "queries_per_s", "update_p50_ms", "restart_ms"):
            m[f"traced.{name}"] = e2e[name]
        return m


#: Layers reported per query, and per update.
QUERY_LAYERS = (
    "search.distance",
    "search.enumerate",
    "search.to_jungloid",
    "search.render",
    "search.rank",
    "core.package",
    "search.compile",
)
UPDATE_LAYERS = (
    "graph.graft",
    "pipeline.fingerprint",
    "minijava.parse",
    "corpus.resolve",
    "minijava.callgraph",
    "mining.extract",
    "analysis.castsafety",
    "mining.generalize",
)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

TABLE1_PAIRS: Tuple[Pair, ...] = tuple((p.t_in, p.t_out) for p in TABLE1_PROBLEMS)


def bundled_instance() -> Prospector:
    """The bundled stubs plus the 12-file corpus, loaded leniently."""
    registry = standard_registry()
    return Prospector(registry, load_corpus_texts(registry, corpus_texts(), lenient=True))


def table1_rank(problem, results) -> Optional[int]:
    """The oracle's rank within Table 1's read limit, or None ("No")."""
    rank = problem.oracle.rank_in([s.jungloid for s in results])
    return rank if rank is not None and rank <= DEFAULT_READ_LIMIT else None


def scale_registry():
    return generate_synthetic_api(SyntheticApiConfig())


def synth_types(registry) -> List[str]:
    return sorted(
        str(t) for t in registry.all_types() if str(t).startswith(corpusgen.SYNTH_PREFIX)
    )


def seeded_pairs(rng: random.Random, types: Sequence[str], idioms, count: int) -> List[Pair]:
    """Random class pairs, a share of them aimed at mined idioms."""
    pairs = []
    for _ in range(count):
        if idioms and rng.random() < IDIOM_QUERY_SHARE:
            pairs.append(rng.choice(idioms).query)
        else:
            pairs.append((rng.choice(types), rng.choice(types)))
    return pairs


def scale_query_inputs():
    """The fixed scale-query registry, corpus, probe and pair population."""
    registry = scale_registry()
    corpus = corpusgen.generate_corpus(registry, files=SCALE_FILES, seed=SCALE_QUERY_SEED)
    rng = random.Random(SCALE_QUERY_SEED)
    types = synth_types(registry)
    probe = seeded_pairs(rng, types, corpus.idioms(), PROBE_PAIRS)
    pairs = seeded_pairs(rng, types, corpus.idioms(), SCALE_QUERY_PAIRS)
    return registry, corpus, pairs, probe


def scale_query_instance(registry, texts) -> Prospector:
    return Prospector(registry, load_corpus_texts(registry, texts, lenient=True))


def golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def check_table1(h: Harness, want: dict, label: str) -> None:
    for problem, expected in zip(TABLE1_PROBLEMS, want["problems"]):
        h.attempted += 1
        try:
            results = h.live.query(problem.t_in, problem.t_out)
        except Exception as exc:  # noqa: BLE001
            h.fail(f"{label}: problem {problem.id}: {exc!r}")
            continue
        if list(answer_of(results)) != expected["answer"]:
            h.fail(f"{label}: problem {problem.id} answer differs from golden")
        if table1_rank(problem, results) != expected["rank"]:
            h.fail(f"{label}: problem {problem.id} oracle rank differs from golden")


def table1_warm(h: Harness) -> None:
    want = golden("table1.json")
    expected = [tuple(p["answer"]) for p in want["problems"]]
    h.setup(bundled_instance)
    check_table1(h, want, "fresh build")
    texts = dict(h.live.pipeline.texts)
    names = sorted(texts)
    touched: set = set()
    rng = random.Random(h.seed)
    h.start_clock()
    step = 0
    while True:
        order = rng.sample(range(len(TABLE1_PAIRS)), len(TABLE1_PAIRS))
        for i in order:
            h.match(h.query(TABLE1_PAIRS[i]), expected[i], f"problem {i + 1} differs")
        if h.touch_due(step):
            h.touch(rng, texts, names, touched)
        else:
            answers = h.batch([TABLE1_PAIRS[i] for i in order])
            for i, answer in zip(order, answers):
                h.match(answer, expected[i], f"batch: problem {i + 1} differs")
        if h.restart_due(step):
            h.restart(TABLE1_PAIRS[0])
            check_table1(h, want, "restarted")
        if h.finished(step):
            break
        step += 1
    check_table1(h, want, "after updates")


def scale_query(h: Harness) -> None:
    registry, corpus, pairs, probe = scale_query_inputs()
    texts = corpus.texts()
    h.setup(lambda: scale_query_instance(registry, texts))
    if digest([h.answer(h.live, pair) for pair in probe]) != golden("scale_query.json")["digest"]:
        h.fail("scale-query probe answers differ from golden")
    first = pairs[0]
    rng = random.Random(h.seed)
    rng.shuffle(pairs)
    seen: Dict[Pair, Answer] = {}
    text_of = dict(texts)
    names = [f.source for f in corpus.healthy()]
    touched: set = set()
    h.start_clock()
    served = batched = step = 0
    while True:
        if served < SINGLE_PASSES * len(pairs):
            pair = pairs[served % len(pairs)]
            served += 1
            answer = h.query(pair)
            if answer is not None:
                h.match(answer, seen.setdefault(pair, answer), f"{pair}: answer changed")
            if h.touch_due(step):
                h.touch(rng, text_of, names, touched)
        else:
            chunk = [pairs[(batched + k) % len(pairs)] for k in range(BATCH_SIZE)]
            batched += BATCH_SIZE
            for pair, answer in zip(chunk, h.batch(chunk)):
                if answer is not None:
                    h.match(answer, seen.setdefault(pair, answer), f"{pair}: batch differs")
        if h.restart_due(step):
            h.restart(first)
        if h.finished(step, boundary=batched % len(pairs) == 0):
            break
        step += 1


def scale_edit(h: Harness) -> None:
    registry = scale_registry()
    corpus = corpusgen.generate_corpus(registry, files=SCALE_FILES, seed=h.seed)
    texts = corpus.texts()
    h.setup(lambda: Prospector(registry, pipeline=CorpusPipeline.build(registry, texts)))
    pairs = seeded_pairs(random.Random(SCALE_QUERY_SEED), synth_types(registry), (),
                         EDIT_QUERY_PAIRS)
    first = pairs[0]
    rng = random.Random(f"queries-{h.seed}")
    rng.shuffle(pairs)
    recent: List[Pair] = []
    h.start_clock()
    step = 0
    while True:
        edit = corpusgen.next_edit(corpus)
        h.update(edit.upserts, edit.removes)
        aimed = [idiom.query for idiom in edit.touched[:2]]
        queries = aimed + [
            pairs[(step * POPULATION_QUERIES_PER_EDIT + k) % len(pairs)]
            for k in range(POPULATION_QUERIES_PER_EDIT)
        ]
        singles = [h.query(pair) for pair in queries]
        for pair, single, batched in zip(queries, singles, h.batch(queries)):
            h.match(batched, single, f"{pair}: batch answer differs from single")
        recent.extend(aimed)
        if h.restart_due(step):
            h.restart(first)
        if h.finished(step):
            break
        step += 1

    # Live answers, single and batch, before and after a restart, must
    # equal a fresh build over the same final texts.
    checks = recent[-CHECK_AIMED:] + rng.sample(pairs, CHECK_POPULATION)
    fresh = Prospector(registry, pipeline=CorpusPipeline.build(registry, corpus.texts()))
    want = [h.answer(fresh, pair) for pair in checks]
    del fresh
    for label in ("live", "restarted"):
        if label == "restarted":
            h.restart(checks[0])
        singles = [h.answer(h.live, pair) for pair in checks]
        for pair, expected, single, batched in zip(checks, want, singles, h.batch(checks)):
            h.match(single, expected, f"{label}: {pair} differs from a fresh build")
            h.match(batched, expected, f"{label}: batch {pair} differs from a fresh build")


WORKLOADS: Dict[str, Callable[[Harness], None]] = {
    "table1-warm": table1_warm,
    "scale-query": scale_query,
    "scale-edit": scale_edit,
}
