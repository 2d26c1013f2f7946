"""One workload run, in its own process: setup, timed loop, answer check.

``run.py`` starts this module as ``python3 -m perfbench.workload`` under
a wall-clock limit; the module writes its result as JSON to ``--result``
and appends one progress line per step to ``--progress``, from which the
parent accounts for a run that hangs or crashes.  It only reads
generated inputs (``perfbench.gen``): graph JSON, templates, plans,
delta streams and reference answers.

Every workload is a closed loop with one client.  An untraced run
(``--trace 0``) sets up :data:`perfbench.spec.SETUP_REPEATS` times, or
more until :data:`perfbench.spec.SETUP_SECONDS` have passed, then runs
the seed's plan until ``--seconds`` have passed, replaying it from a
fresh setup whenever it runs out, then compares every kept answer with
its reference.  A traced run (``--trace 1``) runs the first
:data:`perfbench.spec.TRACED_OPS` operations of the plan three times,
on fresh setups: untraced, with :class:`LayerTracer` installed, and
untraced again, and derives the per-layer metrics from the traced pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench import gen, spec, stats
from perfbench.answers import canonical, same
from perfbench.layers import LayerTracer, installed_wrappers


#: Replays of the plan in the operation list: more than any run reaches.
REPLAYS = 50


class OpTimeout(Exception):
    """An operation ran past :data:`perfbench.spec.OP_TIMEOUT_S`."""


def _on_alarm(signum: int, frame: Any) -> None:
    raise OpTimeout(f"operation exceeded {spec.OP_TIMEOUT_S}s")


@dataclass
class OpRecord:
    """What one operation of the loop produced."""

    #: Unit-operation latency (a query or a write), seconds.
    seconds: float = 0.0
    #: Read-query latency samples of this operation, seconds.
    queries: list[float] = field(default_factory=list)
    #: Read queries this operation answered.
    answered: int = 0
    #: ``(slot, reference key, raw answer)``, compared after the loop.
    #: Answers sharing a slot make up one operation (a write and its
    #: view reads); each slot is one of the operations ``weight`` counts.
    answers: list[tuple[int, str, Any]] = field(default_factory=list)
    #: Operations this record stands for (a write cycle: the write and
    #: its reads).
    weight: int = 1
    error: str | None = None


class Progress:
    """Append-only step log the parent reads if this process dies."""

    def __init__(self, path: Path) -> None:
        self._handle = path.open("a")

    def write(self, line: str) -> None:
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """Setup and operations of one workload over its plan directory."""

    def __init__(self, plan_dir: Path) -> None:
        self.plan = json.loads((plan_dir / "plan.json").read_text())
        self.universe = plan_dir.parent.parent / self.plan["universe"]
        #: Reference answers by key (see :func:`check`).
        self.references: dict = json.loads((self.universe / "references.json").read_text())

    # -- setup ---------------------------------------------------------
    def _load(self, freeze: bool) -> tuple[Any, dict]:
        from repro.graph import io as graph_io
        from repro.patterns.io import pattern_from_dict

        graph = graph_io.load_json(self.universe / self.plan["graph"])
        if freeze:
            graph.freeze()
        graph.snapshot()
        docs = json.loads((self.universe / "templates.json").read_text())
        return graph, {name: pattern_from_dict(doc) for name, doc in docs.items()}

    def setup(self) -> dict:
        from repro.session import MatchSession

        graph, patterns = self._load(freeze=True)
        session = MatchSession(graph)
        for query in self.plan.get("warm", ()):
            session.run_batch([self.spec(patterns, query)])
        return {"graph": graph, "patterns": patterns, "session": session}

    def teardown(self, state: dict) -> None:
        state["session"].close()

    # -- operations ----------------------------------------------------
    @staticmethod
    def spec(patterns: dict, query: dict) -> Any:
        return gen.query_spec(patterns[query["t"]], query["mode"], query["k"])

    def plan_ops(self) -> list[dict]:
        return self.plan["ops"]

    def ops(self) -> list[dict]:
        """The plan's operations, replayed more often than any run gets to.

        Each replay starts on a fresh setup, so no session is asked the
        same query twice, and a faster program never runs out of plan.
        """
        return [dict(op, replay=replay) for replay in range(REPLAYS)
                for op in self.plan_ops()]

    def restart(self, state: dict) -> float:
        """Replace ``state`` with a fresh setup; the setup's seconds."""
        self.teardown(state)
        state.clear()
        gc.collect()
        started = time.perf_counter()
        state.update(self.setup())
        return time.perf_counter() - started

    def run(self, state: dict, op: Any, record: OpRecord) -> None:
        """Execute ``op``, filling ``record`` as results arrive."""
        query = self.spec(state["patterns"], op)
        started = time.perf_counter()
        result = state["session"].run_batch([query])[0]
        record.seconds = time.perf_counter() - started
        record.queries.append(record.seconds)
        record.answered = 1
        record.answers.append((0, gen.ref_key(op["t"], op["mode"], op["k"]), result))

    def weight(self, op: Any) -> int:
        return 1

    @staticmethod
    def block(op: dict) -> tuple[int, int]:
        """The replay and plan block of ``op``; a run ends on a block
        boundary."""
        return op["replay"], op["block"]


class WriteStream(Workload):
    def __init__(self, plan_dir: Path) -> None:
        super().__init__(plan_dir)
        from repro.graph.delta import load_delta_file

        self.deltas = load_delta_file(self.universe / gen.STREAM_FILE)
        # Answers of the wholesale-refresh twin (see perfbench.gen).
        self.references = json.loads((self.universe / gen.STREAM_REFERENCES).read_text())

    def setup(self) -> dict:
        from repro.session import ExecutionConfig, MatchSession

        graph, patterns = self._load(freeze=False)
        session = MatchSession(
            graph, config=ExecutionConfig(snapshot_patching=True), on_mutation="refresh"
        )
        views = [session.register_view(patterns[v["t"]], k=v["k"]) for v in self.plan["views"]]
        for view in views:
            view.top_k()
        for query in self.plan["warm"]:
            session.run_batch([self.spec(patterns, query)])
        return {"graph": graph, "patterns": patterns, "session": session, "views": views}

    def run(self, state: dict, op: Any, record: OpRecord) -> None:
        cycle = op["cycle"]
        lo, hi = op["burst"]
        started = time.perf_counter()
        state["graph"].apply_delta(self.deltas[lo:hi])
        state["session"].refresh()
        answers = [view.top_k() for view in state["views"]]
        record.seconds = time.perf_counter() - started
        record.answers.extend((0, f"view|{cycle}|{i}", a) for i, a in enumerate(answers))
        for slot, query in enumerate(op["reads"], start=1):
            spec = self.spec(state["patterns"], query)
            started = time.perf_counter()
            result = state["session"].run_batch([spec])[0]
            record.queries.append(time.perf_counter() - started)
            record.answered += 1
            record.answers.append((slot, f"read|{cycle}|{query['t']}|{query['k']}", result))

    def plan_ops(self) -> list[dict]:
        """The plan's episode: one block, so a run replays whole episodes."""
        return [dict(op, cycle=cycle, block=0) for cycle, op in enumerate(self.plan["ops"])]

    def weight(self, op: Any) -> int:
        return 1 + len(op["reads"])


WORKLOADS = {
    "cyclic-read": Workload,
    "dag-diversified": Workload,
    "write-stream": WriteStream,
}


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------
def run_loop(
    workload: Workload,
    state: dict,
    ops: list,
    seconds: float | None,
    progress: Progress,
) -> tuple[list[OpRecord], float, list[float]]:
    """Run ``ops`` in order; with ``seconds``, stop at the first block
    boundary after that many seconds.

    A block is a round of every cyclic template, a block of DAG
    templates or a write-stream episode (see ``perfbench.gen``); ending
    on a boundary keeps the mix of work the same from seed to seed.
    Returns the records, the loop's wall time, and the seconds of each
    fresh setup that started a replay of the plan.  Each operation runs
    under a :data:`perfbench.spec.OP_TIMEOUT_S` alarm; an exception or a
    timeout is kept in the record and the loop goes on.
    """
    records: list[OpRecord] = []
    setups: list[float] = []
    started = time.perf_counter()
    current = None
    for op in ops:
        block = workload.block(op)
        if block != current:
            if seconds is not None and time.perf_counter() - started >= seconds:
                break
            if current is not None and block[0] != current[0]:
                setups.append(workload.restart(state))
                progress.write(f"setup {setups[-1]}")
        current = block
        record = OpRecord(weight=workload.weight(op))
        progress.write(f"op {record.weight}")
        signal.setitimer(signal.ITIMER_REAL, spec.OP_TIMEOUT_S)
        try:
            workload.run(state, op, record)
        except Exception as exc:  # noqa: BLE001 - the loop must keep running
            record.error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        records.append(record)
        progress.write(
            "done " + json.dumps({"op": record.seconds, "queries": record.queries})
        )
    return records, time.perf_counter() - started, setups


def check(workload: Workload, records: list[OpRecord]) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` of ``records`` against references."""
    references = workload.references
    attempted = failed = 0
    problems: list[str] = []
    for index, record in enumerate(records):
        attempted += record.weight
        if record.error is not None:
            failed += record.weight
            problems.append(f"op {index}: {record.error}")
            continue
        wrong = [(slot, key) for slot, key, result in record.answers
                 if key not in references or not same(canonical(result), references[key])]
        if wrong:
            failed += len({slot for slot, _ in wrong})
            problems.append(f"op {index}: answers differ from the reference: {wrong[:3]}")
    return attempted, failed, problems


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(
    setups: list[float], records: list[OpRecord], wall: float, resets: list[float]
) -> tuple[dict, dict]:
    """End-to-end metrics of a timed loop of ``wall`` seconds, of which
    the fresh setups ``resets`` took part."""
    done = [r for r in records if r.error is None]
    queries = [q for r in done for q in r.queries]
    ops = [r.seconds for r in done]
    metrics: dict[str, float] = {"setup_s": stats.median(setups + resets)}
    details: dict[str, Any] = {"setup_s": setups + resets, "loop_seconds": wall}
    for prefix, samples in (("query", queries), ("op", ops)):
        if samples:
            t = stats.tail(samples)
            metrics[f"{prefix}_p50_ms"] = 1000.0 * stats.median(samples)
            metrics[f"{prefix}_tail_ms"] = 1000.0 * t.value
            details[f"{prefix}_tail"] = {
                "percentile": t.percentile, "samples": t.samples, "beyond": t.beyond,
            }
    busy = wall - sum(resets)
    metrics["query_qps"] = sum(r.answered for r in done) / busy if busy > 0 else 0.0
    return metrics, details


# ----------------------------------------------------------------------
# per-layer metrics of a traced pass
# ----------------------------------------------------------------------
_ENGINE_ALGORITHMS = ("TopK", "TopKDAG", "TopKDH", "TopKDAGDH")
_ENGINE_COUNTERS = (
    "batches", "pairs_created", "deltas_applied", "delta_flushes", "scc_merges",
    "groups_finalized",
)
_HIT_ARTIFACTS = ("bucket", "candidates", "sim", "bounds", "paircsr", "context", "result")


def _counters(state: dict) -> dict:
    views = state.get("views", ())
    return {
        "cache": state["session"].cache_stats(),
        "views": [(v.stats.full_recomputes, v.stats.pairs_touched) for v in views],
    }


def _engine_results(records: list[OpRecord]):
    for record in records:
        for _, _, result in record.answers:
            for res in result.values() if isinstance(result, dict) else (result,):
                if res.algorithm in _ENGINE_ALGORITHMS:
                    yield res


def per_layer(
    tracer: LayerTracer, records: list[OpRecord], before: dict, after: dict, overhead: float
) -> dict[str, float]:
    totals = tracer.totals()

    def seconds(span: str, metric: str) -> float:
        phases = ("setup", "loop") if metric in spec.SETUP_SCOPED else ("loop",)
        return sum(totals.get((span, phase), (0.0, 0))[0] for phase in phases)

    def calls(span: str, metric: str) -> int:
        phases = ("setup", "loop") if metric in spec.SETUP_SCOPED else ("loop",)
        return sum(totals.get((span, phase), (0.0, 0))[1] for phase in phases)

    m: dict[str, float] = {}
    for metric, span in (
        ("graph.load_s", "graph.load"),
        ("graph.snapshot_s", "graph.snapshot"),
        ("graph.apply_delta_s", "graph.apply_delta"),
        ("simulation.candidates_s", "simulation.candidates"),
        ("simulation.fixpoint_s", "simulation.fixpoint"),
        ("index.bounds_s", "index.bounds"),
        ("topk.engine_s", "topk.engine"),
        ("topk.engine_init_s", "topk.engine_init"),
        ("topk.pair_csr_s", "topk.pair_csr"),
        ("ranking.score_s", "ranking.score"),
        ("diversify.maxdisp_s", "diversify.maxdisp"),
        ("session.dispatch_s", "session.dispatch"),
        ("session.refresh_s", "session.refresh"),
        ("incremental.view_apply_s", "incremental.view_apply"),
        ("incremental.view_read_s", "incremental.view_read"),
    ):
        m[metric] = seconds(span, metric)
    for metric, span in (
        ("graph.snapshot_calls", "graph.snapshot"),
        ("simulation.candidates_builds", "simulation.candidates"),
        ("simulation.fixpoint_builds", "simulation.fixpoint"),
        ("index.bounds_builds", "index.bounds"),
        ("topk.pair_csr_builds", "topk.pair_csr"),
        ("ranking.score_calls", "ranking.score"),
        ("incremental.view_apply_calls", "incremental.view_apply"),
    ):
        m[metric] = calls(span, metric)

    engine = list(_engine_results(records))
    for counter in _ENGINE_COUNTERS:
        m[f"topk.{counter}"] = sum(getattr(res.stats, counter) for res in engine)
    inspected = sum(res.stats.inspected_matches for res in engine)
    m["topk.useful_ratio"] = sum(len(res.matches) for res in engine) / inspected if inspected else 0.0

    cache_before, cache_after = before["cache"], after["cache"]
    delta = {key: cache_after[key] - cache_before[key] for key in cache_after}
    for artifact in _HIT_ARTIFACTS:
        hits, builds = delta[f"{artifact}_hits"], delta[f"{artifact}_builds"]
        m[f"session.hit_ratio.{artifact}"] = hits / (hits + builds) if hits + builds else 0.0
    m["session.cache_entries"] = (
        sum(cache_after[f"{artifact}_builds"] for artifact in _HIT_ARTIFACTS)
        - cache_after["artifacts_dropped"]
    )
    m["session.artifacts_survived"] = delta["artifacts_survived"]
    m["session.artifacts_dropped"] = delta["artifacts_dropped"]

    views = list(zip(after["views"], before["views"]))
    m["incremental.full_recomputes"] = sum(a[0] - b[0] for a, b in views)
    m["incremental.pairs_touched"] = sum(a[1] - b[1] for a, b in views)
    m["obs.trace_overhead"] = overhead
    return m


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _graph_sizes(state: dict) -> dict:
    graph = state["graph"]
    return {"nodes": graph.num_nodes, "edges": graph.num_edges}


def run_untraced(workload: Workload, seconds: float, progress: Progress) -> dict:
    setups: list[float] = []
    state: dict = {}
    while len(setups) < spec.SETUP_REPEATS or sum(setups) < spec.SETUP_SECONDS:
        if state:
            workload.teardown(state)
            gc.collect()
        started = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - started)
        progress.write(f"setup {setups[-1]}")
    wrappers = installed_wrappers()
    sizes = _graph_sizes(state)
    ops = workload.ops()
    records, wall, resets = run_loop(workload, state, ops, seconds, progress)
    peak = _peak_rss_mb()
    workload.teardown(state)
    metrics, details = _end_to_end(setups, records, wall, resets)
    metrics["peak_rss_mb"] = peak
    details.update(graph=sizes, wrappers_installed=wrappers, replays=1 + len(resets))
    attempted, failed, problems = check(workload, records)
    if wrappers:
        problems.append(f"untraced run found benchmark wrappers: {wrappers}")
    return {"metrics": metrics, "details": details, "attempted": attempted,
            "failed": failed, "problems": problems}


def run_traced(workload: Workload, name: str, seconds: float, progress: Progress,
               trace_file: Path) -> dict:
    ops = workload.ops()[: spec.TRACED_OPS[name]]
    # Untraced passes before and after the traced one, so warm-up and
    # drift in the process do not read as tracing overhead.
    state = workload.setup()
    plain, plain_wall, _ = run_loop(workload, state, ops, 3 * seconds, progress)
    ops = ops[: len(plain)]
    workload.teardown(state)
    gc.collect()
    tracer = LayerTracer()
    tracer.install()
    try:
        state = workload.setup()
        sizes = _graph_sizes(state)
        before = _counters(state)
        tracer.phase = "loop"
        traced, traced_wall, _ = run_loop(workload, state, ops, None, progress)
        after = _counters(state)
        tracer.phase = "teardown"
        workload.teardown(state)
    finally:
        tracer.uninstall()
    leftover = installed_wrappers()
    gc.collect()
    state = workload.setup()
    again, again_wall, _ = run_loop(workload, state, ops, None, progress)
    workload.teardown(state)
    plain_wall = (plain_wall + again_wall) / 2
    overhead = traced_wall / plain_wall - 1.0 if plain_wall > 0 else 0.0
    metrics = per_layer(tracer, traced, before, after, overhead)
    tracer.write(trace_file)
    attempted, failed, problems = check(workload, plain + traced + again)
    if leftover:
        problems.append(f"wrappers left installed: {leftover}")
        failed = max(failed, 1)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems,
            "details": {"graph": sizes, "traced_ops": len(traced),
                        "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                        "spans": len(tracer.spans)}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--plan", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--progress", required=True, type=Path)
    parser.add_argument("--trace-file", required=True, type=Path)
    args = parser.parse_args(argv)

    import numpy

    signal.signal(signal.SIGALRM, _on_alarm)
    progress = Progress(args.progress)
    try:
        workload = WORKLOADS[args.workload](args.plan)
        if args.trace:
            outcome = run_traced(workload, args.workload, args.seconds, progress,
                                 args.trace_file)
        else:
            outcome = run_untraced(workload, args.seconds, progress)
    finally:
        progress.close()
    outcome["details"]["numpy"] = numpy.__version__
    args.result.write_text(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
