"""What the benchmark measures: workloads, metrics, and why.

This module is the single source of the metric names and units that
``BENCHMARK.json`` lists; ``test_perfbench.py`` checks the two agree.
Each per-layer metric carries the end-to-end metric it should move and
on which workload, written down before any change is measured against
it (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds one run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 30

#: Setup is repeated at least this many times per run, and until the
#: setups have taken SETUP_SECONDS; ``setup_s`` is the median.  A cheap
#: setup (0.2 s on dag-diversified) spread by 45% between runs over 3
#: samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0

#: Per-operation wall-clock limit inside the workload process; an
#: operation that exceeds it is recorded as failed.
OP_TIMEOUT_S = 60.0

#: Operations of each traced run.  A traced run replays this fixed
#: prefix of the seed's plan once untraced and once traced, so per-layer
#: totals compare across commits on identical work.
TRACED_OPS = {
    "cyclic-read": 36,
    "dag-diversified": 27,
    "write-stream": 7,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = (
    Workload(
        "cyclic-read",
        "warm cyclic templates on the YouTube surrogate, fresh (template, k) "
        "per query: the topk inner loops do the work, simulation/index/ranking none",
    ),
    Workload(
        "dag-diversified",
        "distinct DAG templates on the citation surrogate, each asked as TopKDH, "
        "TopKDiv and top-k: ranking scoring and cold simulation/index builds dominate",
    ),
    Workload(
        "write-stream",
        "update bursts on a YouTube twin with snapshot patching, standing views and "
        "two ad-hoc cyclic reads per burst: the only workload that writes",
    ),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("query_p50_ms", "ms", "lower", 0.25),
    EndToEnd("query_tail_ms", "ms", "lower", 0.25),
    EndToEnd("query_qps", "1/s", "higher", 0.25),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25),
    EndToEnd("op_tail_ms", "ms", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.2),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str


def _layer(name: str, unit: str, moves: str, better: str = "lower") -> PerLayer:
    return PerLayer(name, unit, better, moves)


PER_LAYER = (
    # graph: io, CSR snapshot, patching
    _layer("graph.load_s", "s", "setup_s on every workload"),
    _layer("graph.snapshot_s", "s", "setup_s on every workload; op_* on write-stream"),
    _layer("graph.snapshot_calls", "count", "setup_s on every workload"),
    _layer("graph.apply_delta_s", "s", "op_* on write-stream"),
    # simulation: candidates, fixpoint; index
    _layer("simulation.candidates_s", "s",
           "query_* on dag-diversified and write-stream; ~0 on cyclic-read"),
    _layer("simulation.candidates_builds", "count",
           "query_* on dag-diversified and write-stream; ~0 on cyclic-read"),
    _layer("simulation.fixpoint_s", "s",
           "query_* on dag-diversified and write-stream; ~0 on cyclic-read"),
    _layer("simulation.fixpoint_builds", "count",
           "query_* on dag-diversified and write-stream; ~0 on cyclic-read"),
    _layer("index.bounds_s", "s",
           "query_* on dag-diversified and write-stream; ~0 on cyclic-read"),
    _layer("index.bounds_builds", "count",
           "query_* on dag-diversified and write-stream; ~0 on cyclic-read"),
    # topk: engine, pair-CSR, EngineStats counters
    _layer("topk.engine_s", "s", "query_* on cyclic-read"),
    _layer("topk.engine_init_s", "s", "query_* on cyclic-read"),
    _layer("topk.pair_csr_s", "s", "query_* on cyclic-read"),
    _layer("topk.pair_csr_builds", "count", "query_* on cyclic-read"),
    _layer("topk.batches", "count", "query_* on cyclic-read"),
    _layer("topk.pairs_created", "count", "query_* on cyclic-read"),
    _layer("topk.deltas_applied", "count", "query_* on cyclic-read"),
    _layer("topk.delta_flushes", "count", "query_* on cyclic-read"),
    _layer("topk.scc_merges", "count", "query_* on cyclic-read; 0 on dag-diversified"),
    _layer("topk.groups_finalized", "count", "query_* on cyclic-read"),
    _layer("topk.useful_ratio", "ratio", "query_* on cyclic-read", better="higher"),
    # ranking + diversify
    _layer("ranking.score_s", "s", "query_tail_ms on dag-diversified; 0 on cyclic-read"),
    _layer("ranking.score_calls", "count",
           "query_tail_ms on dag-diversified; 0 on cyclic-read"),
    _layer("diversify.maxdisp_s", "s",
           "query_tail_ms on dag-diversified; 0 on cyclic-read"),
    # session: cache, run_batch dispatch, refresh
    _layer("session.dispatch_s", "s", "query_p50_ms on every workload"),
    *(
        _layer(f"session.hit_ratio.{artifact}", "ratio",
               "query_* on cyclic-read (~1) and dag-diversified (~0)", better="higher")
        for artifact in (
            "bucket", "candidates", "sim", "bounds", "paircsr", "context", "result",
        )
    ),
    _layer("session.cache_entries", "count", "peak_rss_mb on dag-diversified"),
    _layer("session.refresh_s", "s", "op_* on write-stream"),
    _layer("session.artifacts_survived", "count", "op_* on write-stream", better="higher"),
    _layer("session.artifacts_dropped", "count", "op_* on write-stream"),
    # incremental: MatchView
    _layer("incremental.view_apply_s", "s", "op_* on write-stream"),
    _layer("incremental.view_apply_calls", "count", "op_* on write-stream"),
    _layer("incremental.view_read_s", "s", "op_* on write-stream"),
    _layer("incremental.full_recomputes", "count", "op_* on write-stream"),
    _layer("incremental.pairs_touched", "count", "op_* on write-stream"),
    # obs
    _layer("obs.trace_overhead", "ratio",
           "none: traced / untraced wall time - 1 of the same operations"),
)

#: Per-layer metrics that cover the traced setup as well as the loop;
#: every other per-layer metric covers the traced loop only.
SETUP_SCOPED = frozenset(
    {"graph.load_s", "graph.snapshot_s", "graph.snapshot_calls"}
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this module describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
