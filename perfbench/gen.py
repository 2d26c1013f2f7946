"""Input generation: graphs, templates, plans, delta streams, references.

Run as ``python3 -m perfbench.gen ROOT_CACHE universe`` or
``python3 -m perfbench.gen ROOT_CACHE seed WORKLOAD SEED`` (``run.py``
does this; generation never runs inside a timed workload process).

Two layers of inputs:

* the **universe** (seed-independent, built once per checkout): the
  YouTube and citation surrogate graphs as JSON, a fixed pool of
  extracted cyclic and DAG templates, the reference answer of every
  (template, mode, k) a plan can ask, computed on the dict reference arm
  (``ExecutionConfig(use_csr=False)``) over a graph loaded from the same
  JSON, and the write stream with the answers of a wholesale-refresh
  twin replaying it.  Extracting templates and running the reference
  arm is the expensive part, so it is done once and shared by every
  seed.
* the **plan** of one (workload, seed): the order in which the
  universe's queries are asked, and for write-stream the reads between
  bursts.  What is asked in each block (a round of every cyclic template,
  a block of three DAG templates, a write cycle) is the same for every
  seed; the seed only shuffles the order inside a block.
  Per-seed draws of the k values, of the mode order and of the update
  stream moved the medians between seeds by more than the benchmark's
  bounds, so they are fixed.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

UNIVERSE_DIR = "universe-v3"

#: Cyclic template pool: (shape, extraction seed) on the YouTube surrogate.
CYCLIC_TEMPLATES = (
    ((4, 8), 0), ((4, 8), 1),
    ((5, 10), 0), ((5, 10), 1),
    ((6, 12), 0), ((6, 12), 1), ((6, 12), 2),
)
#: Templates also asked as multi-output queries (outputs: root and last node).
MULTI_OF = (2, 3)
#: k values of the cyclic plans; each (template, k) is asked at most once.
CYCLIC_KS = tuple(range(3, 27))
#: k of the setup warm-up queries (outside CYCLIC_KS, so never repeated).
WARM_K = 2
MIN_MATCHES = 40
EXTRACT_TRIES = 20

DAG_SHAPES = ((4, 6), (6, 9), (8, 12))
#: Distinct DAG templates of the dag-diversified plan, each session's
#: flood.  With more, a faster run reached further into the plan, so the
#: session cache, the peak RSS and the query mix grew with the speed of
#: the machine; 30 make one replay about 18 s at 5 queries per second.
DAG_TEMPLATES = 30
DAG_K = 10
DAG_LAM = 0.5
#: Modes of each dag-diversified template, asked in this order: the
#: first one pays the template's cold simulation and index builds.
DAG_MODES = ("dh", "div", "topk")

#: write-stream: standing views, burst size, ad-hoc reads per cycle.
WRITE_VIEWS = [{"t": f"c{i}", "k": 10} for i in (0, 2, 4)]
BURST_OPS = 16
READS_PER_CYCLE = 2
#: Cyclic templates of the ad-hoc reads.  Reads of templates 4 and 5
#: took 3-5 times as long as the rest, so the few samples of a run split
#: into two clusters and the tail percentile jumped between them.
READ_TEMPLATES = (0, 1, 2, 3, 6)
#: Cycles of one write-stream episode; a run replays the episode from a
#: fresh setup until its time is up.  Reads slow down as the patched
#: graph drifts, so a stream run for as long as time allowed made the
#: medians depend on how fast the machine was.  Ten cycles of two reads
#: ask every read template four times.
EPISODE_CYCLES = 10
#: Seed of the write stream, the same for every plan: streams drawn per
#: seed moved the median write latency by up to 40% between seeds.
STREAM_SEED = 7
#: Universe files of the write stream and of its twin's answers.
STREAM_FILE = "stream.jsonl"
STREAM_REFERENCES = "stream-references.json"


def _log(message: str) -> None:
    print(f"[perfbench.gen] {message}", file=sys.stderr, flush=True)


def _write_json(path: Path, payload) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)


# ----------------------------------------------------------------------
# reference answers (dict arm), fanned out over two spawned processes
# ----------------------------------------------------------------------
_GRAPHS: dict = {}


def query_spec(pattern, mode: str, k: int):
    """The :class:`QuerySpec` of one plan entry's ``mode``."""
    from repro.session import QuerySpec

    if mode == "topk":
        return QuerySpec(pattern, k=k)
    if mode == "multi":
        return QuerySpec(pattern, k=k, mode="multi")
    if mode == "dh":
        return QuerySpec(pattern, k=k, mode="diversified", lam=DAG_LAM)
    if mode == "div":
        return QuerySpec(pattern, k=k, mode="diversified", method="approx", lam=DAG_LAM)
    raise ValueError(f"unknown plan mode {mode!r}")


def ref_key(template: str, mode: str, k: int) -> str:
    return f"{template}|{mode}|{k}"


def _reference_task(graph_path: str, template: str, doc: dict, queries: list) -> dict:
    """Answers of one template's queries on the dict reference arm."""
    from repro.graph import io as graph_io
    from repro.patterns.io import pattern_from_dict
    from repro.session import ExecutionConfig, MatchSession

    from perfbench.answers import canonical

    if graph_path not in _GRAPHS:
        _GRAPHS[graph_path] = graph_io.load_json(graph_path)
    pattern = pattern_from_dict(doc)
    answers = {}
    with MatchSession(_GRAPHS[graph_path], config=ExecutionConfig(use_csr=False)) as session:
        for mode, k in queries:
            result = session.run_batch([query_spec(pattern, mode, k)])[0]
            answers[ref_key(template, mode, k)] = canonical(result)
    return answers


def _references(tasks: list) -> dict:
    answers: dict = {}
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
        futures = [pool.submit(_reference_task, *task) for task in tasks]
        for future in futures:
            answers.update(future.result())
    return answers


# ----------------------------------------------------------------------
# the universe
# ----------------------------------------------------------------------
def build_universe(cache: Path) -> Path:
    """Build (once) and return the universe directory."""
    target = cache / UNIVERSE_DIR
    if (target / "done").exists():
        return target
    from repro.datasets.citation import citation_graph
    from repro.datasets.youtube import youtube_graph
    from repro.graph import io as graph_io
    from repro.graph.delta import save_delta_file
    from repro.patterns.io import pattern_from_dict, pattern_to_dict
    from repro.session.cache import pattern_structure_key
    from repro.workloads.pattern_gen import random_cyclic_pattern, random_dag_pattern
    from repro.workloads.update_stream import random_update_stream

    started = time.perf_counter()
    target.mkdir(parents=True, exist_ok=True)
    youtube_path, citation_path = target / "youtube.json", target / "citation.json"
    graph_io.save_json(youtube_graph(1.0), youtube_path)
    graph_io.save_json(citation_graph(1.0), citation_path)
    youtube = graph_io.load_json(youtube_path)
    citation = graph_io.load_json(citation_path)

    templates: dict[str, dict] = {}
    tasks: list = []
    for index, (shape, seed) in enumerate(CYCLIC_TEMPLATES):
        pattern = random_cyclic_pattern(
            youtube, *shape, seed=seed, min_matches=MIN_MATCHES, max_tries=EXTRACT_TRIES
        )
        templates[f"c{index}"] = pattern_to_dict(pattern)
        # Chunked: one heavy template must not serialise the reference run.
        for chunk in range(0, len(CYCLIC_KS), 6):
            tasks.append((str(youtube_path), f"c{index}", templates[f"c{index}"],
                          [("topk", k) for k in CYCLIC_KS[chunk:chunk + 6]]))
        if index in MULTI_OF:
            pattern.set_output(0, pattern.num_nodes - 1)
            templates[f"m{index}"] = pattern_to_dict(pattern)
            tasks.append((str(youtube_path), f"m{index}", templates[f"m{index}"],
                          [("multi", k) for k in CYCLIC_KS]))

    seen: set = set()
    dag: list = []
    extraction_seed = 0
    while len(dag) < DAG_TEMPLATES:
        shape = DAG_SHAPES[len(dag) % len(DAG_SHAPES)]
        pattern = random_dag_pattern(
            citation, *shape, seed=extraction_seed,
            min_matches=MIN_MATCHES, max_tries=EXTRACT_TRIES,
        )
        extraction_seed += 1
        key = pattern_structure_key(pattern)
        if key not in seen:  # a flood never repeats a structure
            seen.add(key)
            dag.append(pattern)
    for index, pattern in enumerate(dag):
        templates[f"d{index}"] = pattern_to_dict(pattern)
        tasks.append((str(citation_path), f"d{index}", templates[f"d{index}"],
                      [(mode, DAG_K) for mode in DAG_MODES]))
    _log(f"{len(templates)} templates in {time.perf_counter() - started:.1f}s; "
         f"computing {sum(len(t[3]) for t in tasks)} reference answers")
    references = _references(tasks)
    stream = random_update_stream(youtube, EPISODE_CYCLES * BURST_OPS, seed=STREAM_SEED)
    save_delta_file(stream, target / STREAM_FILE)
    cyclic = {name: pattern_from_dict(doc) for name, doc in templates.items()
              if name.startswith("c")}
    _write_json(target / STREAM_REFERENCES,
                _write_stream_references(youtube_path, cyclic, stream))
    _write_json(target / "templates.json", templates)
    _write_json(target / "references.json", references)
    (target / "done").write_text(f"{time.perf_counter() - started:.1f}\n")
    _log(f"universe built in {time.perf_counter() - started:.1f}s")
    return target


# ----------------------------------------------------------------------
# per-seed plans
# ----------------------------------------------------------------------
def _cyclic_ks(name: str) -> list[int]:
    """The k sequence of one cyclic template: no k twice, the same for
    every seed."""
    return random.Random(f"ks/{name}").sample(CYCLIC_KS, len(CYCLIC_KS))


def _cyclic_rounds(rng: random.Random, rounds: int) -> list[list[dict]]:
    """Rounds asking every cyclic template (and multi variant) once each,
    with a k that the template never gets twice, in a seed-shuffled
    order."""
    names = [f"c{i}" for i in range(len(CYCLIC_TEMPLATES))] + [f"m{i}" for i in MULTI_OF]
    ks = {name: _cyclic_ks(name) for name in names}
    plan = []
    for r in range(rounds):
        round_ = [
            {"t": name, "mode": "multi" if name.startswith("m") else "topk", "k": ks[name][r],
             "block": r}
            for name in names
        ]
        rng.shuffle(round_)
        plan.append(round_)
    return plan


def _write_stream_episode() -> list[dict]:
    """The write-stream episode: each cycle's burst and two reads.

    The reads go round the read templates, each at the k of its round in
    the cyclic-read sequence.
    """
    names = [f"c{i}" for i in READ_TEMPLATES]
    episode = []
    for cycle in range(EPISODE_CYCLES):
        slots = range(READS_PER_CYCLE * cycle, READS_PER_CYCLE * (cycle + 1))
        reads = [{"t": names[s % len(names)], "mode": "topk",
                  "k": _cyclic_ks(names[s % len(names)])[s // len(names)]} for s in slots]
        episode.append({"burst": [cycle * BURST_OPS, (cycle + 1) * BURST_OPS], "reads": reads})
    return episode


def _write_stream_references(graph_path: Path, patterns: dict, deltas: list) -> dict:
    """Answers of a wholesale-refresh twin replaying the episode.

    The twin runs the default config (no snapshot patching, every
    refresh drops every artifact) and answers the views' reads with
    find-all ``baseline`` queries.  The answers do not depend on the
    order of a cycle's reads, so every seed shares them.
    """
    from repro.graph import io as graph_io
    from repro.session import MatchSession, QuerySpec

    from perfbench.answers import canonical

    graph = graph_io.load_json(graph_path)
    views = [(patterns[v["t"]], v["k"]) for v in WRITE_VIEWS]
    answers: dict = {}
    with MatchSession(graph, on_mutation="refresh") as twin:
        for cycle, op in enumerate(_write_stream_episode()):
            lo, hi = op["burst"]
            graph.apply_delta(deltas[lo:hi])
            twin.refresh()
            for i, (pattern, k) in enumerate(views):
                result = twin.run_batch([QuerySpec(pattern, k=k, mode="baseline")])[0]
                answers[f"view|{cycle}|{i}"] = canonical(result)
            for query in op["reads"]:
                result = twin.run_batch([query_spec(patterns[query["t"]], "topk", query["k"])])[0]
                answers[f"read|{cycle}|{query['t']}|{query['k']}"] = canonical(result)
    return answers


def build_plan(cache: Path, workload: str, seed: int) -> Path:
    """Build (once) and return the plan directory of ``(workload, seed)``."""
    universe = build_universe(cache)
    target = cache / workload / f"seed-{seed}"
    if (target / "plan.json").exists():
        return target
    target.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    plan: dict = {"workload": workload, "seed": seed, "universe": str(universe.name)}
    if workload == "cyclic-read":
        plan["graph"] = "youtube.json"
        plan["warm"] = [{"t": f"c{i}", "mode": "topk", "k": WARM_K}
                        for i in range(len(CYCLIC_TEMPLATES))]
        plan["ops"] = [q for round_ in _cyclic_rounds(rng, len(CYCLIC_KS)) for q in round_]
    elif workload == "dag-diversified":
        plan["graph"] = "citation.json"
        ops = []
        for block in range(0, DAG_TEMPLATES, len(DAG_SHAPES)):
            order = list(range(block, block + len(DAG_SHAPES)))
            rng.shuffle(order)
            ops.extend({"t": f"d{i}", "mode": mode, "k": DAG_K, "block": block}
                       for i in order for mode in DAG_MODES)
        plan["ops"] = ops
    elif workload == "write-stream":
        plan["graph"] = "youtube.json"
        plan["views"] = WRITE_VIEWS
        plan["warm"] = [{"t": f"c{i}", "mode": "topk", "k": WARM_K} for i in READ_TEMPLATES]
        plan["ops"] = _write_stream_episode()
        for op in plan["ops"]:
            rng.shuffle(op["reads"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_json(target / "plan.json", plan)
    return target


def main(argv: list[str]) -> int:
    cache = Path(argv[0])
    if argv[1] == "universe":
        build_universe(cache)
    elif argv[1] == "seed":
        build_plan(cache, argv[2], int(argv[3]))
    else:
        raise SystemExit(f"unknown command {argv[1]!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
