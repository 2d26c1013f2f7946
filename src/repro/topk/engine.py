"""The early-termination propagation engine (paper Sections 4.1–4.2).

One engine implements both ``TopKDAG`` (all pattern SCCs trivial) and
``TopK`` (cyclic patterns): the DAG algorithm is simply the special case
in which the SCC fixpoint machinery never runs.

How the paper's description maps onto this implementation
----------------------------------------------------------
Every candidate pair ``(u, v)`` carries the paper's vector ``v.T``:

* the Boolean formula ``v.bf`` is realised *incrementally* as counters —
  ``unsat`` (external pattern edges with no confirmed child yet) and a
  per-edge confirmed-child count.  A trivial-SCC pair is confirmed exactly
  when every edge has a confirmed child, which is when the formula would
  evaluate to true;
* ``v.R`` is the growing partial relevant set; deltas propagate to
  confirmed ancestors through a worklist (the ``AcyclicProp`` of Fig. 2);
* ``v.l = |v.R|`` once confirmed; ``v.h`` starts at the index bound
  ``C_u(v)`` and drops to ``|v.R|`` when the pair is *finalised* (its
  reachable match region can no longer change — the paper's "none of the
  children's h changes further");
* nontrivial pattern SCCs are handled by an incremental *confirmation
  fixpoint* (the ``SccProcess`` of Fig. 3): a member pair is confirmed
  when it belongs to the greatest set of activated pairs whose in-SCC
  edges are supported inside the set and whose external edges are
  supported by confirmed matches.  Pairs that fall out are retried when
  more external matches arrive — the counterpart of Fig. 3's formula
  restoration (line 14), so no future match is ever rejected.

Relevant-set groups
-------------------
Pairs on a common pair-cycle have *identical* relevant sets (mutual
reachability), so the engine keeps one shared set per group of mutually
reachable confirmed pairs (union-find).  Deltas propagate between groups,
not pairs — without this, relevance propagation inside a large data-graph
SCC floods quadratically (the naive per-pair version is ~500× slower on
the YouTube surrogate).

Packed relevant sets and batched deltas (the ``rset_bitset`` fast path)
-----------------------------------------------------------------------
Group relevant sets come in two representations, toggled by
``rset_bitset`` (defaulting to follow ``use_csr``, so the dict path stays
the reference oracle):

* the reference representation — one Python ``set`` per group root,
  deltas drained one posting at a time through ``_delta_queue``;
* the packed representation — relevant-set members interned into a dense
  bit space (:class:`repro.graph.csr.NodeInterner`), each group's rset a
  big-int bitmask with its cardinality maintained by popcount, so
  ``lower_value`` / ``upper_value`` read ``|R|`` in O(1).  Deltas are
  *coalesced per target group root* within a drain cycle: a posting ORs
  into the root's pending mask (``_pending_bits``); a drain step unions
  whole words and propagates only the changed bits to parent groups.

Every group root carries a monotone version (bumped on each rset
change), so consumers — the frozen views handed out by
``partial_relevant``, relevance values under generalised functions, the
termination check's ``l_min`` — cache derived values keyed on
``(root, version)`` instead of recomputing per read.

Termination is Proposition 3: stop once the smallest lower bound inside
the maintained top-k set dominates the largest upper bound outside it
(and every query node has at least one confirmed match, which is the
totality condition ``G ⊨ Q``; for a "root" output node this is implied).

Worst-case complexity matches the paper: ``O(|Q||G|)`` initialisation plus
``O(|V|(|V| + |E|))`` propagation.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING

from repro.errors import MatchingError
from repro.graph import csr
from repro.graph.algorithms import strongly_connected_components
from repro.graph.digraph import Graph
from repro.index.label_index import BoundIndex, SimBoundIndex
from repro.obs import current_tracer, trace
from repro.patterns.pattern import Pattern
from repro.ranking.context import RankingContext
from repro.ranking.relevance import CardinalityRelevance, RelevanceFunction
from repro.session.config import ExecutionConfig
from repro.simulation.candidates import CandidateSets, compute_candidates
from repro.simulation.match import SimulationResult
from repro.topk.policies import SelectionPolicy
from repro.topk.result import EngineStats, TopKResult
from repro.topk.selection import (
    GreedySelection,
    SelectionStrategy,
    default_batch_size,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.cache import SessionCache

PENDING = 0
CONFIRMED = 1
DEAD = 2

_EMPTY_SET: frozenset[int] = frozenset()


class TopKEngine:
    """Shared engine behind ``TopKDAG``, ``TopK``, ``TopKDH``, ``TopKDAGDH``."""

    def __init__(
        self,
        pattern: Pattern,
        graph: Graph,
        k: int,
        policy: SelectionPolicy,
        strategy: SelectionStrategy | None = None,
        bound_strategy: str = "sim",
        batch_size: int | None = None,
        candidates: CandidateSets | None = None,
        relevance_fn: RelevanceFunction | None = None,
        algorithm_name: str = "TopK",
        presimulate: bool = True,
        output_node: int | None = None,
        use_csr: bool | None = None,
        scc_incremental: bool | None = None,
        rset_bitset: bool | None = None,
        config: "ExecutionConfig | None" = None,
        cache: "SessionCache | None" = None,
    ) -> None:
        if k < 1:
            raise MatchingError(f"k must be positive; got {k}")
        pattern.validate()
        # Execution configuration: one validated object instead of the
        # loose toggle kwargs.  The legacy kwargs remain accepted (the
        # adapter builds the equivalent config); an explicit ``config``
        # wins outright, and ExecutionConfig.resolved() is the single
        # home of the toggle-default chain (scc_incremental/rset_bitset
        # follow use_csr, which follows optimized).
        cfg = ExecutionConfig.adapt(
            config,
            use_csr=use_csr,
            scc_incremental=scc_incremental,
            rset_bitset=rset_bitset,
            bound_strategy=bound_strategy,
            batch_size=batch_size,
            presimulate=presimulate,
        ).resolved()
        self.config = cfg
        self.pattern = pattern
        self.graph = graph
        self.k = k
        self.policy = policy
        self.strategy = strategy if strategy is not None else GreedySelection()
        self.batch_size = cfg.batch_size
        self.algorithm_name = algorithm_name
        # Multi-output patterns (Section 2.2 extension): the engine ranks
        # one output node per run; the facade fans out over all of them.
        self.uo = output_node if output_node is not None else pattern.output_node
        self.analysis = pattern.analysis
        self.presimulate = cfg.presimulate and cfg.bound_strategy == "sim"
        self.stats = EngineStats()
        # Ambient tracer, resolved once: inner-loop annotation sites
        # (SCC merge/settle events) guard on this instead of paying a
        # contextvar read per event.
        self._tracer = current_tracer()
        # External cache provider (a session's SessionCache): serves the
        # simulation prefix, bound index and pair-CSRs across runs.  Only
        # consulted when the candidates come from the shared store too —
        # caller-supplied candidates would break the shared pid layout.
        self._session_cache = cache if candidates is None else None
        # The CSR fast path (default on): initialisation scans, bound
        # construction and pid lookups run over the graph's compiled
        # snapshot; ``use_csr=False`` (or resolved off) forces the dict
        # reference path.
        if cfg.use_csr:
            # Either form counts as a hit: a patched overlay serves the
            # same arrays a flat snapshot would.
            if csr.has_cached_snapshot(graph):
                self.stats.snapshot_hits += 1
            else:
                self.stats.snapshot_builds += 1
            self._snapshot = graph.snapshot()
        else:
            self._snapshot = None
        self.use_csr = self._snapshot is not None
        self.scc_incremental = cfg.scc_incremental
        self.rset_bitset = cfg.rset_bitset
        with trace("engine.candidates", algorithm=algorithm_name):
            if candidates is not None:
                self.candidates = candidates
            elif self._session_cache is not None:
                self.candidates, _ = self._session_cache.candidates(
                    pattern, self.use_csr
                )
            else:
                self.candidates = compute_candidates(
                    pattern, graph, optimized=self.use_csr
                )
        self.relevance_fn = relevance_fn if relevance_fn is not None else CardinalityRelevance()
        self._fast_cardinality = isinstance(self.relevance_fn, CardinalityRelevance)

        self._infeasible = self.candidates.any_empty()
        if not self._infeasible and self.presimulate:
            # Run the simulation fixpoint up front (the same O(|Q||G|)
            # work as the paper's formula initialisation).  Candidates
            # shrink to the true match sets and the bound index becomes
            # match-aware — the ranking/propagation phase, which is the
            # expensive part the paper terminates early, still runs
            # incrementally below.
            with trace("engine.presimulate", algorithm=algorithm_name):
                if self._session_cache is not None:
                    _, narrowed, hit = self._session_cache.simulation(
                        pattern, self.use_csr
                    )
                    if hit:
                        self.stats.sim_hits += 1
                    else:
                        self.stats.sim_builds += 1
                    if narrowed is None:
                        self._infeasible = True
                    else:
                        self.candidates = narrowed
                else:
                    from repro.simulation.match import maximal_simulation

                    simulation = maximal_simulation(
                        pattern, graph, self.candidates, optimized=self.use_csr
                    )
                    self.stats.sim_builds += 1
                    if not simulation.total:
                        self._infeasible = True
                    else:
                        self.candidates = CandidateSets(
                            lists=[sorted(s) for s in simulation.sim],
                            sets=[set(s) for s in simulation.sim],
                        )
        if not self._infeasible:
            with trace("engine.bounds", algorithm=algorithm_name):
                if self.presimulate:
                    if self._session_cache is not None:
                        self._bounds, hit = self._session_cache.sim_bounds(
                            pattern, self.use_csr, self.candidates.sets,
                            self._snapshot,
                        )
                        if hit:
                            self.stats.bounds_hits += 1
                        else:
                            self.stats.bounds_builds += 1
                    else:
                        self._bounds = SimBoundIndex(
                            pattern,
                            graph,
                            [set(s) for s in self.candidates.sets],
                            snapshot=self._snapshot,
                        )
                        self.stats.bounds_builds += 1
                else:
                    bound_strategy = cfg.bound_strategy
                    if bound_strategy == "sim":
                        bound_strategy = "hop"
                    self._bounds = BoundIndex(
                        pattern, graph, self.candidates, bound_strategy
                    )
                    self.stats.bounds_builds += 1
            self._context: RankingContext | None = None
            # Confirmed matches per query node (drives totality, feeds the
            # RankingContext shim policies may touch at bind time).
            self._confirmed_sets: list[set[int]] = [set() for _ in pattern.nodes()]
            self._matched_nodes = 0
            self.policy.bind(self)
            with trace("engine.build_structures", algorithm=algorithm_name):
                self._build_structures()

    # ------------------------------------------------------------------
    # construction of the per-pair state
    # ------------------------------------------------------------------
    def _build_structures(self) -> None:
        pattern, graph = self.pattern, self.graph
        analysis = self.analysis

        # Pattern edge layout: per query node, its ordered child list plus
        # the reverse view annotated with the child's local edge index.
        self._out_edges: list[list[int]] = [list(pattern.successors(u)) for u in pattern.nodes()]
        self._in_edges: list[list[tuple[int, int]]] = [[] for _ in pattern.nodes()]
        for u in pattern.nodes():
            for local_idx, u_child in enumerate(self._out_edges[u]):
                self._in_edges[u_child].append((u, local_idx))

        comp_of = analysis.cond.comp_of
        nontrivial = set(analysis.nontrivial_components())
        self._comp_of_node = comp_of
        self._nontrivial = nontrivial
        # External edge = crossing components (or any edge of a trivial comp).
        self._edge_external: list[list[bool]] = [
            [comp_of[u] != comp_of[u_child] or comp_of[u] not in nontrivial
             for u_child in self._out_edges[u]]
            for u in pattern.nodes()
        ]
        # Per query node, the fixpoint scan's initial counter row
        # (external slots -1, in-SCC slots 0) — copied per pair.
        self._counts_template: list[list[int]] = [
            [-1 if flag else 0 for flag in flags] for flags in self._edge_external
        ]

        # Pair tables.  Pids are assigned contiguously per query node in
        # candidate-list order, so ``_pid_start[u] + i`` is the pid of
        # the i-th candidate of ``u`` (the vectorised init relies on
        # this).  ``_pid_arr`` (CSR mode) is the array counterpart of
        # the ``_pid_of`` dicts: ``_pid_arr[u][v]`` is the pid or -1.
        self._pid_of: list[dict[int, int]] = [dict() for _ in pattern.nodes()]
        self._pid_start: list[int] = []
        pair_u: list[int] = []
        pair_v: list[int] = []
        for u in pattern.nodes():
            pid_map = self._pid_of[u]
            self._pid_start.append(len(pair_u))
            for v in self.candidates.lists[u]:
                pid_map[v] = len(pair_u)
                pair_u.append(u)
                pair_v.append(v)
        self._pair_u = pair_u
        self._pair_v = pair_v
        n_pairs = len(pair_u)
        self.stats.pairs_created = n_pairs

        self._pid_arr: list[list[int]] | None = None
        self._adj_out: list | None = None
        self._adj_in: list | None = None
        if self._snapshot is not None:
            num_nodes = graph.num_nodes
            pid_arr = []
            for u in pattern.nodes():
                arr = [-1] * num_nodes
                start = self._pid_start[u]
                for i, v in enumerate(self.candidates.lists[u]):
                    arr[v] = start + i
                pid_arr.append(arr)
            self._pid_arr = pid_arr
            self._adj_out = self._snapshot.out_adjacency_lists()
            self._adj_in = self._snapshot.in_adjacency_lists()

        self._status = [PENDING] * n_pairs
        self._finalized = [False] * n_pairs
        self._visited = [False] * n_pairs
        self._activated = [False] * n_pairs
        self._conf_count: list[list[int]] = [[] for _ in range(n_pairs)]
        self._unsat = [0] * n_pairs
        self._pending = [0] * n_pairs

        # Relevant-set groups (union-find over confirmed pairs).
        self._group_of: list[int] = [-1] * n_pairs
        self._g_alias: list[int] = []
        self._g_set: list[set[int]] = []
        self._g_parents: list[set[int]] = []
        self._g_members: list[list[int]] = []
        self._g_final: set[int] = set()
        # Versioning: ``_clock`` ticks on every event that can change a
        # value the termination test reads (confirmation, rset growth,
        # finalisation/death); a group root's version is stamped from it
        # whenever its rset changes.  Clock values are globally unique,
        # so a ``(pid/root, version)`` cache key can never collide across
        # a union-find merge.  Versions are maintained on BOTH rset
        # representations (the twin suite pins their monotonicity).
        self._clock = 0
        self._g_version: list[int] = []
        # (root, version)-keyed caches: frozen rset views handed out at
        # the public boundary, relevance lower/upper values under
        # non-cardinality functions, and the termination check's l_min.
        self._rv_cache: dict[int, tuple[int, frozenset[int] | csr.FrozenBitset]] = {}
        self._lower_cache: dict[int, tuple[int, float]] = {}
        self._upper_cache: dict[int, tuple[int, float]] = {}
        self._lmin_clock = -1
        self._lmin_cached = 0.0
        # Packed-rset machinery: the member interner (bit layout fixed
        # for the engine's lifetime), per-group bitmask + popcount
        # cardinality, and the coalescing delta buffers (pending mask
        # per target root + the dirty-root drain queue).
        self._interner: csr.NodeInterner | None = None
        self._node_bit: list[int] | None = None
        self._g_bits: list[int] = []
        self._g_card: list[int] = []
        # Per group: the packed member data nodes (``self mask``).  A
        # group's contribution to a parent is always ``self | rset``
        # — {v} ∪ R for singletons, and for collapsed cycles the
        # members are in R anyway (self-inclusion) — so child
        # contributions OR two precomputed masks instead of shifting
        # one bit per confirmed child edge.
        self._g_self: list[int] = []
        self._pending_bits: dict[int, int] = {}
        self._delta_dirty: deque[int] = deque()
        # Flush scratch (grown to the group count, zeroed per flush for
        # touched entries only — a flush must not pay O(#groups)).
        self._flush_work: list[int] = []
        self._flush_color: list[int] = []
        if self.rset_bitset:
            universe: set[int] = set()
            for cand in self.candidates.sets:
                universe |= cand
            self._interner = csr.NodeInterner(universe, graph.num_nodes)
            self._node_bit = self._interner.bit_of
        # Incremental machinery per group: the condensed in-component
        # pair graph (edges between group roots, stale aliases resolved
        # through ``_find`` at read time) and the settlement counters —
        # external child matches not yet final, and in-component child
        # slots still PENDING.  A group is a finalisation candidate once
        # both counters are zero.
        self._g_comp_out: list[set[int]] = []
        self._g_comp_in: list[set[int]] = []
        self._g_ext_pending: list[int] = []
        self._g_unresolved: list[int] = []

        # Upper bounds are only consulted for candidates of the output node.
        self._h_init: dict[int, int] = {}
        for v in self.candidates.lists[self.uo]:
            self._h_init[self._pid_of[self.uo][v]] = self._bounds.upper(self.uo, v)

        # Component-level bookkeeping.
        num_comps = analysis.cond.num_components
        self._comp_pairs: list[list[int]] = [[] for _ in range(num_comps)]
        self._comp_unvisited = [0] * num_comps
        self._comp_ext_pending = [0] * num_comps
        self._comp_finalized = [False] * num_comps
        comp_rank = [0] * num_comps
        for u in pattern.nodes():
            comp_rank[comp_of[u]] = analysis.ranks[u]
        self._comp_rank = comp_rank
        # Change tracking so fixpoint/merge scans skip no-op reruns.
        # Activations are the only events that can enlarge the fixpoint,
        # confirmations the only ones that create new pair-cycles to merge.
        self._comp_events = [0] * num_comps
        self._comp_scanned = [-1] * num_comps
        self._comp_confirmed = [0] * num_comps
        self._comp_merged = [0] * num_comps
        self._comp_pending_act: list[set[int]] = [set() for _ in range(num_comps)]
        # Gate events (external finalisations / in-comp pair decisions)
        # trigger the group-finalisation resolve pass.
        self._comp_resolve_events = [0] * num_comps
        self._comp_resolved = [-1] * num_comps
        # Incremental machinery per component: the compiled pair-CSR
        # (built lazily on first fixpoint touch), the pairs confirmed
        # since the last cycle-collapse pass, and the group roots whose
        # settlement counters cleared since the last resolve pass.
        self._pair_csr_cache: dict[int, csr.ComponentPairCSR] = {}
        self._comp_frontier: list[list[int]] = [[] for _ in range(num_comps)]
        self._comp_resolve_candidates: list[set[int]] = [
            set() for _ in range(num_comps)
        ]

        # Work queues.
        self._confirm_queue: deque[int] = deque()
        self._delta_queue: deque[tuple[int, set[int] | frozenset[int]]] = deque()
        self._dirty_comps: set[int] = set()
        self._finalize_queue: deque[int] = deque()
        self._decisive_queue: deque[int] = deque()

        # Initial scan: dead pairs, unsat / pending counters, comp membership.
        if self._snapshot is not None:
            dead_at_init = self._init_pair_state_csr(comp_of, nontrivial, comp_rank)
        else:
            dead_at_init = self._init_pair_state_dict(comp_of, nontrivial, comp_rank)

        # Component counters count live (non-dead) pairs only.
        dead_set = set(dead_at_init)
        for comp in nontrivial:
            live = [p for p in self._comp_pairs[comp] if p not in dead_set]
            self._comp_ext_pending[comp] = sum(self._pending[p] for p in live)
            if comp_rank[comp] == 0:
                self._comp_unvisited[comp] = len(live)

        # Seeds: live candidates of rank-0 query nodes, in strategy order.
        seeds: list[int] = []
        for u in pattern.nodes():
            if analysis.ranks[u] == 0:
                for v in self.candidates.lists[u]:
                    pid = self._pid_of[u][v]
                    if pid not in dead_set:
                        seeds.append(pid)
        self._seeds = self.strategy.order(self, seeds)
        self._seed_cursor = 0

        # Kill the dead pairs (this finalises them and notifies parents).
        # Their pending counts were never added to the component sums, so
        # zero them before the finalisation cascade runs.
        for pid in dead_at_init:
            self._status[pid] = DEAD
            self._pending[pid] = 0
            self._finalize_pair(pid)
        for comp in nontrivial:
            if self._decisive_ready(comp):
                self._decisive_queue.append(comp)
        self._drain()

    def _init_pair_state_dict(
        self, comp_of: list[int], nontrivial: set[int], comp_rank: list[int]
    ) -> list[int]:
        """Reference per-pair init scan (dict adjacency, set membership)."""
        graph = self.graph
        dead_at_init: list[int] = []
        for pid in range(len(self._pair_u)):
            u, v = self._pair_u[pid], self._pair_v[pid]
            comp = comp_of[u]
            is_comp_pair = comp in nontrivial
            out_edges = self._out_edges[u]
            external_flags = self._edge_external[u]
            self._conf_count[pid] = [0] * len(out_edges)
            unsat = 0
            pending = 0
            dead = False
            for local_idx, u_child in enumerate(out_edges):
                child_candidates = self.candidates.sets[u_child]
                count = 0
                for v_child in graph.successors(v):
                    if v_child in child_candidates:
                        count += 1
                if count == 0:
                    dead = True
                if external_flags[local_idx]:
                    unsat += 1
                    pending += count
            self._unsat[pid] = unsat
            self._pending[pid] = pending
            if is_comp_pair:
                self._comp_pairs[comp].append(pid)
            if dead:
                dead_at_init.append(pid)
            elif is_comp_pair and unsat == 0 and comp_rank[comp] > 0:
                # No external requirements: activated immediately (safe —
                # a rank>0 component cannot close a support cycle until
                # some member's external matches arrive).
                self._activated[pid] = True
                self._comp_pending_act[comp].add(pid)
                self._comp_events[comp] += 1
        return dead_at_init

    def _init_pair_state_csr(
        self, comp_of: list[int], nontrivial: set[int], comp_rank: list[int]
    ) -> list[int]:
        """Vectorised init scan over the CSR snapshot.

        Computes the same per-pair state as the reference scan —
        candidate-child counts per pattern edge (one prefix-sum pass per
        distinct child query node), dead flags, unsat / pending
        counters, comp membership and immediate activations — with one
        numpy pass per (query node, pattern edge) instead of a Python
        loop per (pair, graph edge).
        """
        import numpy as np

        snap = self._snapshot
        assert snap is not None
        pattern = self.pattern
        dead_at_init: list[int] = []
        child_counts: dict[int, "np.ndarray"] = {}
        for u in pattern.nodes():
            k = len(self.candidates.lists[u])
            start = self._pid_start[u]
            out_edges = self._out_edges[u]
            external_flags = self._edge_external[u]
            n_out = len(out_edges)
            for pid in range(start, start + k):
                self._conf_count[pid] = [0] * n_out
            # ``unsat`` counts the external out-edges — identical for
            # every pair of ``u``.
            unsat = sum(1 for flag in external_flags if flag)
            if unsat:
                self._unsat[start : start + k] = [unsat] * k
            comp = comp_of[u]
            is_comp_pair = comp in nontrivial
            if is_comp_pair:
                self._comp_pairs[comp].extend(range(start, start + k))
            if k == 0:
                continue
            cand_arr = np.asarray(self.candidates.lists[u], dtype=np.int64)
            dead = np.zeros(k, dtype=bool)
            pending = np.zeros(k, dtype=np.int64)
            for local_idx, u_child in enumerate(out_edges):
                counts = child_counts.get(u_child)
                if counts is None:
                    membership = np.zeros(snap.num_nodes, dtype=np.uint8)
                    child_list = self.candidates.lists[u_child]
                    if child_list:
                        membership[child_list] = 1
                    counts = snap.out_counts(membership)
                    child_counts[u_child] = counts
                edge_counts = counts[cand_arr]
                dead |= edge_counts == 0
                if external_flags[local_idx]:
                    pending += edge_counts
            if pending.any():
                self._pending[start : start + k] = pending.tolist()
            if dead.any():
                dead_at_init.extend((start + np.nonzero(dead)[0]).tolist())
            if is_comp_pair and unsat == 0 and comp_rank[comp] > 0:
                for offset in np.nonzero(~dead)[0].tolist():
                    pid = start + offset
                    self._activated[pid] = True
                    self._comp_pending_act[comp].add(pid)
                    self._comp_events[comp] += 1
        return dead_at_init

    # ------------------------------------------------------------------
    # adjacency / pair lookups (CSR fast path vs dict reference path)
    # ------------------------------------------------------------------
    def _succs(self, v: int):
        """Successors of data node ``v`` (CSR slice or graph adjacency)."""
        if self._adj_out is not None:
            return self._adj_out[v]
        return self.graph.successors(v)

    def _preds(self, v: int):
        """Predecessors of data node ``v`` (CSR slice or graph adjacency)."""
        if self._adj_in is not None:
            return self._adj_in[v]
        return self.graph.predecessors(v)

    def _pair_ids(self, u: int, nodes) -> list[int]:
        """Pids of ``u``'s candidate pairs among ``nodes`` (order kept).

        NOTE: the two hottest callers — ``_do_confirm``'s parent notify
        and ``_finalize_pair`` — inline this body to skip the method
        call; a change to the lookup rule must be applied there too.
        """
        pid_arr = self._pid_arr
        if pid_arr is not None:
            arr = pid_arr[u]
            return [pid for w in nodes if (pid := arr[w]) >= 0]
        pid_map = self._pid_of[u]
        return [pid for w in nodes if (pid := pid_map.get(w)) is not None]

    def _pair_csr(self, comp: int) -> csr.ComponentPairCSR:
        """The component's compiled pair graph, built on first use.

        Candidates are fixed for the engine's lifetime, so the pair
        graph is compiled exactly once per component; dead pairs are
        included and filtered by status at read time.
        """
        pcsr = self._pair_csr_cache.get(comp)
        if pcsr is None:
            if self._session_cache is not None and self.presimulate:
                # Sound across runs: the session's shared narrowed
                # candidates fix the pid layout, so the compiled arrays
                # are identical for every engine of this generation.
                # (Non-presimulated engines rank over raw candidates —
                # a different pid layout — and compile locally.)
                pcsr, hit = self._session_cache.pair_csr(
                    self.pattern,
                    self.use_csr,
                    comp,
                    lambda: self._build_pair_csr(comp),
                )
                if hit:
                    self.stats.paircsr_hits += 1
                else:
                    self.stats.paircsr_builds += 1
            else:
                pcsr = self._build_pair_csr(comp)
                self.stats.paircsr_builds += 1
            self._pair_csr_cache[comp] = pcsr
        return pcsr

    def _build_pair_csr(self, comp: int) -> csr.ComponentPairCSR:
        """Compile component ``comp``'s pair graph into flat CSR arrays."""
        comp_edges: dict[int, list[tuple[int, int]]] = {}
        for u in self.pattern.nodes():
            if self._comp_of_node[u] != comp:
                continue
            external_flags = self._edge_external[u]
            comp_edges[u] = [
                (local_idx, u_child)
                for local_idx, u_child in enumerate(self._out_edges[u])
                if not external_flags[local_idx]
            ]
        pid_arr = self._pid_arr
        if pid_arr is not None:
            def child_pid_of(u_child: int, v_child: int) -> int:
                return pid_arr[u_child][v_child]
        else:
            pid_maps = self._pid_of

            def child_pid_of(u_child: int, v_child: int) -> int:
                return pid_maps[u_child].get(v_child, -1)

        return csr.build_component_pair_csr(
            self._comp_pairs[comp],
            self._pair_u,
            self._pair_v,
            comp_edges,
            self._succs,
            child_pid_of,
        )

    # ------------------------------------------------------------------
    # relevant-set groups
    # ------------------------------------------------------------------
    def _find(self, gid: int) -> int:
        alias = self._g_alias
        root = gid
        while alias[root] != root:
            root = alias[root]
        while alias[gid] != root:  # path compression
            alias[gid], gid = root, alias[gid]
        return root

    def _new_group(self, pid: int) -> int:
        gid = len(self._g_alias)
        self._g_alias.append(gid)
        self._g_set.append(set())
        self._g_parents.append(set())
        self._g_members.append([pid])
        self._g_comp_out.append(set())
        self._g_comp_in.append(set())
        self._g_ext_pending.append(0)
        self._g_unresolved.append(0)
        self._g_version.append(0)
        if self.rset_bitset:
            self._g_bits.append(0)
            self._g_card.append(0)
            self._g_self.append(1 << self._node_bit[self._pair_v[pid]])
        self._group_of[pid] = gid
        return gid

    def _touch_rset(self, root: int) -> None:
        """Stamp a fresh version on ``root`` after its rset changed."""
        self._clock += 1
        self._g_version[root] = self._clock

    def rset_of(self, pid: int) -> set[int] | frozenset[int] | csr.FrozenBitset:
        """The partial relevant set of a confirmed pair (immutable view).

        Bitset path: a frozen snapshot view over the group's packed
        mask, cached per ``(root, version)`` so repeated reads between
        rset changes return the identical object.  Dict path: the live
        shared group set (cheap, internal callers must not mutate it —
        the public boundary is :meth:`partial_relevant`).
        """
        gid = self._group_of[pid]
        if gid < 0:
            return _EMPTY_SET
        if not self.rset_bitset:
            return self._g_set[self._find(gid)]
        if self._pending_bits:
            self._flush_deltas()
        root = self._find(gid)
        version = self._g_version[root]
        cached = self._rv_cache.get(root)
        if cached is not None and cached[0] == version:
            return cached[1]
        view = csr.FrozenBitset(self._g_bits[root], self._interner)
        self._rv_cache[root] = (version, view)
        return view

    # ------------------------------------------------------------------
    # public accessors used by policies / tests
    # ------------------------------------------------------------------
    @property
    def context(self) -> RankingContext:
        """A ranking context over the *partial* simulation state.

        ``total`` is pinned to ``False`` so generalised functions fall back
        to their sound candidate-based approximations.
        """
        if self._context is None:
            shim = SimulationResult(
                self.pattern, self.graph, self._confirmed_sets, False, self.candidates
            )
            self._context = RankingContext(self.pattern, self.graph, shim, self.uo)
        return self._context

    def partial_relevant(self, pid: int) -> frozenset[int] | csr.FrozenBitset:
        """The pair's in-flight relevant set, as an immutable snapshot.

        The returned object never mutates, so callers may hold / hash /
        compare it freely; snapshots are cached per ``(root, version)``
        and shared until the group's rset next changes.
        """
        gid = self._group_of[pid]
        if gid < 0:
            return _EMPTY_SET
        if self.rset_bitset:
            return self.rset_of(pid)  # flushes pending deltas; frozen view
        root = self._find(gid)
        version = self._g_version[root]
        cached = self._rv_cache.get(root)
        if cached is not None and cached[0] == version:
            return cached[1]
        frozen = frozenset(self._g_set[root])
        self._rv_cache[root] = (version, frozen)
        return frozen

    def _rset_version(self, pid: int) -> int:
        gid = self._group_of[pid]
        return self._g_version[self._find(gid)] if gid >= 0 else -1

    def lower_values(self, pids: list[int]) -> list[float]:
        """``v.l`` for many pairs at once (one flush, locals hoisted).

        The per-batch selection scans every confirmed output match;
        under cardinality relevance the bitset path answers each from
        the popcount-maintained group cardinality.
        """
        if self._pending_bits:
            self._flush_deltas()
        if not self._fast_cardinality:
            return [self.lower_value(pid) for pid in pids]
        group_of = self._group_of
        find = self._find
        alias = self._g_alias
        if self.rset_bitset:
            g_card = self._g_card
            out = []
            for pid in pids:
                gid = group_of[pid]
                if gid < 0:
                    out.append(0.0)
                    continue
                root = alias[gid]
                if alias[root] != root:
                    root = find(gid)
                out.append(float(g_card[root]))
            return out
        g_set = self._g_set
        return [
            float(len(g_set[find(gid)])) if (gid := group_of[pid]) >= 0 else 0.0
            for pid in pids
        ]

    def lower_value(self, pid: int) -> float:
        """``v.l`` mapped through the relevance function."""
        if self._pending_bits:
            self._flush_deltas()
        if self._fast_cardinality:
            if self.rset_bitset:
                gid = self._group_of[pid]
                if gid < 0:
                    return 0.0
                return float(self._g_card[self._find(gid)])
            return float(len(self.rset_of(pid)))
        version = self._rset_version(pid)
        cached = self._lower_cache.get(pid)
        if cached is not None and cached[0] == version:
            return cached[1]
        value = self.relevance_fn.lower(
            self.context, self._pair_v[pid], self.rset_of(pid)
        )
        self._lower_cache[pid] = (version, value)
        return value

    def upper_value(self, pid: int) -> float:
        """``v.h`` mapped through the relevance function (output node only)."""
        if self._pending_bits:
            self._flush_deltas()
        if self._finalized[pid]:
            if self._fast_cardinality:
                if self.rset_bitset:
                    gid = self._group_of[pid]
                    if gid < 0:
                        return 0.0
                    return float(self._g_card[self._find(gid)])
                return float(len(self.rset_of(pid)))
            version = self._rset_version(pid)
            cached = self._upper_cache.get(pid)
            if cached is not None and cached[0] == version:
                return cached[1]
            value = self.relevance_fn.value(
                self.context, self._pair_v[pid], self.rset_of(pid)
            )
            self._upper_cache[pid] = (version, value)
            return value
        bound = self._h_init.get(pid, 0)
        if self._fast_cardinality:
            return float(bound)
        return self.relevance_fn.upper(self.context, self._pair_v[pid], bound)

    def output_pid(self, v: int) -> int:
        return self._pid_of[self.uo][v]

    # ------------------------------------------------------------------
    # the batch loop
    # ------------------------------------------------------------------
    def run(self) -> TopKResult:
        """Execute the algorithm and return its :class:`TopKResult`."""
        started = time.perf_counter()
        with trace(
            "engine.run", algorithm=self.algorithm_name, k=self.k
        ) as run_span:
            if self._infeasible:
                # Some query node has no candidate: G cannot match Q.
                self.stats.elapsed_seconds = time.perf_counter() - started
                return TopKResult([], {}, self.algorithm_name, self.stats)

            batch = self.batch_size or default_batch_size(len(self._seeds))
            terminated = False
            tracer = self._tracer
            while self._seed_cursor < len(self._seeds):
                # One span per Sc propagation round — the span count
                # reconciles with ``stats.batches`` by construction.
                # Guarded on the init-resolved tracer: with tracing
                # disabled the loop must not pay a contextvar read and
                # a kwargs dict per round (R3).
                if tracer is not None:
                    with tracer.span("engine.batch", index=self.stats.batches):
                        stop = self._run_batch(batch)
                else:
                    stop = self._run_batch(batch)
                if stop:
                    terminated = self._seed_cursor < len(self._seeds)
                    break
            self.stats.terminated_early = terminated

            result = self._build_result()
            self.stats.elapsed_seconds = time.perf_counter() - started
            if run_span is not None:
                run_span.set_attr(
                    batches=self.stats.batches,
                    inspected_matches=self.stats.inspected_matches,
                    terminated_early=terminated,
                )
        return result

    def _run_batch(self, batch: int) -> bool:
        """Visit one seed batch and drain; True when termination fired."""
        upper = min(self._seed_cursor + batch, len(self._seeds))
        for i in range(self._seed_cursor, upper):
            self._visit(self._seeds[i])
        self._seed_cursor = upper
        self.stats.batches += 1
        self.stats.visited_seeds = self._seed_cursor
        self._drain()
        return self._check_termination()

    def _build_result(self) -> TopKResult:
        if not self._totality_holds():
            # Some query node never found a match: G does not match Q and
            # M(Q, G) is empty by definition (Section 2.1).
            return TopKResult([], {}, self.algorithm_name, self.stats)
        chosen = self.policy.final_selection(self.k)
        # One lower_value per chosen match, shared by the sort key and
        # the reported scores.
        scored = [(v, pid, self.lower_value(pid)) for v, pid in chosen]
        scored.sort(key=lambda item: (-item[2], item[0]))
        matches = [v for v, _, _ in scored]
        scores = {v: value for v, _, value in scored}
        objective = self.policy.objective_value(self.k)
        return TopKResult(matches, scores, self.algorithm_name, self.stats, objective)

    def _totality_holds(self) -> bool:
        return self._matched_nodes == self.pattern.num_nodes

    def _check_termination(self) -> bool:
        if not self._totality_holds():
            return False
        chosen = self.policy.selection(self.k)
        if len(chosen) < self.k:
            return False
        chosen_pids = {pid for _, pid in chosen}
        # ``l_min`` is a pure function of engine state, which only moves
        # when the clock ticks — cache it per drain generation so a
        # no-progress batch skips the rescan.
        if self._lmin_clock == self._clock:
            l_min = self._lmin_cached
        else:
            l_min = min(self.lower_value(pid) for _, pid in chosen)
            self._lmin_clock = self._clock
            self._lmin_cached = l_min
        h_max: float | None = None
        for pid in self._h_init:
            if pid in chosen_pids or self._status[pid] == DEAD:
                continue
            h = self.upper_value(pid)
            if h_max is None or h > h_max:
                h_max = h
                if h_max > l_min:
                    return False
        if h_max is None:
            return True
        return l_min >= h_max

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def _visit(self, pid: int) -> None:
        if self._visited[pid] or self._status[pid] == DEAD:
            return
        self._visited[pid] = True
        u = self._pair_u[pid]
        comp = self._comp_of_node[u]
        if comp in self._nontrivial:
            self._activated[pid] = True
            if self._status[pid] == PENDING:
                self._comp_pending_act[comp].add(pid)
            self._comp_events[comp] += 1
            self._dirty_comps.add(comp)
            self._comp_unvisited[comp] -= 1
            if self._decisive_ready(comp):
                self._decisive_queue.append(comp)
        else:
            # Rank-0 trivial query node: a leaf — every candidate matches.
            self._confirm_queue.append(pid)

    def _drain(self) -> None:
        while True:
            if self._confirm_queue:
                self._do_confirm(self._confirm_queue.popleft())
                continue
            if self._delta_queue:
                gid, delta = self._delta_queue.popleft()
                self._apply_delta(gid, delta)
                continue
            if self._dirty_comps:
                self._run_comp_fixpoint(self._dirty_comps.pop())
                continue
            if self._finalize_queue:
                self._decide_trivial(self._finalize_queue.popleft())
                continue
            if self._decisive_queue:
                self._decisive_finalize(self._decisive_queue.popleft())
                continue
            break

    def _do_confirm(self, pid: int) -> None:
        if self._status[pid] != PENDING:
            return
        self._status[pid] = CONFIRMED
        u, v = self._pair_u[pid], self._pair_v[pid]
        gid = self._new_group(pid)
        use_bits = self.rset_bitset
        if use_bits:
            g_bits = self._g_bits
            g_self = self._g_self
            bits = 0
        else:
            rset = self._g_set[gid]

        # Collect contributions of already-confirmed children, linking
        # their groups to ours for future delta propagation.
        status = self._status
        pid_arr = self._pid_arr
        successors = self._succs(v)
        seen_child_groups: set[int] = set()
        group_of = self._group_of
        find = self._find
        for u_child in self._out_edges[u]:
            if pid_arr is not None:
                child_pids = pid_arr[u_child]
                found = [
                    (v_child, q)
                    for v_child in successors
                    if (q := child_pids[v_child]) >= 0 and status[q] == CONFIRMED
                ]
            else:
                pid_map = self._pid_of[u_child]
                found = [
                    (v_child, q)
                    for v_child in successors
                    if (q := pid_map.get(v_child)) is not None
                    and status[q] == CONFIRMED
                ]
            if use_bits:
                # ``self | rset`` of each distinct child group covers
                # every confirmed child's {v_child} ∪ R(v_child): group
                # members are mutually relevant, so folding them all in
                # is exactly the delta the set path converges to.
                for _v_child, q in found:
                    child_gid = find(group_of[q])
                    if child_gid not in seen_child_groups:
                        seen_child_groups.add(child_gid)
                        self._g_parents[child_gid].add(gid)
                        bits |= g_self[child_gid] | g_bits[child_gid]
            else:
                for v_child, q in found:
                    child_gid = find(group_of[q])
                    rset.add(v_child)
                    if child_gid not in seen_child_groups:
                        seen_child_groups.add(child_gid)
                        self._g_parents[child_gid].add(gid)
                        rset |= self._g_set[child_gid]
        if use_bits:
            g_bits[gid] = bits
            self._g_card[gid] = bits.bit_count()
        self._touch_rset(gid)

        # Output / totality bookkeeping.
        confirmed_u = self._confirmed_sets[u]
        if not confirmed_u:
            self._matched_nodes += 1
        confirmed_u.add(v)
        if u == self.uo:
            self.stats.inspected_matches += 1
            self.policy.on_confirmed(v, pid)

        comp = self._comp_of_node[u]
        if comp in self._nontrivial:
            self._comp_confirmed[comp] += 1
            self._comp_pending_act[comp].discard(pid)
            if self.scc_incremental and not self._comp_finalized[comp]:
                self._scc_on_confirm(comp, pid, gid)

        # Notify parents: edge counters, activation, and deltas.
        if use_bits:
            contribution_mask = g_bits[gid] | g_self[gid]
        else:
            contribution: set[int] = {v} | rset
        parent_gids: set[int] = set()
        predecessors = self._preds(v)
        conf_count = self._conf_count
        unsat = self._unsat
        for u_parent, local_idx in self._in_edges[u]:
            parent_comp = self._comp_of_node[u_parent]
            external = parent_comp != comp or parent_comp not in self._nontrivial
            if pid_arr is not None:
                parent_arr = pid_arr[u_parent]
                parent_pids = [
                    pp for w in predecessors if (pp := parent_arr[w]) >= 0
                ]
            else:
                parent_map = self._pid_of[u_parent]
                parent_pids = [
                    pp for w in predecessors if (pp := parent_map.get(w)) is not None
                ]
            for pp in parent_pids:
                if status[pp] == DEAD:
                    continue
                counters = conf_count[pp]
                counters[local_idx] += 1
                if counters[local_idx] == 1 and external:
                    unsat[pp] -= 1
                    if unsat[pp] == 0:
                        if parent_comp in self._nontrivial:
                            self._activated[pp] = True
                            self._comp_pending_act[parent_comp].add(pp)
                            self._comp_events[parent_comp] += 1
                            self._dirty_comps.add(parent_comp)
                        else:
                            self._confirm_queue.append(pp)
                if status[pp] == CONFIRMED:
                    parent_gid = find(group_of[pp])
                    if parent_gid != gid:
                        parent_gids.add(parent_gid)
        if use_bits:
            for parent_gid in parent_gids:
                self._g_parents[gid].add(parent_gid)
                self._post_delta(parent_gid, contribution_mask)
        else:
            enqueued = len(parent_gids)
            for parent_gid in parent_gids:
                self._g_parents[gid].add(parent_gid)
                self._delta_queue.append((parent_gid, contribution))
            self.stats.deltas_enqueued += enqueued
        if comp in self._nontrivial:
            self._dirty_comps.add(comp)
        elif self._pending[pid] == 0:
            # A trivial-SCC pair whose children are all final (leaves
            # included) has a final relevant set the moment it confirms.
            # Finalised only after the notifications above so parents see
            # the confirmation before any gate-resolution verdict.
            self._finalize_pair(pid)

    def _apply_delta(self, gid: int, delta: set[int] | frozenset[int]) -> None:
        gid = self._find(gid)
        rset = self._g_set[gid]
        new = delta - rset
        if not new:
            return
        rset |= new
        self._touch_rset(gid)
        self.stats.deltas_applied += 1
        enqueued = 0
        for parent in self._g_parents[gid]:
            parent_gid = self._find(parent)
            if parent_gid != gid:
                self._delta_queue.append((parent_gid, new))
                enqueued += 1
        self.stats.deltas_enqueued += enqueued

    # ------------------------------------------------------------------
    # batched delta propagation (the rset_bitset fast path)
    # ------------------------------------------------------------------
    def _post_delta(self, gid: int, mask: int) -> None:
        """Post ``mask`` to group ``gid``, coalescing per target root.

        One pending mask per target root per drain cycle: a second
        posting to the same root ORs whole words into the pending mask
        instead of becoming its own drain step — this is what collapses
        the ~|E_pair| per-posting flood into ~|groups| applications.
        """
        root = self._find(gid)
        self.stats.deltas_enqueued += 1
        pending = self._pending_bits.get(root)
        if pending is None:
            self._pending_bits[root] = mask
            self._delta_dirty.append(root)
        else:
            self._pending_bits[root] = pending | mask
            self.stats.deltas_coalesced += 1

    def _flush_deltas(self) -> None:
        """Drain every coalesced pending mask to its fixpoint.

        Relevance deltas never influence confirmation or finalisation
        decisions (status transitions never read rsets), so the bitset
        path lets postings *accumulate* across a whole propagation round
        and only flushes when a value is about to be read — the
        termination check, a policy integrating fresh matches, or any
        public rset accessor.  By then the per-edge flood has coalesced
        into one pending mask per group root, and the flush is one
        topologically ordered pass over the group DAG: each root is
        applied at most once (all of its in-flush descendants first),
        each condensed parent edge carries its changed bits exactly
        once.  Flushes run post-drain, where pair-cycles are already
        collapsed and the resolved parent graph is acyclic; a FIFO
        cascade remains as fallback for any transient cycle.
        """
        find = self._find
        alias = self._g_alias
        g_parents = self._g_parents
        g_bits, g_card = self._g_bits, self._g_card
        g_version = self._g_version
        pending = self._pending_bits
        n_groups = len(alias)
        # Re-key the accumulated postings by *current* root (postings may
        # predate a union-find merge) and pre-shrink them to the bits the
        # root does not know yet — a fully-known posting dies here and
        # never seeds the closure walk below.  ``work`` is a flat
        # per-group scratch array (masks are never 0 once seeded),
        # persistent across flushes with only touched entries re-zeroed.
        work = self._flush_work
        color = self._flush_color
        if len(work) < n_groups:
            grow = n_groups - len(work)
            work.extend([0] * grow)
            color.extend([0] * grow)
        seeds: list[int] = []
        for gid, mask in pending.items():
            root = alias[gid]
            if alias[root] != root:
                root = find(gid)
            new = mask & ~g_bits[root]
            if not new:
                continue
            if not work[root]:
                seeds.append(root)
            work[root] |= new
        pending.clear()
        self._delta_dirty.clear()
        if not seeds:
            return
        self.stats.delta_flushes += 1

        # DFS over the child → parent edges from the seeds; reverse
        # postorder is a topological order of the ancestor closure, so
        # one ordered sweep applies each node once with every in-flush
        # descendant already folded in.  Parent sets are resolved
        # through the union-find exactly once per node (inline alias
        # chase for the common already-root case); a grey-grey edge
        # flags a transient cycle, which aborts to the order-insensitive
        # cascade *before* any mask is applied.
        # ``color``: 0 white, 1 grey (on stack), 2 black.
        parents_of: dict[int, list[int]] = {}
        order: list[int] = []  # DFS postorder
        cyclic = False
        frames: list[tuple[int, list[int], int]] = []
        for seed in seeds:
            if color[seed]:
                continue
            color[seed] = 1
            plist: list[int] = []
            for parent in g_parents[seed]:
                p = alias[parent]
                if alias[p] != p:
                    p = find(parent)
                if p != seed:
                    plist.append(p)
            parents_of[seed] = plist
            node, idx = seed, 0
            while True:
                advanced = False
                while idx < len(plist):
                    p = plist[idx]
                    idx += 1
                    c = color[p]
                    if c == 0:
                        frames.append((node, plist, idx))
                        color[p] = 1
                        resolved: list[int] = []
                        for parent in g_parents[p]:
                            q = alias[parent]
                            if alias[q] != q:
                                q = find(parent)
                            if q != p:
                                resolved.append(q)
                        parents_of[p] = resolved
                        node, plist, idx = p, resolved, 0
                        advanced = True
                        break
                    if c == 1:
                        cyclic = True
                if advanced:
                    continue
                color[node] = 2
                order.append(node)
                if not frames:
                    break
                node, plist, idx = frames.pop()

        stats = self.stats
        if not cyclic:
            clock = self._clock
            applied = enqueued = coalesced = 0
            for node in reversed(order):
                mask = work[node]
                if not mask:
                    continue
                old = g_bits[node]
                new = mask & ~old
                if not new:
                    continue
                g_bits[node] = old | new
                g_card[node] += new.bit_count()
                clock += 1
                g_version[node] = clock
                applied += 1
                parents = parents_of[node]
                enqueued += len(parents)
                for p in parents:
                    if work[p]:
                        work[p] |= new
                        coalesced += 1
                    else:
                        work[p] = new
            self._clock = clock
            stats.deltas_applied += applied
            stats.deltas_enqueued += enqueued
            stats.deltas_coalesced += coalesced
        else:
            # Transient cycle (flush forced mid-collapse): cascade the
            # seed masks order-insensitively instead.  Re-seed the (just
            # cleared) pending map directly — these postings were
            # already counted as enqueued when first posted.
            dirty = self._delta_dirty
            for node in seeds:
                if work[node]:
                    pending[node] = work[node]
                    dirty.append(node)
            while dirty:
                gid = dirty.popleft()
                mask = pending.pop(gid, None)
                if mask is not None:
                    self._apply_delta_bits(gid, mask)
        # Re-zero exactly the scratch entries this flush touched (every
        # seed is in the closure, and work is only written for closure
        # nodes), keeping the arrays warm for the next flush.
        for node in parents_of:
            work[node] = 0
            color[node] = 0

    def _apply_delta_bits(self, gid: int, mask: int) -> None:
        """Cascade-apply one pending mask (cycle-fallback drain step).

        Only the *changed* bits (``new``) propagate onward to condensed
        parent groups; an already-known mask dies here without touching
        the parents at all.
        """
        root = self._find(gid)
        old = self._g_bits[root]
        new = mask & ~old
        if not new:
            return
        self._g_bits[root] = old | new
        self._g_card[root] += new.bit_count()
        self._touch_rset(root)
        self.stats.deltas_applied += 1
        find = self._find
        for parent in self._g_parents[root]:
            parent_root = find(parent)
            if parent_root != root:
                self._post_delta(parent_root, new)

    # ------------------------------------------------------------------
    # nontrivial-SCC fixpoint (the SccProcess counterpart)
    # ------------------------------------------------------------------
    def _run_comp_fixpoint(self, comp: int) -> None:
        """Incremental SccProcess: confirm the greatest supported subset.

        Only *pending activated* pairs are scanned — confirmed pairs are
        immutable support, and since the activated set grows monotonically,
        a pair unsupported now is simply retried on the next activation
        event (the counterpart of Fig. 3's formula restoration).
        """
        if self._comp_finalized[comp]:
            return
        pending = self._comp_pending_act[comp]
        if pending and self._comp_scanned[comp] != self._comp_events[comp]:
            self._comp_scanned[comp] = self._comp_events[comp]
            newly = self._scan_comp(comp, pending)
            if newly:
                for pid in newly:
                    self._confirm_queue.append(pid)
                return
        # No fresh confirmations queued: collapse any new pair-cycles
        # among the confirmed pairs into shared relevant-set groups, then
        # try to finalise groups whose downstream region is settled.
        merged = False
        if self._comp_merged[comp] != self._comp_confirmed[comp]:
            self._comp_merged[comp] = self._comp_confirmed[comp]
            if self.scc_incremental:
                self._merge_comp_groups_inc(comp)
            else:
                self._merge_comp_groups(comp)
            merged = True
        if self.scc_incremental:
            # Gated on the candidate set alone; the rescan path's event
            # counters (``_comp_resolved``) play no role here.
            if self._comp_resolve_candidates[comp]:
                self._resolve_comp_groups_inc(comp)
        elif merged or self._comp_resolved[comp] != self._comp_resolve_events[comp]:
            self._comp_resolved[comp] = self._comp_resolve_events[comp]
            self._resolve_comp_groups(comp)

    def _scan_comp(self, comp: int, pending: set[int]) -> list[int]:
        """One greatest-fixpoint pass over the pending-activated pairs."""
        if self.scc_incremental:
            return self._scan_comp_csr(comp, pending)
        return self._scan_comp_ref(comp, pending)

    def _scan_comp_csr(self, comp: int, pending: set[int]) -> list[int]:
        """The fixpoint pass over the compiled pair-CSR.

        Same greatest-supported-subset semantics as the reference scan,
        but in-component child/parent pairs come from the precompiled
        flat arrays instead of per-pair adjacency probes.
        """
        pcsr = self._pair_csr(comp)
        status = self._status
        local_of = pcsr.local_of
        out_off, out_t, out_e = pcsr.out_offsets, pcsr.out_targets, pcsr.out_eidx
        in_off, in_s, in_e = pcsr.in_offsets, pcsr.in_sources, pcsr.in_eidx
        # External slots start at -1 (checked via unsat); in-SCC slots
        # count confirmed-or-pending children from zero.  One template
        # per query node, C-copied per pair.
        templates = self._counts_template
        pair_u = self._pair_u
        support: dict[int, list[int]] = {}
        removal: deque[int] = deque()
        for pid in pending:
            counts = templates[pair_u[pid]].copy()
            local = local_of[pid]
            start, end = out_off[local], out_off[local + 1]
            for q, eidx in zip(out_t[start:end], out_e[start:end]):
                if status[q] == CONFIRMED or q in pending:
                    counts[eidx] += 1
            support[pid] = counts
            if 0 in counts:
                removal.append(pid)

        removed: set[int] = set()
        while removal:
            pid = removal.popleft()
            if pid in removed:
                continue
            removed.add(pid)
            local = local_of[pid]
            start, end = in_off[local], in_off[local + 1]
            for pp, eidx in zip(in_s[start:end], in_e[start:end]):
                if pp in removed:
                    continue
                counts = support.get(pp)
                if counts is None:
                    continue
                counts[eidx] -= 1
                if counts[eidx] == 0:
                    removal.append(pp)

        return [pid for pid in pending if pid not in removed]

    def _scan_comp_ref(self, comp: int, pending: set[int]) -> list[int]:
        """Reference fixpoint pass (per-pair adjacency probes)."""
        status = self._status
        support: dict[int, list[int]] = {}
        removal: deque[int] = deque()
        for pid in pending:
            u, v = self._pair_u[pid], self._pair_v[pid]
            externals = self._edge_external[u]
            successors = self._succs(v)
            counts: list[int] = []
            deficient = False
            for local_idx, u_child in enumerate(self._out_edges[u]):
                if externals[local_idx]:
                    counts.append(-1)  # external edges were checked via unsat
                    continue
                c = 0
                for q in self._pair_ids(u_child, successors):
                    if status[q] == CONFIRMED or q in pending:
                        c += 1
                counts.append(c)
                if c == 0:
                    deficient = True
            support[pid] = counts
            if deficient:
                removal.append(pid)

        removed: set[int] = set()
        while removal:
            pid = removal.popleft()
            if pid in removed:
                continue
            removed.add(pid)
            u, v = self._pair_u[pid], self._pair_v[pid]
            predecessors = self._preds(v)
            for u_parent, local_idx in self._in_edges[u]:
                if self._comp_of_node[u_parent] != comp:
                    continue
                for pp in self._pair_ids(u_parent, predecessors):
                    if pp in removed:
                        continue
                    counts = support.get(pp)
                    if counts is None:
                        continue
                    counts[local_idx] -= 1
                    if counts[local_idx] == 0:
                        removal.append(pp)

        return [pid for pid in pending if pid not in removed]

    def _merge_comp_groups(self, comp: int) -> None:
        """Union the relevant-set groups of mutually reachable comp pairs.

        Pairs on a common pair-cycle share one relevant set (and each
        contains every member's data node — Example 8's self-inclusion).
        This is the rescan reference: it rebuilds the confirmed-pair
        adjacency and reruns Tarjan over *all* confirmed members every
        round.  The collapse body itself is :meth:`_merge_groups`,
        shared with the incremental path (its counter and condensed-edge
        maintenance no-ops here, over zero counters and empty sets).
        """
        members = [p for p in self._comp_pairs[comp] if self._status[p] == CONFIRMED]
        if len(members) < 2:
            return
        index_of = {pid: i for i, pid in enumerate(members)}

        # Local adjacency over confirmed pairs via in-SCC edges.
        adjacency: list[list[int]] = [[] for _ in members]
        for local, pid in enumerate(members):
            u, v = self._pair_u[pid], self._pair_v[pid]
            externals = self._edge_external[u]
            successors = self._succs(v)
            for local_idx, u_child in enumerate(self._out_edges[u]):
                if externals[local_idx]:
                    continue
                for q in self._pair_ids(u_child, successors):
                    if q in index_of:
                        adjacency[local].append(index_of[q])

        sccs = strongly_connected_components(len(members), lambda i: adjacency[i])
        for scc in sccs:
            if len(scc) == 1 and scc[0] not in adjacency[scc[0]]:
                continue
            gids = {self._find(self._group_of[members[i]]) for i in scc}
            self._merge_groups(comp, gids)

    # ------------------------------------------------------------------
    # incremental SCC group machinery (frontier merge, counter resolve)
    # ------------------------------------------------------------------
    def _scc_on_confirm(self, comp: int, pid: int, gid: int) -> None:
        """Incremental bookkeeping for a comp pair entering CONFIRMED.

        Seeds the fresh singleton group's settlement counters, queues
        the pair on the component's merge frontier, and releases the
        unresolved-child gate this pair held on its already-confirmed
        in-component parents.
        """
        self._comp_frontier[comp].append(pid)
        pcsr = self._pair_csr(comp)
        status = self._status
        local = pcsr.local_of[pid]
        out_t = pcsr.out_targets
        unresolved = 0
        for q in out_t[pcsr.out_offsets[local] : pcsr.out_offsets[local + 1]]:
            if status[q] == PENDING:
                unresolved += 1
        self._g_ext_pending[gid] = self._pending[pid]
        self._g_unresolved[gid] = unresolved
        if unresolved == 0 and self._pending[pid] == 0:
            self._comp_resolve_candidates[comp].add(gid)
        self._scc_child_resolved(comp, pid, pcsr)

    def _scc_child_resolved(
        self, comp: int, pid: int, pcsr: csr.ComponentPairCSR | None = None
    ) -> None:
        """A comp pair left PENDING: drop parents' unresolved-child gates.

        Confirmed in-component parents counted ``pid`` while it was
        PENDING (parents confirming *after* this transition never count
        it); a data self-loop is skipped for the same reason — the pair
        is already non-PENDING when its own counter is seeded.
        """
        if pcsr is None:
            pcsr = self._pair_csr(comp)
        status = self._status
        candidates = self._comp_resolve_candidates[comp]
        local = pcsr.local_of[pid]
        in_s = pcsr.in_sources
        for pp in in_s[pcsr.in_offsets[local] : pcsr.in_offsets[local + 1]]:
            if pp != pid and status[pp] == CONFIRMED:
                root = self._find(self._group_of[pp])
                self._g_unresolved[root] -= 1
                if self._g_unresolved[root] == 0 and self._g_ext_pending[root] == 0:
                    candidates.add(root)

    def _merge_comp_groups_inc(self, comp: int) -> None:
        """Frontier-driven cycle collapse over the condensed group graph.

        A pair-edge becomes *active* exactly when its later endpoint
        confirms, so every edge activated since the last pass is
        incident to a frontier pair — and any new pair-cycle passes
        through a frontier group and lies entirely inside the condensed
        subgraph reachable from the frontier.  Tarjan therefore runs
        over group roots reachable from the frontier (final groups are
        merge-stable and pruned) instead of rebuilding adjacency over
        all confirmed members every round.
        """
        frontier = self._comp_frontier[comp]
        if not frontier:
            return
        self._comp_frontier[comp] = []
        pcsr = self._pair_csr(comp)
        status = self._status
        find = self._find
        alias = self._g_alias
        group_of = self._group_of
        g_out, g_in = self._g_comp_out, self._g_comp_in
        local_of = pcsr.local_of
        out_off, out_t = pcsr.out_offsets, pcsr.out_targets
        in_off, in_s = pcsr.in_offsets, pcsr.in_sources
        starts: list[int] = []
        for pid in frontier:
            g = find(group_of[pid])
            starts.append(g)
            out_set = g_out[g]
            local = local_of[pid]
            for q in out_t[out_off[local] : out_off[local + 1]]:
                if status[q] == CONFIRMED:
                    gq = alias[group_of[q]]
                    if alias[gq] != gq:
                        gq = find(group_of[q])
                    out_set.add(gq)
                    if gq != g:
                        g_in[gq].add(g)
            in_set = g_in[g]
            for pp in in_s[in_off[local] : in_off[local + 1]]:
                if pp != pid and status[pp] == CONFIRMED:
                    gp = alias[group_of[pp]]
                    if alias[gp] != gp:
                        gp = find(group_of[pp])
                    g_out[gp].add(g)
                    in_set.add(gp)
        # Any NEW pair-cycle contains a frontier edge, so it passes
        # through a start group — and every node on it can reach that
        # start, i.e. lies in the starts' ancestor closure (over the
        # condensed in-edges).  Restricting Tarjan to that closure
        # prunes the (much larger) downstream cone whose groups cannot
        # be on a new cycle.
        g_final = self._g_final
        alias = self._g_alias
        within = {find(s) for s in starts}
        within -= g_final
        stack = list(within)
        while stack:
            node = stack.pop()
            in_set = g_in[node]
            if not in_set:
                continue
            # Resolve + compact in place (final parents dropped for
            # good: finality is merge-stable, and every consumer skips
            # them anyway), so later rounds iterate only live roots.
            resolved_in = set()
            for x in in_set:
                p = alias[x]
                if alias[p] != p:
                    p = find(x)
                if p != node and p not in g_final:
                    resolved_in.add(p)
                    if p not in within:
                        within.add(p)
                        stack.append(p)
            g_in[node] = resolved_in
        for scc in self._condensed_sccs(starts, within):
            if len(scc) == 1:
                g = scc[0]
                if g not in {find(x) for x in g_out[g]}:
                    continue
            self._merge_groups(comp, set(scc))

    def _condensed_sccs(
        self, starts: list[int], within: set[int] | None = None
    ) -> list[list[int]]:
        """Tarjan over group roots reachable from ``starts``.

        Successors are the condensed out-edge sets resolved through the
        union-find at visit time (compacting them in place); final
        groups are pruned — they are merge-stable, so no new cycle can
        pass through them.  ``within`` (the starts' ancestor closure)
        additionally restricts the walk to roots that can still lie on
        a new cycle.
        """
        find = self._find
        alias = self._g_alias
        g_out = self._g_comp_out
        g_final = self._g_final
        index_of: dict[int, int] = {}
        lowlink: dict[int, int] = {}
        on_stack: set[int] = set()
        stack: list[int] = []
        sccs: list[list[int]] = []
        succ_of: dict[int, list[int]] = {}
        counter = 0

        for start in starts:
            root = find(start)
            if root in index_of or root in g_final:
                continue
            work: list[tuple[int, int]] = [(root, 0)]
            while work:
                node, child_pos = work.pop()
                if child_pos == 0:
                    index_of[node] = counter
                    lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                adjacency = succ_of.get(node)
                if adjacency is None:
                    resolved = set()
                    for x in g_out[node]:
                        g = alias[x]
                        if alias[g] != g:
                            g = find(x)
                        resolved.add(g)
                    g_out[node] = resolved
                    if within is None:
                        adjacency = [g for g in resolved if g not in g_final]
                    else:
                        adjacency = [g for g in resolved if g in within]
                    succ_of[node] = adjacency
                advanced = False
                for pos in range(child_pos, len(adjacency)):
                    child = adjacency[pos]
                    if child not in index_of:
                        work.append((node, pos + 1))
                        work.append((child, 0))
                        advanced = True
                        break
                    if child in on_stack and index_of[child] < lowlink[node]:
                        lowlink[node] = index_of[child]
                if not advanced:
                    if lowlink[node] == index_of[node]:
                        members: list[int] = []
                        while True:
                            w = stack.pop()
                            on_stack.discard(w)
                            members.append(w)
                            if w == node:
                                break
                        sccs.append(members)
                    if work:
                        parent = work[-1][0]
                        if lowlink[node] < lowlink[parent]:
                            lowlink[parent] = lowlink[node]
        return sccs

    def _merge_groups(self, comp: int, gids: set[int]) -> None:
        """Collapse the group roots ``gids`` into one shared relevant set.

        The per-SCC merge body shared by both machineries: same target
        choice and delta delivery either way; the counter and
        condensed-edge maintenance only has effect on the incremental
        path (the rescan path never populates either).
        """
        find = self._find
        target = min(gids)
        use_bits = self.rset_bitset
        self.stats.scc_merges += 1
        if self._tracer is not None:
            self._tracer.event("scc.merge", comp=comp, groups=len(gids))
        if len(gids) > 1:
            if use_bits:
                merged_bits = self._g_bits[target]
            else:
                merged_set = self._g_set[target]
            merged_parents = self._g_parents[target]
            merged_members = self._g_members[target]
            merged_out = self._g_comp_out[target]
            merged_in = self._g_comp_in[target]
            ext_pending = self._g_ext_pending[target]
            unresolved = self._g_unresolved[target]
            for gid in gids:
                if gid == target:
                    continue
                if use_bits:
                    merged_bits |= self._g_bits[gid]
                    self._g_self[target] |= self._g_self[gid]
                    self._g_bits[gid] = 0
                    self._g_card[gid] = 0
                    self._g_self[gid] = 0
                else:
                    merged_set |= self._g_set[gid]
                    self._g_set[gid] = set()
                merged_parents |= self._g_parents[gid]
                merged_members.extend(self._g_members[gid])
                merged_out |= self._g_comp_out[gid]
                merged_in |= self._g_comp_in[gid]
                ext_pending += self._g_ext_pending[gid]
                unresolved += self._g_unresolved[gid]
                self._g_alias[gid] = target
                self._g_parents[gid] = set()
                self._g_members[gid] = []
                self._g_comp_out[gid] = set()
                self._g_comp_in[gid] = set()
                self._g_ext_pending[gid] = 0
                self._g_unresolved[gid] = 0
            if use_bits:
                self._g_bits[target] = merged_bits
            self._g_ext_pending[target] = ext_pending
            self._g_unresolved[target] = unresolved
            self._g_parents[target] = {
                p for p in (find(x) for x in merged_parents) if p != target
            }
            # Condensed comp edges: in-cycle edges became internal.
            self._g_comp_out[target] = {
                p for p in (find(x) for x in merged_out) if p != target
            }
            self._g_comp_in[target] = {
                p for p in (find(x) for x in merged_in) if p != target
            }
        else:
            # Singleton on a data self-loop: collapsing only adds the
            # self-inclusion; the (now internal) self edge is dropped so
            # later passes do not re-collapse it.
            self._g_comp_out[target].discard(target)
        # Cycle members reach themselves: include every member's node.
        if use_bits:
            member_mask = self._g_self[target]
            if len(gids) > 1:
                # Each old group's parents never saw the other groups'
                # elements — deliver the full merged mask to every parent
                # and let the drain subtract what they already know.
                full = self._g_bits[target] | member_mask
                self._g_bits[target] = full
                self._g_card[target] = full.bit_count()
                self._touch_rset(target)
                for parent in list(self._g_parents[target]):
                    parent_root = find(parent)
                    if parent_root != target:
                        self._post_delta(parent_root, full)
            else:
                missing = member_mask & ~self._g_bits[target]
                if missing:
                    self._post_delta(target, missing)
        else:
            data_nodes = {self._pair_v[p] for p in self._g_members[target]}
            target_set = self._g_set[target]
            missing = data_nodes - target_set
            if len(gids) > 1:
                target_set |= data_nodes
                self._touch_rset(target)
                snapshot = frozenset(target_set)
                enqueued = 0
                for parent in list(self._g_parents[target]):
                    if find(parent) != target:
                        self._delta_queue.append((parent, snapshot))
                        enqueued += 1
                self.stats.deltas_enqueued += enqueued
            elif missing:
                self._delta_queue.append((target, frozenset(missing)))
                self.stats.deltas_enqueued += 1
        # The collapsed group may already satisfy its settlement gates.
        # (Rescan mode never drains the candidate set — skip the add.)
        if self.scc_incremental:
            self._comp_resolve_candidates[comp].add(target)

    def _resolve_comp_groups_inc(self, comp: int) -> None:
        """Event-driven group settlement over the candidate set.

        Same finality condition as the rescan pass — every member's
        external children final (``ext_pending == 0``), no PENDING
        in-component child (``unresolved == 0``), and every condensed
        out-neighbour group already final — but only groups whose
        counters cleared (or whose out-neighbour finalised, or that just
        merged) are inspected, instead of rescanning every group's full
        child fan-out on each resolve event.
        """
        if self._comp_finalized[comp]:
            return
        candidates = self._comp_resolve_candidates[comp]
        find = self._find
        alias = self._g_alias
        g_final = self._g_final
        while candidates:
            gid = find(candidates.pop())
            if gid in g_final:
                continue
            if self._g_ext_pending[gid] or self._g_unresolved[gid]:
                continue
            out_roots = set()
            for x in self._g_comp_out[gid]:
                p = alias[x]
                if alias[p] != p:
                    p = find(x)
                if p != gid:
                    out_roots.add(p)
            self._g_comp_out[gid] = out_roots
            if not out_roots <= g_final:
                continue
            g_final.add(gid)
            self.stats.groups_finalized += 1
            if self._tracer is not None:
                self._tracer.event(
                    "scc.settle", comp=comp, members=len(self._g_members[gid])
                )
            for pid in self._g_members[gid]:
                self._finalize_pair(pid)
            # The rescan loop's ``changed`` sweep, made event-driven:
            # finality can unblock condensed in-parents.
            for x in self._g_comp_in[gid]:
                parent = alias[x]
                if alias[parent] != parent:
                    parent = find(x)
                if parent != gid and parent not in g_final:
                    candidates.add(parent)

    def _resolve_comp_groups(self, comp: int) -> None:
        """Finalise confirmed groups whose downstream region is settled.

        A confirmed group is final once (1) every member's external
        children are final, and (2) every in-comp child pair of a member
        is DEAD or confirmed into this group or an already-final group.
        No later merge can change such a group: a new pair-cycle through
        it would require a confirmed path back from its (fully decided,
        merge-stable) descendants.  This is what lets ``v.h`` collapse to
        ``v.l`` for parts of a pattern-cycle region long before the whole
        component is exhausted — the engine's counterpart of the paper's
        per-candidate h-refinement for cyclic patterns.
        """
        if self._comp_finalized[comp]:
            return
        status = self._status
        # Group the comp's confirmed-but-unfinalised pairs by group root.
        by_group: dict[int, list[int]] = {}
        for pid in self._comp_pairs[comp]:
            if status[pid] == CONFIRMED and not self._finalized[pid]:
                by_group.setdefault(self._find(self._group_of[pid]), []).append(pid)

        changed = True
        while changed:
            changed = False
            for gid, members in list(by_group.items()):
                if gid in self._g_final:
                    continue
                final = True
                for pid in members:
                    if self._pending[pid] > 0:
                        final = False
                        break
                    u, v = self._pair_u[pid], self._pair_v[pid]
                    externals = self._edge_external[u]
                    successors = self._succs(v)
                    for local_idx, u_child in enumerate(self._out_edges[u]):
                        if externals[local_idx]:
                            continue
                        for q in self._pair_ids(u_child, successors):
                            if status[q] == DEAD:
                                continue
                            if status[q] == PENDING:
                                final = False
                                break
                            child_gid = self._find(self._group_of[q])
                            if child_gid != gid and child_gid not in self._g_final:
                                final = False
                                break
                        if not final:
                            break
                    if not final:
                        break
                if final:
                    self._g_final.add(gid)
                    self.stats.groups_finalized += 1
                    if self._tracer is not None:
                        self._tracer.event(
                            "scc.settle", comp=comp, members=len(members)
                        )
                    for pid in members:
                        self._finalize_pair(pid)
                    del by_group[gid]
                    changed = True

    def _decisive_ready(self, comp: int) -> bool:
        return (
            not self._comp_finalized[comp]
            and self._comp_unvisited[comp] == 0
            and self._comp_ext_pending[comp] == 0
        )

    def _decisive_finalize(self, comp: int) -> None:
        if not self._decisive_ready(comp):
            return
        # One last fixpoint with final external information, then settle.
        self._run_comp_fixpoint(comp)
        if self._confirm_queue or self._delta_queue or comp in self._dirty_comps:
            # New confirmations must propagate before the component can be
            # finalised; re-queue ourselves behind the fresh work.
            self._decisive_queue.append(comp)
            return
        self._comp_finalized[comp] = True
        self._comp_pending_act[comp].clear()
        for pid in self._comp_pairs[comp]:
            if self._finalized[pid]:
                continue
            if self._status[pid] == PENDING:
                self._status[pid] = DEAD
            self._finalize_pair(pid)

    # ------------------------------------------------------------------
    # finalisation (h-refinement) cascade
    # ------------------------------------------------------------------
    def _decide_trivial(self, pid: int) -> None:
        """All children of a trivial-SCC pair are final: settle its fate."""
        if self._finalized[pid]:
            return
        if self._status[pid] == PENDING:
            # Every child is final and some edge never found a confirmed
            # child — the Boolean formula can only evaluate to false.
            if self._unsat[pid] > 0:
                self._status[pid] = DEAD
            else:
                # Confirmation event is already queued; retry after it.
                self._confirm_queue.append(pid)
                self._finalize_queue.append(pid)
                return
        self._finalize_pair(pid)

    def _finalize_pair(self, pid: int) -> None:
        """Mark ``pid`` final and notify parents' pending counters."""
        if self._finalized[pid]:
            return
        self._finalized[pid] = True
        # Finalisation (and the DEAD transitions that precede it) can
        # move upper bounds, so it invalidates the termination cache.
        self._clock += 1
        u, v = self._pair_u[pid], self._pair_v[pid]
        comp = self._comp_of_node[u]
        if comp in self._nontrivial and not self._comp_finalized[comp]:
            # A dead comp pair finalised early: its external pending no
            # longer gates the component.
            self._comp_ext_pending[comp] -= self._pending[pid]
            self._pending[pid] = 0
            if self._decisive_ready(comp):
                self._decisive_queue.append(comp)
        predecessors = self._preds(v)
        pid_arr = self._pid_arr
        for u_parent, _ in self._in_edges[u]:
            parent_comp = self._comp_of_node[u_parent]
            in_comp_edge = parent_comp == comp and parent_comp in self._nontrivial
            if in_comp_edge:
                continue  # in-SCC finalisation is handled at component level
            if pid_arr is not None:
                parent_arr = pid_arr[u_parent]
                parent_pids = [
                    pp for w in predecessors if (pp := parent_arr[w]) >= 0
                ]
            else:
                parent_map = self._pid_of[u_parent]
                parent_pids = [
                    pp for w in predecessors if (pp := parent_map.get(w)) is not None
                ]
            for pp in parent_pids:
                if self._finalized[pp]:
                    continue
                self._pending[pp] -= 1
                if parent_comp in self._nontrivial:
                    self._comp_ext_pending[parent_comp] -= 1
                    self._comp_resolve_events[parent_comp] += 1
                    self._dirty_comps.add(parent_comp)
                    incremental = (
                        self.scc_incremental
                        and not self._comp_finalized[parent_comp]
                    )
                    if incremental and self._status[pp] == CONFIRMED:
                        root = self._find(self._group_of[pp])
                        self._g_ext_pending[root] -= 1
                        if (
                            self._g_ext_pending[root] == 0
                            and self._g_unresolved[root] == 0
                        ):
                            self._comp_resolve_candidates[parent_comp].add(root)
                    if (
                        self._pending[pp] == 0
                        and self._status[pp] == PENDING
                        and self._unsat[pp] > 0
                    ):
                        # All gates final yet some external edge never got
                        # a confirmed child: the pair can never match.
                        self._status[pp] = DEAD
                        if incremental:
                            self._scc_child_resolved(parent_comp, pp)
                        self._finalize_pair(pp)
                    if self._decisive_ready(parent_comp):
                        self._decisive_queue.append(parent_comp)
                elif self._pending[pp] == 0:
                    self._finalize_queue.append(pp)

    # ------------------------------------------------------------------
    # introspection for tests
    # ------------------------------------------------------------------
    def confirmed_matches(self, u: int) -> set[int]:
        """Matches of query node ``u`` confirmed so far."""
        return set(self._confirmed_sets[u])

    def debug_state(self, u: int, v: int) -> dict:
        """The paper's vector ``v.T`` for candidate ``v`` of ``u``."""
        pid = self._pid_of[u][v]
        rset = self.rset_of(pid)
        return {
            "status": ("pending", "confirmed", "dead")[self._status[pid]],
            "R": set(rset),
            "l": len(rset),
            "h": self.upper_value(pid) if self._pair_u[pid] == self.uo else None,
            "finalized": self._finalized[pid],
        }
