"""``ExecutionConfig`` — one validated object for every engine toggle.

Since PR 2 the engine family has grown a sprawl of representation
toggles (``optimized`` / ``use_csr`` / ``scc_incremental`` /
``rset_bitset``) plus tuning knobs (``bound_strategy``, ``batch_size``,
``presimulate``, ``seed``), each threaded as loose keyword arguments
through every wrapper — and the defaulting chain (``scc_incremental``
and ``rset_bitset`` follow ``use_csr``, which follows ``optimized``)
was copied into each of them.  :class:`ExecutionConfig` replaces the
kwargs sprawl with one frozen, validated dataclass that is threaded
through every layer, and :meth:`ExecutionConfig.resolved` is now the
*single* place the toggle-default logic lives.

The legacy keyword surface remains accepted everywhere via
:meth:`ExecutionConfig.adapt` (the deprecation adapter the wrappers
call): passing the old kwargs builds the equivalent config; passing
``config=`` wins, and mixing ``config=`` with an explicit legacy toggle
is rejected as ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import MatchingError

#: Per-candidate bound strategies of :mod:`repro.index.label_index`,
#: plus ``"sim"`` — the default simulation-aware :class:`SimBoundIndex`
#: (requires ``presimulate``; falls back to ``"hop"`` without it).
EXECUTION_BOUND_STRATEGIES = ("sim", "global", "counting", "exact", "hop")


@dataclass(frozen=True)
class ExecutionConfig:
    """How (not *what*) a query executes — every engine-family toggle.

    Attributes
    ----------
    optimized:
        The paper's opt/nopt split: greedy seed selection (and, via the
        defaulting chain, every representation fast path) versus random
        selection with the reference representations.
    use_csr:
        CSR snapshot fast path.  ``None`` (default) follows
        ``optimized``; forced ``True`` still degrades to the dict path
        when numpy is unavailable.
    scc_incremental:
        Incremental SCC group machinery (frontier-driven cycle
        collapse, counter-gated settlement).  ``None`` follows the
        resolved ``use_csr``.
    rset_bitset:
        Packed relevant sets + batched delta propagation.  ``None``
        follows the resolved ``use_csr``.
    bound_strategy:
        Upper-bound index strategy (see
        :data:`EXECUTION_BOUND_STRATEGIES`).
    batch_size:
        Seeds visited per propagation round (``None``: size-scaled
        default).
    presimulate:
        Run the simulation fixpoint up front (the paper's formula
        initialisation); required by the ``"sim"`` bound strategy.
    seed:
        RNG seed for the non-optimized random seed selection.
    trace:
        Install the process-default :class:`repro.obs.Tracer` for this
        query's run (phase spans, SCC merge/settle events, exported via
        :meth:`Tracer.export_jsonl`).  Default off — and off is a
        strict no-op: instrumentation sites read one contextvar per
        phase boundary and nothing else.
    metrics:
        Install the process-default
        :class:`repro.obs.MetricsRegistry` for this query's run (engine
        counters, cache hit/miss, fixpoint rounds, latency histograms).
        Same strict-no-op guarantee when off.
    slow_query_seconds:
        Per-query slow-query log threshold (the ``repro.slowquery``
        logger WARNs when a run exceeds it).  ``None`` falls back to
        the ``REPRO_SLOW_QUERY_SECONDS`` environment default, else off.
    workers:
        Worker *processes* for :meth:`MatchSession.run_batch` — the
        batch's structure groups are partitioned across a spawn-safe
        :class:`repro.session.parallel.WorkerPool` and answers come
        back in input order, identical to serial.  ``0`` (default) and
        ``1`` run serial in-process.
    snapshot_patching:
        Delta-aware serving under write streams.  When on, the session
        attaches a :class:`repro.graph.csr.SnapshotPatcher` to its
        graph — small deltas *patch* the cached CSR snapshot (overlay
        segments + tombstones) instead of recompiling it — and
        :meth:`SessionCache.refresh` after a mutation drops only the
        artifacts whose label signature intersects the accumulated
        delta (label-selective invalidation) instead of everything.
        Default off: the wholesale drop + full rebuild stays the
        oracle, answers are identical either way.
    compact_ratio:
        Overlay-size budget for snapshot patching, as a fraction of the
        flat base's size (``|V| + |E|``).  Once the accumulated op log
        exceeds it, the next snapshot request compacts back to a flat
        rebuild.  Only meaningful with ``snapshot_patching``.
    """

    optimized: bool = True
    use_csr: bool | None = None
    scc_incremental: bool | None = None
    rset_bitset: bool | None = None
    bound_strategy: str = "sim"
    batch_size: int | None = None
    presimulate: bool = True
    seed: int = 0
    trace: bool = False
    metrics: bool = False
    slow_query_seconds: float | None = None
    workers: int = 0
    snapshot_patching: bool = False
    compact_ratio: float = 0.25

    def __post_init__(self) -> None:
        if self.bound_strategy not in EXECUTION_BOUND_STRATEGIES:
            raise MatchingError(
                f"unknown bound strategy {self.bound_strategy!r}; "
                f"expected one of {EXECUTION_BOUND_STRATEGIES}"
            )
        if self.batch_size is not None and self.batch_size < 1:
            raise MatchingError(
                f"batch_size must be positive; got {self.batch_size}"
            )
        if self.slow_query_seconds is not None and self.slow_query_seconds <= 0:
            raise MatchingError(
                f"slow_query_seconds must be positive; got {self.slow_query_seconds}"
            )
        if self.workers < 0:
            raise MatchingError(
                f"workers must be non-negative; got {self.workers}"
            )
        if not (0.0 <= self.compact_ratio <= 1.0):
            raise MatchingError(
                f"compact_ratio must be within [0, 1]; got {self.compact_ratio}"
            )

    def resolved(self) -> "ExecutionConfig":
        """The config with every representation toggle made concrete.

        This is the single home of the toggle-default chain the engine
        wrappers used to copy:

        * ``use_csr`` defaults to ``optimized`` and is gated on the
          array backend actually being available;
        * ``scc_incremental`` and ``rset_bitset`` default to the
          resolved ``use_csr``, so the fully-off arm stays the
          reference oracle and ``optimized=True`` selects every fast
          path.

        Idempotent: resolving a resolved config returns it unchanged.
        """
        from repro.graph import csr

        use = self.optimized if self.use_csr is None else bool(self.use_csr)
        use = use and csr.available()
        scc = use if self.scc_incremental is None else bool(self.scc_incremental)
        rset = use if self.rset_bitset is None else bool(self.rset_bitset)
        if (use, scc, rset) == (self.use_csr, self.scc_incremental, self.rset_bitset):
            return self
        return replace(
            self, use_csr=use, scc_incremental=scc, rset_bitset=rset
        )

    @classmethod
    def adapt(
        cls,
        config: "ExecutionConfig | None" = None,
        *,
        optimized: bool = True,
        use_csr: bool | None = None,
        scc_incremental: bool | None = None,
        rset_bitset: bool | None = None,
        bound_strategy: str = "sim",
        batch_size: int | None = None,
        presimulate: bool = True,
        seed: int = 0,
    ) -> "ExecutionConfig":
        """The deprecation adapter mapping the legacy kwargs surface.

        Every engine wrapper funnels its old keyword arguments through
        here: with ``config`` given it wins outright — and combining it
        with *any* legacy kwarg set away from its default (a forced
        representation toggle, ``optimized=False``, a bound strategy, a
        batch size, …) is rejected as ambiguous rather than silently
        dropped.  Without ``config`` the kwargs build the equivalent
        config, preserving the historical defaulting exactly.
        """
        if config is not None:
            conflicting = [
                name
                for name, value, default in (
                    ("optimized", optimized, True),
                    ("use_csr", use_csr, None),
                    ("scc_incremental", scc_incremental, None),
                    ("rset_bitset", rset_bitset, None),
                    ("bound_strategy", bound_strategy, "sim"),
                    ("batch_size", batch_size, None),
                    ("presimulate", presimulate, True),
                    ("seed", seed, 0),
                )
                if value != default
            ]
            if conflicting:
                raise MatchingError(
                    "pass either config= or the legacy engine kwargs, not "
                    f"both (got config plus {', '.join(conflicting)})"
                )
            return config
        return cls(
            optimized=optimized,
            use_csr=use_csr,
            scc_incremental=scc_incremental,
            rset_bitset=rset_bitset,
            bound_strategy=bound_strategy,
            batch_size=batch_size,
            presimulate=presimulate,
            seed=seed,
        )
