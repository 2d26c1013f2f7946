"""Memoised swap scoring (TopKDH) and one-pass MAXDISP (TopKDiv) are exact.

Both diversified selection loops evaluate each distance or pair weight
once.  The reference functions below are the full-rescoring loops they
replaced, kept here as oracles: every instance must give the same
selection and a bit-identical objective value.  The counting tests pin
the evaluation counts, so a return to per-trial rescoring fails.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diversify.approx import top_k_diversified_approx
from repro.diversify.maxdisp import greedy_max_dispersion
from repro.obs import Tracer, use_tracer
from repro.ranking.context import RankingContext
from repro.ranking.distance import JaccardDistance
from repro.ranking.diversification import DiversificationObjective
from repro.ranking.generalized import (
    CommonNeighbours,
    DistanceBasedDiversity,
    JaccardCoefficient,
    NeighbourhoodDiversity,
    PreferentialAttachment,
)
from repro.ranking.relevance import NormalisedRelevance
from repro.session.config import ExecutionConfig
from repro.topk.engine import TopKEngine
from repro.topk.policies import DiversifiedPolicy
from repro.topk.selection import GreedySelection
from tests.conftest import make_random_graph, make_random_pattern

RELEVANCES = (NormalisedRelevance, PreferentialAttachment, CommonNeighbours, JaccardCoefficient)
DISTANCES = (JaccardDistance, NeighbourhoodDiversity, DistanceBasedDiversity)
KS = (1, 2, 3, 5, 10)
LAMS = (0.0, 0.5, 1.0)


# ----------------------------------------------------------------------
# reference oracles: the full-rescoring loops
# ----------------------------------------------------------------------
class FullRescoringPolicy(DiversifiedPolicy):
    """TopKDH scoring every trial set from scratch."""

    def _score(self, members):
        engine = self.engine
        rsets = {v: engine.partial_relevant(pid) for v, pid in members}
        return self.objective.score(engine.context, [v for v, _ in members], rsets)

    def _integrate(self, k):
        while self._fresh:
            candidate = self._fresh.pop()
            if candidate in self._selected:
                continue
            if len(self._selected) < k:
                self._selected.append(candidate)
                continue
            base = self._score(self._selected)
            best_gain = 0.0
            best_index = None
            for index in range(len(self._selected)):
                trial = list(self._selected)
                trial[index] = candidate
                gain = self._score(trial) - base
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_index = index
            if best_index is not None:
                self._selected[best_index] = candidate
        return 0


def reference_max_dispersion(items, k, pair_weight, single_weight=None):
    """Greedy MAXDISP re-evaluating every pair weight in every round."""
    pool = list(items)
    if k >= len(pool):
        return pool
    selected = []
    for _ in range(k // 2):
        best_pair = None
        best_score = float("-inf")
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                score = pair_weight(pool[i], pool[j])
                if score > best_score:
                    best_score = score
                    best_pair = (i, j)
        if best_pair is None:
            break
        i, j = best_pair
        selected.append(pool.pop(j))
        selected.append(pool.pop(i))
    if len(selected) < k and pool:
        best_item_index = 0
        best_score = float("-inf")
        for index, item in enumerate(pool):
            score = single_weight(item) if single_weight is not None else 0.0
            score += sum(pair_weight(item, chosen) for chosen in selected)
            if score > best_score:
                best_score = score
                best_item_index = index
        selected.append(pool.pop(best_item_index))
    return selected


def reference_approx(pattern, graph, k, objective, use_csr):
    """TopKDiv over the reference MAXDISP and ``pair_objective``."""
    context = RankingContext(pattern, graph, optimized=use_csr)
    if not context.simulation.total:
        return [], None
    objective.prepare(context)
    relevant = context.relevant

    def pair_weight(v1, v2):
        return objective.pair_objective(context, v1, relevant[v1], v2, relevant[v2])

    def single_weight(v):
        return (1.0 - objective.lam) / max(1, k - 1) * objective.relevance.value(
            context, v, relevant[v]
        )

    selected = reference_max_dispersion(context.matches, k, pair_weight, single_weight)
    return selected, objective.score_matches(context, selected)


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------
def instance(seed, cyclic):
    graph = make_random_graph(seed, num_nodes=36, num_edges=110, labels="AB")
    pattern = make_random_pattern(seed, num_nodes=3, extra_edges=1, labels="AB", cyclic=cyclic)
    return graph, pattern


def objective_for(lam, k, relevance, distance):
    return DiversificationObjective(lam=lam, k=k, relevance=relevance(), distance=distance())


def run_dh(pattern, graph, k, objective, policy_class, config):
    engine = TopKEngine(
        pattern,
        graph,
        k,
        policy=policy_class(objective),
        strategy=GreedySelection(),
        algorithm_name="TopKDH",
        config=config,
    )
    return engine.run()


instances = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10_000),
        "cyclic": st.booleans(),
        "k": st.sampled_from(KS),
        "lam": st.sampled_from(LAMS),
        "relevance": st.sampled_from(RELEVANCES),
        "distance": st.sampled_from(DISTANCES),
        "use_csr": st.booleans(),
        "rset_bitset": st.booleans(),
    }
)


class TestTopKDHExact:
    @settings(max_examples=120, deadline=None)
    @given(case=instances)
    def test_memoised_swaps_match_full_rescoring(self, case):
        graph, pattern = instance(case["seed"], case["cyclic"])
        config = ExecutionConfig(use_csr=case["use_csr"], rset_bitset=case["rset_bitset"])
        args = (case["lam"], case["k"], case["relevance"], case["distance"])
        got = run_dh(pattern, graph, case["k"], objective_for(*args), DiversifiedPolicy, config)
        want = run_dh(pattern, graph, case["k"], objective_for(*args), FullRescoringPolicy, config)
        assert got.matches == want.matches
        assert got.scores == want.scores
        assert got.objective_value == want.objective_value

    @pytest.mark.parametrize("use_csr", [True, False])
    @pytest.mark.parametrize("rset_bitset", [True, False])
    @pytest.mark.parametrize("lam", LAMS)
    @pytest.mark.parametrize("k", KS)
    def test_default_functions_every_representation(self, k, lam, use_csr, rset_bitset):
        config = ExecutionConfig(use_csr=use_csr, rset_bitset=rset_bitset)
        for seed in range(4):
            graph, pattern = instance(seed, cyclic=bool(seed % 2))
            got = run_dh(pattern, graph, k, DiversificationObjective(lam, k), DiversifiedPolicy, config)
            want = run_dh(pattern, graph, k, DiversificationObjective(lam, k), FullRescoringPolicy, config)
            assert (got.matches, got.objective_value) == (want.matches, want.objective_value)


class TestTopKDivExact:
    @settings(max_examples=120, deadline=None)
    @given(case=instances)
    def test_one_pass_maxdisp_matches_round_by_round(self, case):
        graph, pattern = instance(case["seed"], case["cyclic"])
        config = ExecutionConfig(use_csr=case["use_csr"], rset_bitset=case["rset_bitset"])
        args = (case["lam"], case["k"], case["relevance"], case["distance"])
        got = top_k_diversified_approx(
            pattern, graph, case["k"], objective=objective_for(*args), config=config
        )
        want, value = reference_approx(
            pattern, graph, case["k"], objective_for(*args), config.resolved().use_csr
        )
        assert got.matches == want
        assert got.objective_value == value

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 12, 13])
    def test_integer_weights_with_ties(self, k):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randrange(1, 14)
            matrix = {
                (i, j): float(rng.randrange(4)) for i, j in itertools.combinations(range(n), 2)
            }
            singles = [float(rng.randrange(3)) for _ in range(n)]

            def weight(a, b):
                return matrix[(min(a, b), max(a, b))]

            items = list(range(n))
            got = greedy_max_dispersion(items, k, weight, singles.__getitem__)
            assert got == reference_max_dispersion(items, k, weight, singles.__getitem__)
            got = greedy_max_dispersion(items, k, weight)
            assert got == reference_max_dispersion(items, k, weight)

    def test_weights_never_above_minus_infinity(self):
        items = list(range(6))
        weight = lambda a, b: float("-inf")  # noqa: E731
        for k in (2, 3, 4):
            assert greedy_max_dispersion(items, k, weight) == reference_max_dispersion(
                items, k, weight
            )


# ----------------------------------------------------------------------
# evaluation counts
# ----------------------------------------------------------------------
class CountingJaccard(JaccardDistance):
    def __init__(self):
        self.calls = 0

    def distance(self, ctx, v1, rset1, v2, rset2):
        self.calls += 1
        return super().distance(ctx, v1, rset1, v2, rset2)


class CountingPolicy(DiversifiedPolicy):
    """Records ``(fresh candidates, distances evaluated)`` per call."""

    def bind(self, engine):
        super().bind(engine)
        self.calls = []

    def _integrate(self, k):
        before = self.objective.distance.calls
        fresh = len(self._fresh)
        returned = super()._integrate(k)
        evaluated = self.objective.distance.calls - before
        assert returned == evaluated
        self.calls.append((fresh, evaluated))
        return returned


class TestEvaluationCounts:
    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_one_integrate_call_stays_within_the_swap_budget(self, k):
        """At most k(k-1)/2 + 2k distances per integrated candidate.

        The design's own bound is tighter: the members' k(k-1)/2
        distances once per call, plus two rows of k-1 per candidate (one
        per argument order).  Full rescoring would spend (k+1)·k(k-1)/2
        per candidate.
        """
        busiest = 0
        for seed in range(6):
            graph, pattern = instance(seed, cyclic=bool(seed % 2))
            objective = DiversificationObjective(lam=0.5, k=k, distance=CountingJaccard())
            policy = CountingPolicy(objective)
            TopKEngine(pattern, graph, k, policy=policy, strategy=GreedySelection()).run()
            for fresh, evaluated in policy.calls:
                assert evaluated <= fresh * (k * (k - 1) // 2 + 2 * k)
                assert evaluated <= k * (k - 1) // 2 + 2 * (k - 1) * fresh
                busiest = max(busiest, evaluated)
        assert busiest > 0  # the instances do reach the swap stage

    def test_relevance_only_objective_evaluates_no_distance(self):
        graph, pattern = instance(0, cyclic=False)
        objective = DiversificationObjective(lam=0.0, k=3, distance=CountingJaccard())
        policy = CountingPolicy(objective)
        TopKEngine(pattern, graph, 3, policy=policy, strategy=GreedySelection()).run()
        assert objective.distance.calls == 0

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 16])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 10])
    def test_maxdisp_evaluates_each_pair_weight_once(self, n, k):
        """Bound of the flat-array design: n(n-1)/2 evaluations, none
        when ``k >= n`` or when no pair round runs (``k = 1``)."""
        calls = []

        def weight(a, b):
            calls.append((a, b))
            return float((a * 7 + b * 3) % 5)

        greedy_max_dispersion(list(range(n)), k, weight)
        expected = n * (n - 1) // 2 if 2 <= k < n else 0
        assert len(calls) == expected
        assert len(set(calls)) == len(calls)
        assert all(a < b for a, b in calls)


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestSelectionSpan:
    @pytest.mark.parametrize("method", ["heuristic", "approx"])
    def test_one_select_span_per_diversified_query(self, fig1, method):
        from repro import api

        tracer = Tracer()
        with use_tracer(tracer):
            for k in (2, 3):
                api.diversified_matches(fig1.pattern, fig1.graph, k, lam=0.5, method=method)
        spans = [s for s in tracer.spans if s.name == "diversify.select"]
        assert len(spans) == 2
        expected = {"TopKDiv"} if method == "approx" else {"TopKDH", "TopKDAGDH"}
        for span in spans:
            assert span.attrs["algorithm"] in expected
            assert span.attrs["candidates"] > 0
            assert span.attrs["distance_evals"] >= 0
