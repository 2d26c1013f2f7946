"""Tests for the diversification objective F."""

import pytest

from repro.errors import RankingError
from repro.ranking.context import RankingContext
from repro.ranking.diversification import (
    DiversificationObjective,
    check_lambda,
    diversification_score,
)


class TestValidation:
    @pytest.mark.parametrize("lam", [-0.1, 1.1])
    def test_lambda_out_of_range(self, lam):
        with pytest.raises(RankingError):
            check_lambda(lam)

    def test_bad_k(self):
        with pytest.raises(RankingError):
            DiversificationObjective(lam=0.5, k=0)


class TestObjective:
    def test_lambda_zero_is_pure_relevance(self, fig1):
        ctx = RankingContext(fig1.pattern, fig1.graph)
        obj = DiversificationObjective(lam=0.0, k=2)
        obj.prepare(ctx)
        pm2, pm3 = fig1.node("PM2"), fig1.node("PM3")
        assert abs(obj.score_matches(ctx, [pm2, pm3]) - 14 / 11) < 1e-12

    def test_lambda_one_is_pure_diversity(self, fig1):
        ctx = RankingContext(fig1.pattern, fig1.graph)
        obj = DiversificationObjective(lam=1.0, k=2)
        obj.prepare(ctx)
        pm1, pm3 = fig1.node("PM1"), fig1.node("PM3")
        assert abs(obj.score_matches(ctx, [pm1, pm3]) - 2.0) < 1e-12

    def test_k1_has_no_diversity_term(self, fig1):
        ctx = RankingContext(fig1.pattern, fig1.graph)
        obj = DiversificationObjective(lam=0.7, k=1)
        obj.prepare(ctx)
        pm2 = fig1.node("PM2")
        assert abs(obj.score_matches(ctx, [pm2]) - 0.3 * 8 / 11) < 1e-12

    def test_diversity_scale(self):
        assert DiversificationObjective(lam=0.5, k=3).diversity_scale == 0.5
        assert DiversificationObjective(lam=0.5, k=1).diversity_scale == 0.0

    def test_pair_objective_sums_to_f(self, fig1):
        # Section 5.1: summing F' over all pairs of S recovers F(S).
        ctx = RankingContext(fig1.pattern, fig1.graph)
        k = 3
        obj = DiversificationObjective(lam=0.4, k=k)
        obj.prepare(ctx)
        members = [fig1.node("PM1"), fig1.node("PM2"), fig1.node("PM3")]
        pair_sum = 0.0
        for i, v1 in enumerate(members):
            for v2 in members[i + 1:]:
                pair_sum += obj.pair_objective(ctx, v1, ctx.relevant[v1], v2, ctx.relevant[v2])
        assert abs(pair_sum - obj.score_matches(ctx, members)) < 1e-12

    def test_partial_rsets_supported(self, fig1):
        ctx = RankingContext(fig1.pattern, fig1.graph)
        obj = DiversificationObjective(lam=0.5, k=2)
        obj.prepare(ctx)
        score = obj.score(ctx, [1, 2], {1: {5}, 2: {6}})
        assert score > 0

    def test_convenience_wrapper_defaults_k_to_len(self, fig1):
        ctx = RankingContext(fig1.pattern, fig1.graph)
        pm1, pm3 = fig1.node("PM1"), fig1.node("PM3")
        score = diversification_score(ctx, [pm1, pm3], lam=1.0)
        assert abs(score - 2.0) < 1e-12

    @pytest.mark.parametrize("k", [None, 3])
    def test_empty_set_scores_zero(self, fig1, k):
        # F(∅) = 0; k defaulting to len([]) = 0 used to raise RankingError.
        ctx = RankingContext(fig1.pattern, fig1.graph)
        assert diversification_score(ctx, [], 0.5, k) == 0.0

    def test_empty_set_still_validates_lambda(self, fig1):
        ctx = RankingContext(fig1.pattern, fig1.graph)
        with pytest.raises(RankingError):
            diversification_score(ctx, [], 1.5)


class TestNonSubmodularity:
    def test_f_is_not_submodular(self, fig1):
        # Section 3.4 Remarks: F violates the submodularity inequality.
        ctx = RankingContext(fig1.pattern, fig1.graph)
        matches = ctx.matches
        found_violation = False
        for lam in (0.5, 0.8):
            for x in matches:
                small = [m for m in matches if m != x][:1]
                big = [m for m in matches if m != x][:2]
                k = len(big) + 1
                obj = DiversificationObjective(lam=lam, k=k)
                obj.prepare(ctx)
                gain_small = obj.score_matches(ctx, small + [x]) - obj.score_matches(ctx, small)
                gain_big = obj.score_matches(ctx, big + [x]) - obj.score_matches(ctx, big)
                if gain_big > gain_small + 1e-12:
                    found_violation = True
        assert found_violation
