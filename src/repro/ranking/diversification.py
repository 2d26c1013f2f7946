"""The bi-criteria diversification function ``F`` (paper Section 3.3).

For a k-element match set ``S`` of the output node::

    F(S) = (1 - λ) Σ_{v ∈ S} δ'r(uo, v)
         + (2 λ / (k - 1)) Σ_{vi, vj ∈ S, i < j} δd(vi, vj)

``λ ∈ [0, 1]`` trades relevance (λ = 0) against diversity (λ = 1); the
``2/(k-1)`` factor rescales the ``k(k-1)/2`` pair terms against the ``k``
relevance terms.  ``F`` is *not* submodular (Section 3.4, Remarks), which
is why topKDP needs the dedicated 2-approximation of Section 5.

This module also provides:

* ``pair_objective`` — the paper's ``F'(v1, v2)``, the edge weight of the
  MAXDISP reduction used by ``TopKDiv`` (Section 5.1);
* :class:`DiversificationObjective` — a reusable bundle of (relevance
  function, distance function, λ, k) consumed by every diversified
  algorithm, including the generalised ``F*`` of Section 3.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Mapping, Sequence

from repro.errors import RankingError
from repro.ranking.context import RankingContext
from repro.ranking.distance import DistanceFunction, JaccardDistance
from repro.ranking.relevance import NormalisedRelevance, RelevanceFunction


def check_lambda(lam: float) -> float:
    """Validate ``λ ∈ [0, 1]``."""
    if not (0.0 <= lam <= 1.0):
        raise RankingError(f"lambda must lie in [0, 1]; got {lam}")
    return lam


@dataclass
class DiversificationObjective:
    """The generalised ``F*``: relevance + distance functions, λ and k.

    The default configuration is exactly the paper's ``F`` of Section 3.3:
    normalised cardinality relevance and Jaccard distance.
    """

    lam: float = 0.5
    k: int = 10
    relevance: RelevanceFunction = field(default_factory=NormalisedRelevance)
    distance: DistanceFunction = field(default_factory=JaccardDistance)

    def __post_init__(self) -> None:
        check_lambda(self.lam)
        if self.k < 1:
            raise RankingError(f"k must be positive; got {self.k}")

    @property
    def diversity_scale(self) -> float:
        """``2λ / (k - 1)``; 0 when k = 1 (no pairs to score)."""
        if self.k <= 1:
            return 0.0
        return 2.0 * self.lam / (self.k - 1)

    def prepare(self, ctx: RankingContext) -> None:
        self.relevance.prepare(ctx)
        self.distance.prepare(ctx)

    # ------------------------------------------------------------------
    # scoring given explicit relevant sets (works on partial sets too,
    # which is how TopKDH evaluates its F'' on in-flight lower bounds)
    # ------------------------------------------------------------------
    def score(
        self,
        ctx: RankingContext,
        members: Sequence[int],
        rsets: Mapping[int, AbstractSet[int]],
    ) -> float:
        """``F*(S)`` for ``S = members`` with relevant sets ``rsets``."""
        distance = self.distance.distance
        return self.combine(
            [self.relevance.value(ctx, v, rsets[v]) for v in members],
            (
                distance(ctx, v1, rsets[v1], v2, rsets[v2])
                for i, v1 in enumerate(members)
                for v2 in members[i + 1 :]
            ),
        )

    def combine(self, values: Sequence[float], distances: Iterable[float]) -> float:
        """``F*(S)`` from its members' relevance values and pair distances.

        ``distances`` lists ``δ*d(vi, vj)`` for ``i < j`` in row order and
        is consumed only when ``λ > 0`` and ``k > 1``.  This is the one
        home of the formula's float operations, so callers that cache
        values and distances (TopKDH's swap trials) score bit for bit as
        :meth:`score` does.
        """
        rel = (1.0 - self.lam) * self.relevance.of_set(values)
        div = 0.0
        scale = self.diversity_scale
        if scale:
            for d in distances:
                div += d
            div *= scale
        return rel + div

    def score_matches(self, ctx: RankingContext, members: Sequence[int]) -> float:
        """``F*(S)`` using the context's exact relevant sets."""
        return self.score(ctx, members, ctx.relevant)

    def pair_objective(
        self,
        ctx: RankingContext,
        v1: int,
        rset1: AbstractSet[int],
        v2: int,
        rset2: AbstractSet[int],
    ) -> float:
        """The paper's ``F'(v1, v2)`` (Section 5.1)::

            F'(v1,v2) = (1-λ)/(k-1) (δ'r(v1) + δ'r(v2)) + 2λ/(k-1) δd(v1,v2)

        Summing ``F'`` over all pairs of a k-set recovers ``F`` exactly,
        which is what gives TopKDiv its approximation guarantee.
        """
        if self.k <= 1:
            return (1.0 - self.lam) * self.relevance.value(ctx, v1, rset1)
        return self.pair_value(
            self.relevance.value(ctx, v1, rset1),
            self.relevance.value(ctx, v2, rset2),
            self.distance.distance(ctx, v1, rset1, v2, rset2),
        )

    def pair_value(self, rel1: float, rel2: float, dist: float) -> float:
        """``F'(v1, v2)`` from ``δ*r(v1)``, ``δ*r(v2)`` and ``δ*d(v1, v2)``.

        For ``k > 1``; TopKDiv computes each match's relevance once and
        feeds it here for every pair.
        """
        rel = (1.0 - self.lam) / (self.k - 1) * (rel1 + rel2)
        div = (2.0 * self.lam / (self.k - 1)) * dist
        return rel + div


def diversification_score(
    ctx: RankingContext,
    members: Sequence[int],
    lam: float,
    k: int | None = None,
) -> float:
    """Convenience: the paper's ``F(S)`` with default functions.

    ``k`` defaults to ``len(members)`` — scoring a set by its own size,
    which is how Example 6 evaluates candidate sets.  ``F(∅) = 0``.
    """
    members = list(members)
    if not members:
        check_lambda(lam)
        return 0.0
    objective = DiversificationObjective(lam=lam, k=k if k is not None else len(members))
    objective.prepare(ctx)
    return objective.score_matches(ctx, members)
