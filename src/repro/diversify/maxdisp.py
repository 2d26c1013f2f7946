"""Greedy 2-approximation for Maximum Dispersion (MAXDISP).

Hassin, Rubinstein & Tamir (Operations Research Letters 1997): to pick a
k-node subgraph of a weighted complete graph maximising the sum of node
and edge weights, repeatedly take the pair maximising the combined weight
``w(v1) + w(v2) + w(v1, v2)`` and remove it; ``⌊k/2⌋`` rounds give a
2-approximation.

Section 5.1 of the paper reduces topKDP to MAXDISP: nodes are the matches
of ``uo`` weighted by scaled relevance, edges by scaled distance, so that
the induced-subgraph weight of a k-set equals ``F(S)``.  ``TopKDiv``
simulates this greedy — implemented here over an abstract pair objective
so both the paper's ``F'`` and test instances can drive it.

Cost: the pair weights never change between rounds, so each of the
``n(n-1)/2`` weights is evaluated once into a flat ``array('d')``
(``8 · n(n-1)/2`` bytes).  Each row keeps its best remaining partner, so
a round scans the ``n`` row maxima and rescans only the rows whose best
partner it took; the odd-``k`` step reads the cached weights too.
"""

from __future__ import annotations

from array import array
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def greedy_max_dispersion(
    items: Sequence[T],
    k: int,
    pair_weight: Callable[[T, T], float],
    single_weight: Callable[[T], float] | None = None,
) -> list[T]:
    """Greedy MAXDISP selection of ``k`` items.

    ``pair_weight(a, b)`` is the full objective contribution of a chosen
    pair; it must be symmetric (the MAXDISP graph is undirected) and is
    called once per pair, with ``a`` before ``b`` in ``items``.  Each
    round takes the first pair, in ``items`` order, of the greatest
    weight.  For odd ``k`` the final element maximises ``single_weight``
    plus its pair weights to the already-selected items (the paper's
    "greedily select v maximising F(S ∪ {v})" step).

    Returns all items when ``k >= len(items)``.
    """
    pool = list(items)
    n = len(pool)
    if k >= n:
        return pool
    rounds = k // 2
    # weights[start[i] + j]: pair (i, j) for i < j.
    weights = array("d")
    start = [0] * n
    best_partner = [-1] * n
    best_weight = [float("-inf")] * n
    if rounds:
        for i in range(n):
            start[i] = len(weights) - i - 1
            item = pool[i]
            row = [pair_weight(item, pool[j]) for j in range(i + 1, n)]
            weights.extend(row)
            top = float("-inf")
            for offset, weight in enumerate(row):
                if weight > top:
                    top = weight
                    best_partner[i] = i + 1 + offset
            best_weight[i] = top
    alive = [True] * n
    chosen: list[int] = []

    for _ in range(rounds):
        first = -1
        top = float("-inf")
        for i in range(n):
            if alive[i] and best_weight[i] > top:
                top = best_weight[i]
                first = i
        if first < 0:
            break
        second = best_partner[first]
        alive[first] = alive[second] = False
        chosen.append(second)
        chosen.append(first)
        for i in range(second):
            if alive[i] and best_partner[i] in (first, second):
                base = start[i]
                top = float("-inf")
                partner = -1
                for j in range(i + 1, n):
                    if alive[j] and weights[base + j] > top:
                        top = weights[base + j]
                        partner = j
                best_weight[i] = top
                best_partner[i] = partner

    selected = [pool[i] for i in chosen]
    if len(selected) < k:
        remaining = [index for index in range(n) if alive[index]]
        best_index = remaining[0]
        best_score = float("-inf")
        for index in remaining:
            score = single_weight(pool[index]) if single_weight is not None else 0.0
            score += sum(
                weights[start[c] + index] if c < index else weights[start[index] + c]
                for c in chosen
            )
            if score > best_score:
                best_score = score
                best_index = index
        selected.append(pool[best_index])

    return selected
