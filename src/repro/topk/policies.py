"""Selection policies: what the engine keeps in its answer heap ``S``.

The engine confirms matches of the output node one batch at a time; a
policy decides which k of them constitute the current answer set.  Two
policies realise the paper's two problems:

* :class:`RelevancePolicy` — topKP (Section 4): keep the k confirmed
  matches with the largest lower bounds ``v.l``.
* :class:`DiversifiedPolicy` — topKDP via the ``TopKDH`` heuristic
  (Section 5.2): greedily swap newly confirmed matches into ``S`` when the
  swap increases ``F''`` — the diversification function evaluated on the
  in-flight lower bounds (``v.l / C_uo`` for relevance, Jaccard over the
  partial relevant sets for distance).

Both share Proposition 3's termination test, which the engine evaluates
over the policy's current selection.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.obs import trace
from repro.ranking.diversification import DiversificationObjective

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topk.engine import TopKEngine


class SelectionPolicy(ABC):
    """Maintains the candidate answer set over confirmed output matches."""

    engine: "TopKEngine"

    def bind(self, engine: "TopKEngine") -> None:
        self.engine = engine

    @abstractmethod
    def on_confirmed(self, v: int, pid: int) -> None:
        """Called once whenever an output-node match is confirmed."""

    @abstractmethod
    def selection(self, k: int) -> list[tuple[int, int]]:
        """The current answer set as ``(v, pid)`` pairs (at most k)."""

    def final_selection(self, k: int) -> list[tuple[int, int]]:
        """The answer set reported when the engine stops."""
        return self.selection(k)

    def objective_value(self, k: int) -> float | None:
        """``F(S)`` of the current selection; ``None`` for relevance-only."""
        return None


class RelevancePolicy(SelectionPolicy):
    """topKP: the k confirmed matches with the greatest lower bounds."""

    def __init__(self) -> None:
        self._confirmed: list[tuple[int, int]] = []

    def bind(self, engine: "TopKEngine") -> None:
        super().bind(engine)
        self._confirmed = []

    def on_confirmed(self, v: int, pid: int) -> None:
        self._confirmed.append((v, pid))

    def selection(self, k: int) -> list[tuple[int, int]]:
        confirmed = self._confirmed
        lowers = self.engine.lower_values([pid for _, pid in confirmed])
        best = heapq.nlargest(
            k,
            range(len(confirmed)),
            key=lambda i: (lowers[i], -confirmed[i][0]),
        )
        return [confirmed[i] for i in best]


class DiversifiedPolicy(SelectionPolicy):
    """topKDP: the TopKDH greedy-swap heuristic over ``F''``.

    After each batch the engine asks for the selection; newly confirmed
    matches accumulated since the previous call are integrated:

    * while ``|S| < k`` the new match joins outright (paper case (a));
    * otherwise the swap ``S \\ {v} ∪ {v'}`` with the largest positive
      ``F''`` gain is applied (case (b)).
    """

    def __init__(self, objective: DiversificationObjective) -> None:
        self.objective = objective
        self._selected: list[tuple[int, int]] = []
        self._fresh: list[tuple[int, int]] = []
        self._seen: list[tuple[int, int]] = []

    def bind(self, engine: "TopKEngine") -> None:
        super().bind(engine)
        self._selected = []
        self._fresh = []
        self._seen = []
        self.objective.prepare(engine.context)

    def on_confirmed(self, v: int, pid: int) -> None:
        self._fresh.append((v, pid))
        self._seen.append((v, pid))

    def _score(self, members: list[tuple[int, int]]) -> float:
        engine = self.engine
        rsets = {v: engine.partial_relevant(pid) for v, pid in members}
        return self.objective.score(engine.context, [v for v, _ in members], rsets)

    def _integrate(self, k: int) -> int:
        """Swap the fresh matches into ``S``; returns the distances evaluated.

        The engine's partial relevant sets do not move within one call,
        so each member's set, relevance value and pair distance is
        evaluated once and memoised for this call only: ``pairs`` is the
        upper triangle of the k×k distance matrix in
        :meth:`DiversificationObjective.score`'s (i < j) order, and a
        candidate brings one distance row per argument order.  Each swap
        trial re-adds the cached floats through
        :meth:`DiversificationObjective.combine`, so every gain, and every
        swap, is the one a full rescoring of the trial set gives.
        """
        fresh = self._fresh
        selected = self._selected
        if not fresh:
            return 0
        engine = self.engine
        ctx = engine.context
        objective = self.objective
        combine = objective.combine
        value_of = objective.relevance.value
        distance_of = objective.distance.distance
        with_pairs = bool(objective.diversity_scale)
        evals = 0
        rsets: list = []
        values: list[float] = []
        pairs: list[float] = []
        slot: list[list[int]] = []  # slot[i][j]: index of the pair {i, j}
        base = 0.0
        while fresh:
            candidate = fresh.pop()
            if candidate in selected:
                continue
            size = len(selected)
            if size < k:
                selected.append(candidate)
                continue
            if not values:
                rsets = [engine.partial_relevant(pid) for _, pid in selected]
                values = [value_of(ctx, v, rsets[i]) for i, (v, _) in enumerate(selected)]
                if with_pairs:
                    slot = [[0] * size for _ in range(size)]
                    for i in range(size):
                        v1, rset1 = selected[i][0], rsets[i]
                        for j in range(i + 1, size):
                            slot[i][j] = slot[j][i] = len(pairs)
                            pairs.append(distance_of(ctx, v1, rset1, selected[j][0], rsets[j]))
                    evals += len(pairs)
                base = combine(values, pairs)
            v, pid = candidate
            rset = engine.partial_relevant(pid)
            value = value_of(ctx, v, rset)
            # before[m] = δ(S[m], v) scores the trials that replace a later
            # member, after[m] = δ(v, S[m]) those that replace an earlier one.
            before: list[float] = []
            after: list[float] = [0.0]
            if with_pairs:
                before = [
                    distance_of(ctx, selected[m][0], rsets[m], v, rset)
                    for m in range(size - 1)
                ]
                after += [
                    distance_of(ctx, v, rset, selected[m][0], rsets[m])
                    for m in range(1, size)
                ]
                evals += 2 * (size - 1)
            best_gain = 0.0
            best: tuple[int, list[float], list[float], float] | None = None
            for index in range(size):
                trial_values = values.copy()
                trial_values[index] = value
                trial_pairs = pairs.copy()
                if with_pairs:
                    row = slot[index]
                    for m in range(index):
                        trial_pairs[row[m]] = before[m]
                    for m in range(index + 1, size):
                        trial_pairs[row[m]] = after[m]
                trial = combine(trial_values, trial_pairs)
                gain = trial - base
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best = (index, trial_values, trial_pairs, trial)
            if best is not None:
                index, values, pairs, base = best
                selected[index] = candidate
                rsets[index] = rset
        return evals

    def selection(self, k: int) -> list[tuple[int, int]]:
        self._integrate(k)
        return list(self._selected)

    def final_selection(self, k: int) -> list[tuple[int, int]]:
        """Re-run the greedy swap over every inspected match.

        When the engine stops, the inspected matches carry their final
        (often exact) relevant sets; replaying the greedy pass over all of
        them repairs early decisions made on thin partial bounds.  Extra
        cost: k(k-1)/2 + 2(k-1) · |inspected| distance evaluations and
        O(k³) float additions per inspected match (k trials of k(k-1)/2
        cached terms), within the paper's O(k|V|²) budget for the
        heuristic's selection step.
        """
        if not self._seen:
            return []
        engine = self.engine
        ordered = sorted(
            set(self._seen),
            key=lambda item: (-engine.lower_value(item[1]), item[0]),
        )
        with trace(
            "diversify.select", algorithm=engine.algorithm_name, candidates=len(ordered)
        ) as span:
            self._selected = ordered[:k]
            self._fresh = ordered[k:]
            evals = self._integrate(k)
            if span is not None:
                span.set_attr(distance_evals=evals)
        return list(self._selected)

    def objective_value(self, k: int) -> float | None:
        self._integrate(k)
        if not self._selected:
            return None
        return self._score(self._selected)
