"""Checks of the benchmark's own machinery (run with pytest)."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from perfbench import answers, spec, stats, workload
from perfbench.layers import LayerTracer, installed_wrappers

ROOT = Path(__file__).resolve().parent.parent


class TestTail:
    def test_hundred_samples_give_p90_with_ten_beyond(self):
        t = stats.tail([float(v) for v in range(100, 0, -1)])
        assert (t.value, t.percentile, t.samples, t.beyond) == (90.0, 90.0, 100, 10)

    def test_eleven_samples_give_the_smallest(self):
        t = stats.tail([float(v) for v in range(1, 12)])
        assert t.value == 1.0 and t.beyond == 10
        assert t.percentile == pytest.approx(100.0 / 11)

    def test_too_few_samples_give_the_maximum_with_nothing_beyond(self):
        t = stats.tail([3.0, 1.0, 2.0])
        assert (t.value, t.percentile, t.beyond) == (3.0, 100.0, 0)

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            stats.tail([])

    def test_median(self):
        assert stats.median([5.0, 1.0, 3.0]) == 3.0
        assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5


class TestSelfTime:
    def test_children_are_subtracted_once_per_level(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("b", 5.0, 6.0, 0),
            ("a.child", 2.0, 3.0, 1),
        ]
        assert stats.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_as_their_union(self):
        spans = [("root", 0.0, 10.0, -1), ("x", 1.0, 4.0, 0), ("y", 3.0, 5.0, 0)]
        assert stats.self_times(spans)[0] == pytest.approx(6.0)

    def test_child_outside_its_parent_is_clipped(self):
        spans = [("root", 0.0, 2.0, -1), ("late", 1.0, 3.0, 0)]
        assert stats.self_times(spans)[0] == pytest.approx(1.0)


class TestTracer:
    def test_untraced_process_carries_no_wrapper(self):
        from perfbench.layers import entry_points

        entry_points()  # imports every traced module
        assert installed_wrappers() == []

    def test_install_records_nested_spans_and_uninstall_restores(self):
        from repro.datasets.examples import figure1
        from repro.session import MatchSession, QuerySpec
        from repro.session import cache as session_cache
        from repro.simulation import candidates

        original = candidates.compute_candidates
        fig = figure1()
        tracer = LayerTracer()
        tracer.install()
        try:
            assert "repro.session.session.MatchSession.run_batch" in installed_wrappers()
            assert session_cache.compute_candidates is candidates.compute_candidates
            assert session_cache.compute_candidates is not original
            tracer.phase = "loop"
            with MatchSession(fig.graph) as session:
                session.run_batch([QuerySpec(fig.pattern, k=2)])
        finally:
            tracer.uninstall()
        assert installed_wrappers() == []
        assert session_cache.compute_candidates is original

        names = [span[0] for span in tracer.spans]
        assert names[0] == "session.dispatch"
        engine = names.index("topk.engine")
        assert tracer.spans[engine][3] == 0  # nested under run_batch
        totals = tracer.totals()
        dispatch_self, calls = totals[("session.dispatch", "loop")]
        first = tracer.spans[0]
        assert calls == 1 and 0.0 <= dispatch_self <= first[2] - first[1]

    def test_install_twice_is_refused(self):
        tracer = LayerTracer()
        tracer.install()
        try:
            with pytest.raises(RuntimeError):
                tracer.install()
        finally:
            tracer.uninstall()
        assert installed_wrappers() == []


class TestAnswers:
    def test_objective_compares_with_tolerance_and_matches_exactly(self):
        ref = {"matches": [1, 2], "scores": [[1, 0.5], [2, 0.25]], "objective": 1.0}
        assert answers.same(dict(ref, objective=1.0 + 1e-12), ref)
        assert not answers.same(dict(ref, matches=[2, 1]), ref)
        assert not answers.same(dict(ref, objective=None), ref)

    def test_multi_output_answers_compare_per_output(self):
        one = {"matches": [1], "scores": [[1, 1.0]], "objective": None}
        other = {"matches": [2], "scores": [[2, 1.0]], "objective": None}
        assert answers.same({"multi": {"0": one}}, {"multi": {"0": one}})
        assert not answers.same({"multi": {"0": one}}, {"multi": {"0": other}})
        assert not answers.same(one, {"multi": {"0": one}})


class _Replayed(workload.Workload):
    """Two blocks of two no-op operations, on a counting fake setup."""

    def __init__(self) -> None:
        self.plan = {"ops": [{"block": b} for b in (0, 0, 1, 1)]}
        self.setups = 0

    def setup(self) -> dict:
        self.setups += 1
        return {"setup": self.setups}

    def teardown(self, state: dict) -> None:
        pass

    def run(self, state: dict, op, record) -> None:
        time.sleep(0.002)
        record.answers.append((0, str(state["setup"]), None))


class TestLoop:
    def test_each_replay_of_the_plan_starts_on_a_fresh_setup(self, tmp_path):
        fake = _Replayed()
        state = fake.setup()
        ops = fake.ops()[:12]
        progress = workload.Progress(tmp_path / "progress")
        records, _, resets = workload.run_loop(fake, state, ops, None, progress)
        progress.close()
        assert len(resets) == 2 and fake.setups == 3
        assert [r.answers[0][1] for r in records] == ["1"] * 4 + ["2"] * 4 + ["3"] * 4

    def test_a_timed_loop_stops_on_a_block_boundary(self, tmp_path):
        fake = _Replayed()
        progress = workload.Progress(tmp_path / "progress")
        records, _, resets = workload.run_loop(fake, fake.setup(), fake.ops(), 0.001, progress)
        progress.close()
        # The time is up during the first operation; its block finishes.
        assert len(records) == 2 and resets == []


def test_benchmark_json_matches_the_spec():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document == spec.benchmark_json()


def test_every_workload_has_a_traced_prefix():
    assert set(spec.TRACED_OPS) == {w.name for w in spec.WORKLOADS}
