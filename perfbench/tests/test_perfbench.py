"""Self-tests for the benchmark's span recorder, patching and checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys

import numpy as np
import pytest

import nmhash
import checks
import spans
import workloads
from nmhash import data, metrics, network


def _span(sid, start, end, parent=None, name="x"):
    return spans.Span(sid, name, start, end, parent)


def test_self_time_of_nested_spans():
    tree = [_span(0, 0.0, 10.0),
            _span(1, 1.0, 4.0, parent=0),
            _span(2, 5.0, 9.0, parent=0),
            _span(3, 6.0, 7.0, parent=2)]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [_span(0, 0.0, 10.0),
            _span(1, 1.0, 4.0, parent=0),
            _span(2, 3.0, 6.0, parent=0),
            _span(3, 9.0, 12.0, parent=0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_nests_spans_by_call_order():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 10.0])
    recorder = spans.SpanRecorder(clock=lambda: next(ticks))
    with recorder.span("outer"):
        with recorder.span("inner"):
            with recorder.span("leaf"):
                pass
    outer, inner, leaf = recorder.spans
    assert (outer.parent, inner.parent, leaf.parent) == (None, 0, 1)
    assert spans.self_times(recorder.spans) == [4.0, 4.0, 2.0]


def _bindings():
    """(module name, attribute) -> object, for every name bound to a
    traced function in a loaded nmhash module."""
    modules = [m for name, m in sys.modules.items()
               if name == "nmhash" or name.startswith("nmhash.")]
    traced = {id(getattr(sys.modules[f"nmhash.{layer}"], f))
              for layer, names in spans.LAYER_FUNCTIONS.items()
              for f in names}
    return {(m.__name__, attr): value for m in modules
            for attr, value in vars(m).items() if id(value) in traced}


def test_instrument_patches_every_binding_and_restores_it():
    before = _bindings()
    assert before[("nmhash.training", "forward")] is network.forward
    assert before[("nmhash.merging", "relevance_matrix")] \
        is metrics.relevance_matrix
    recorder = spans.SpanRecorder()
    with pytest.raises(RuntimeError):
        with spans.instrument(recorder):
            for (module, attr), original in before.items():
                assert getattr(sys.modules[module], attr) is not original
            data.build_similarity([{1}, {2}], [{1}, {2}])
            raise RuntimeError("leave the context by an exception")
    assert [s.name for s in recorder.spans] == [
        "data.build_similarity", "metrics.relevance_matrix"]
    assert recorder.counts["metrics.relevance_matrix"]["cells"] == 4
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert nmhash.training.forward is network.forward


def _tiny_workload():
    return workloads.TrainingWorkload(
        "tiny", (3, 4, 30, 1.0, 0), 4, variant="full", b_in=6, b_out=4, m=2,
        base_epochs=2, n0_epochs=1, n1_epochs=1, seed=1, n_validation=10,
        n_query=10, backbone_sgd=network.SgdConfig(learning_rate=1e-6))


def test_traced_training_matches_untraced_and_accounts_for_stages():
    wl = _tiny_workload()
    plain = wl.setup()
    wl.train(plain)
    run = wl.setup()
    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        with recorder.span(spans.TRAIN_SPAN):
            wl.train(run, recorder)
    assert wl.report(run) == wl.report(plain)
    assert checks.report_problems(wl.report(run), wl.report(plain), 4) == []

    layer = spans.layer_metrics(recorder)
    assert layer["training.epochs"] == run.global_epoch
    assert layer["network.backward.calls"] > 0
    assert layer["merging.score_neurons.calls"] > 0
    stage_total = sum(layer[f"training.{s}.s"] for s in spans.STAGES)
    accounting = spans.stage_accounting(recorder)
    assert accounting["stage_s"] == pytest.approx(stage_total, rel=1e-12)
    assert accounting["wrapped_self_s"] > 0
    assert accounting["training_self_s"] == pytest.approx(
        layer["training.self.s"], rel=1e-12)
    assert accounting["remainder_s"] == pytest.approx(0.0, abs=1e-9)


def test_report_check_flags_each_invariant():
    wl = _tiny_workload()
    run = wl.setup()
    wl.train(run)
    good = wl.report(run)
    assert checks.report_problems(good, good, 4) == []
    bad = json.loads(good)
    bad["final"]["effective_bits"] = 5
    bad["bit_trace"][-1][0] = 5
    bad["leave_one_out"]["map_without_bit"].pop()
    problems = checks.report_problems(
        json.dumps(bad, sort_keys=True, indent=1), good, 4)
    assert len(problems) == 4


def _retrieval_case():
    rng = np.random.default_rng(3)
    gallery = rng.choice([-1.0, 0.0, 1.0], size=(60, 8), p=[0.45, 0.1, 0.45])
    queries = rng.choice([-1.0, 1.0], size=(5, 8))
    g_labels = [{int(c)} for c in rng.integers(0, 3, 60)]
    q_labels = [{int(c)} for c in rng.integers(0, 3, 5)]
    result = metrics.retrieve(queries, q_labels, gallery, g_labels, top_r=20)
    return result, queries, q_labels, gallery, g_labels


def test_ranking_check_accepts_retrieve():
    result, q, q_labels, g, g_labels = _retrieval_case()
    assert checks.ranking_problems(result, q, q_labels, g, g_labels, 20) == []


def test_ranking_check_catches_a_swapped_pair():
    result, q, q_labels, g, g_labels = _retrieval_case()
    result.ranked_indices = result.ranked_indices.copy()
    row = result.ranked_indices[2]
    row[[4, 9]] = row[[9, 4]]
    problems = checks.ranking_problems(result, q, q_labels, g, g_labels, 20)
    assert len(problems) == 1 and problems[0].startswith("query row 2")
