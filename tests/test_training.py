"""Training schedules: config, stage machine, variants, checkpoints."""

import json

import numpy as np
import pytest

import nmhash.training
from nmhash.data import assign_splits, generate_synthetic
from nmhash.errors import CheckpointError, ConfigError
from nmhash.network import SgdConfig
from nmhash.training import (
    CHECKPOINT_MAGIC,
    ExperimentConfig,
    RunReport,
    TrainingRun,
    leave_one_out,
    load_checkpoint,
    resume_training,
    run_variant,
    save_checkpoint,
)

# step size for this desk-scale data; the reference default (1e-4) diverges
# on raw pair-sum losses over small batches
DESK = SgdConfig(learning_rate=1e-7, weight_decay=1e-5)


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(4, 8, 60, 2.0, seed=0)  # 240 items


def small_config(**overrides):
    base = dict(b_in=8, b_out=6, m=2, base_epochs=2, n0_epochs=2,
                n1_epochs=2, batch_size=64, hidden_dims=(32,),
                backbone_sgd=DESK, seed=3, variant="full")
    base.update(overrides)
    return ExperimentConfig(**base)


# --- configuration -----------------------------------------------------------

def test_config_defaults_match_reference_constants():
    cfg = ExperimentConfig()
    assert cfg.b_in == 60
    assert cfg.m == 4
    assert cfg.n0_epochs == 5
    assert cfg.n1_epochs == 40
    assert cfg.batch_size == 128
    assert cfg.backbone_sgd.learning_rate == pytest.approx(1e-4)
    assert cfg.backbone_sgd.weight_decay == pytest.approx(1e-5)
    assert cfg.nm_learning_rate == pytest.approx(1e-2)
    assert cfg.eta == pytest.approx(1200.0)


@pytest.mark.parametrize("kwargs", [
    dict(b_in=8, b_out=9),
    dict(b_out=0),
    dict(m=0),
    dict(variant="baseline", b_in=24, b_out=16),
    dict(variant="select", n0_epochs=0),
    dict(variant="nonsense"),
    dict(base_epochs=-1),
    dict(dropout_rate=1.0),
    dict(batch_size=0),
    dict(score_every=0),
    dict(n_validation=-1),
    dict(hidden_dims=(0,)),
])
def test_config_rejects_invalid_values(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


def test_planned_merge_rounds_arithmetic():
    assert ExperimentConfig(b_in=24, b_out=16, m=4).planned_merge_rounds() == 2
    assert ExperimentConfig(b_in=24, b_out=16, m=8).planned_merge_rounds() == 1
    assert ExperimentConfig(b_in=24, b_out=16, m=3).planned_merge_rounds() == 3
    assert ExperimentConfig(
        b_in=16, b_out=16, variant="baseline").planned_merge_rounds() == 0


def test_split_size_defaults_and_overrides():
    cfg = ExperimentConfig()
    assert cfg.resolved_split_sizes(2000) == (200, 200)
    assert cfg.resolved_split_sizes(50_000) == (500, 500)
    explicit = ExperimentConfig(n_validation=7, n_query=9)
    assert explicit.resolved_split_sizes(2000) == (7, 9)


def test_config_dict_round_trip():
    cfg = small_config(variant="select", n_query=13)
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg
    assert isinstance(back.backbone_sgd, SgdConfig)


# --- base stage ---------------------------------------------------------------

def test_zero_base_epochs_leaves_initialization_untouched(dataset):
    cfg = small_config(variant="baseline", b_in=6, base_epochs=0)
    run = TrainingRun(cfg, dataset)
    before = [w.copy() for w in run.net.weights]
    run.run()
    assert run.done
    for w, ref in zip(run.net.weights, before):
        np.testing.assert_array_equal(w, ref)
    assert run.report().epochs_total == 0


def test_training_loss_decreases(dataset):
    cfg = small_config(variant="baseline", b_in=6, base_epochs=10)
    report = TrainingRun(cfg, dataset).run().report()
    losses = report.base["hash_loss_per_epoch"]
    assert len(losses) == 10
    assert losses[5] < losses[0]


# --- variant equivalences -------------------------------------------------------

def test_full_without_bit_gap_equals_baseline(dataset):
    # b_in == b_out: no merge rounds ever start, so the trajectory is the
    # plain fixed-width one
    full = TrainingRun(small_config(b_in=6, b_out=6), dataset).run()
    base = TrainingRun(
        small_config(variant="baseline", b_in=6, b_out=6), dataset).run()
    for wf, wb in zip(full.net.weights, base.net.weights):
        np.testing.assert_array_equal(wf, wb)
    assert full.report().final == base.report().final
    assert full.report().rounds == []


def test_dropout_at_rate_zero_equals_baseline(dataset):
    drop = TrainingRun(
        small_config(variant="dropout", b_in=8, dropout_rate=0.0),
        dataset).run()
    base = TrainingRun(
        small_config(variant="baseline", b_in=6, b_out=6), dataset).run()
    for wd, wb in zip(drop.net.weights, base.net.weights):
        np.testing.assert_array_equal(wd, wb)


def test_dropout_trains_at_output_width(dataset):
    run = TrainingRun(
        small_config(variant="dropout", dropout_rate=0.4), dataset).run()
    assert run.net.n_bits == 6
    report = run.report()
    assert report.final["effective_bits"] == 6
    assert report.rounds == []


# --- merging variants ------------------------------------------------------------

def test_full_run_structure(dataset):
    run = TrainingRun(small_config(), dataset).run()
    net, graph, report = run.net, run.graph, run.report()
    assert net.n_bits == 8  # encoder keeps its width; merging is on top
    assert graph.n_groups == 6
    assert sorted(i for g in graph.groups for i in g) == list(range(8))
    assert report.epochs_total == 2 + 2 + 2
    assert [b for b, _ in report.bit_trace] == [8, 6]
    assert len(report.rounds) == 1
    round0 = report.rounds[0]
    assert round0["bits_before"] == 8
    assert round0["bits_after"] == 6
    assert 1 <= round0["m_used"] <= 2
    assert len(round0["active_loss_per_epoch"]) == 2
    assert len(round0["frozen_loss_per_epoch"]) == 2
    assert report.leave_one_out is not None
    assert len(report.leave_one_out["map_without_bit"]) == 6
    assert report.groups == graph.groups


def test_select_keeps_subset_of_bits(dataset):
    run = TrainingRun(small_config(variant="select"), dataset).run()
    report = run.report()
    assert report.selected_bits is not None
    assert len(report.selected_bits) == 6
    assert report.selected_bits == sorted(report.selected_bits)
    assert set(report.selected_bits) <= set(range(8))
    assert run.net.n_bits == 6
    assert report.final["effective_bits"] == 6
    assert report.epochs_total == 2 + 2  # base + scoring epochs


def test_fclayer_collapses_to_output_width(dataset):
    run = TrainingRun(small_config(variant="fclayer"), dataset).run()
    report = run.report()
    assert run.net.n_bits == 6
    assert report.final["effective_bits"] == 6
    assert report.epochs_total == 2 + 1 * 2  # base + planned_rounds * n1
    assert report.selected_bits is None
    assert report.rounds == []


def test_random_variant_merges_without_active_epochs(dataset):
    run = TrainingRun(small_config(variant="random"), dataset).run()
    report = run.report()
    assert report.final["effective_bits"] == 6
    assert report.epochs_total == 2 + 2  # base + frozen only, no active
    assert len(report.rounds) == 1
    assert report.rounds[0]["active_loss_per_epoch"] == []


def test_same_seed_reports_are_byte_identical(dataset):
    a = run_variant(small_config(), dataset)
    b = run_variant(small_config(), dataset)
    assert a.to_json() == b.to_json()
    c = run_variant(small_config(variant="random"), dataset)
    d = run_variant(small_config(variant="random"), dataset)
    assert c.to_json() == d.to_json()


def test_different_seed_changes_the_run(dataset):
    a = run_variant(small_config(), dataset)
    b = run_variant(small_config(seed=4), dataset)
    assert a.to_json() != b.to_json()


# --- reports ----------------------------------------------------------------------

def test_report_requires_finished_run(dataset):
    run = TrainingRun(small_config(), dataset)
    run.run(stop_after=1)
    assert not run.done
    with pytest.raises(RuntimeError):
        run.report()


def test_report_json_round_trip(dataset):
    report = run_variant(small_config(), dataset)
    back = RunReport.from_json(report.to_json())
    assert back.to_json() == report.to_json()


def test_report_rejects_increasing_bit_trace():
    with pytest.raises(ValueError):
        RunReport(variant="full", seed=0, config={}, epochs_total=0,
                  base={}, rounds=[], bit_trace=[[6, 0.5], [8, 0.6]],
                  groups=[], final={}, leave_one_out=None)


def test_report_rejects_unknown_schema():
    with pytest.raises(ValueError):
        RunReport.from_dict({"schema_version": 99})


# --- leave-one-out profile ----------------------------------------------------------

def test_profile_matches_report(dataset):
    # pre-assigned splits let the same dataset drive run and profile
    split = assign_splits(dataset, 24, 24, seed=9)
    run = TrainingRun(small_config(), split).run()
    report = run.report()
    p, std = leave_one_out(*run.codes("query"), *run.codes("gallery"))
    assert p.shape == (6,)
    np.testing.assert_array_equal(p, report.leave_one_out["map_without_bit"])
    assert std == report.leave_one_out["std"]


def test_profile_needs_two_groups(dataset):
    split = assign_splits(dataset, 24, 24, seed=9)
    run = TrainingRun(
        small_config(variant="baseline", b_in=1, b_out=1, base_epochs=1),
        split).run()
    assert run.report().leave_one_out is None
    with pytest.raises(ConfigError, match="at least 2 effective bits"):
        leave_one_out(*run.codes("query"), *run.codes("gallery"))


def test_validation_split_required_for_scoring_variants(dataset):
    split = assign_splits(dataset, 0, 24, seed=9)
    with pytest.raises(ConfigError):
        TrainingRun(small_config(), split)
    # baseline never scores bits, so it accepts the same dataset
    TrainingRun(small_config(variant="baseline", b_in=6, b_out=6), split)


# --- checkpoints ----------------------------------------------------------------------

def test_checkpoint_file_round_trip(tmp_path, dataset):
    run = TrainingRun(small_config(), dataset).run(stop_after=3)
    ckpt = run.to_checkpoint()
    path = tmp_path / "run.ckpt"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.config == ckpt.config
    assert back.counters == ckpt.counters
    assert back.rng_state == ckpt.rng_state
    for wa, wb in zip(back.net.weights, ckpt.net.weights):
        np.testing.assert_array_equal(wa, wb)
    assert back.graph.n_nodes == ckpt.graph.n_nodes
    assert back.graph.groups == ckpt.graph.groups
    np.testing.assert_array_equal(back.graph.membership, ckpt.graph.membership)
    assert back.dataset_sha256 == ckpt.dataset_sha256
    # progress is pure JSON types (arrays ride base64-encoded), so plain
    # equality is the bit-exact comparison
    assert back.progress == ckpt.progress


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_a_checkpoint"
    path.write_text("label,1.0\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    bad_body = tmp_path / "bad_body"
    bad_body.write_text("HMRG1\n{this is not json\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_body)
    bad_version = tmp_path / "bad_version"
    bad_version.write_text('HMRG1\n{"format_version": 99}\n')
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_version)
    # format 1 stored the merge graph as a dense adjacency and no dataset
    # fingerprint; it is refused, not guessed at
    v1 = tmp_path / "v1"
    v1.write_text('HMRG1\n{"format_version": 1}\n')
    with pytest.raises(CheckpointError, match="version 1"):
        load_checkpoint(v1)


def test_checkpoint_graph_section_is_the_partition(tmp_path, dataset):
    run = TrainingRun(small_config(), dataset).run()
    path = tmp_path / "done.ckpt"
    save_checkpoint(run.to_checkpoint(), path)
    magic, body = path.read_text().split("\n", 1)
    assert magic == CHECKPOINT_MAGIC
    body = json.loads(body)
    assert body["format_version"] == 2
    assert body["graph"] == {"n_nodes": 8, "groups": run.graph.groups}
    assert len(body["dataset_sha256"]) == 64


def test_resume_rejects_another_dataset(tmp_path, dataset):
    run = TrainingRun(small_config(), dataset).run(stop_after=3)
    path = tmp_path / "mid.ckpt"
    save_checkpoint(run.to_checkpoint(), path)
    other = generate_synthetic(4, 8, 60, 2.0, seed=9)  # same shape
    with pytest.raises(CheckpointError, match="different dataset"):
        resume_training(load_checkpoint(path), other)
    # same features and labels under other splits are another dataset too
    resplit = assign_splits(dataset, 24, 24, seed=1)
    with pytest.raises(CheckpointError, match="different dataset"):
        resume_training(load_checkpoint(path), resplit)
    assert resume_training(load_checkpoint(path), dataset).done


@pytest.mark.parametrize("stop", [0, 1, 3, 5])
def test_resume_matches_uninterrupted_run(tmp_path, dataset, stop):
    # stop points cover pristine state, mid-base, mid-active, mid-frozen
    cfg = small_config()
    straight = TrainingRun(cfg, dataset).run()
    expected = straight.report().to_json()

    first = TrainingRun(small_config(), dataset).run(stop_after=stop)
    path = tmp_path / f"stop{stop}.ckpt"
    save_checkpoint(first.to_checkpoint(), path)
    resumed = resume_training(load_checkpoint(path), dataset)
    assert resumed.done
    assert resumed.report().to_json() == expected
    for wa, wb in zip(resumed.net.weights, straight.net.weights):
        np.testing.assert_array_equal(wa, wb)


def test_resume_in_two_hops_matches(tmp_path, dataset):
    cfg = small_config()
    expected = TrainingRun(cfg, dataset).run().report().to_json()
    hop1 = TrainingRun(small_config(), dataset).run(stop_after=2)
    save_checkpoint(hop1.to_checkpoint(), tmp_path / "a.ckpt")
    hop2 = resume_training(load_checkpoint(tmp_path / "a.ckpt"), dataset,
                           stop_after=4)
    save_checkpoint(hop2.to_checkpoint(), tmp_path / "b.ckpt")
    final = resume_training(load_checkpoint(tmp_path / "b.ckpt"), dataset)
    assert final.report().to_json() == expected


def test_score_conservation_failure_names_round_and_epoch(dataset,
                                                         monkeypatch):
    def nan_scores(gallery_codes, *args):
        return np.full(np.shape(gallery_codes)[1], np.nan)

    run = TrainingRun(small_config(), dataset).run(stop_after=2)
    assert run.stage == "active"
    monkeypatch.setattr(nmhash.training, "score_neurons", nan_scores)
    with pytest.raises(ValueError, match="active round 1, epoch 0"):
        run.run()


def test_codes_accessor_roles(dataset):
    run = TrainingRun(small_config(), dataset).run()
    codes, labels = run.codes("query")
    assert codes.shape == (24, 6)  # min(500, 240 // 10) query items
    assert len(labels) == 24
    gallery, _ = run.codes("gallery")
    train, _ = run.codes("train")
    np.testing.assert_array_equal(gallery, train)
    with pytest.raises(ValueError):
        run.codes("test")
