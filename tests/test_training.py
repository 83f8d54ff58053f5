"""Training schedules: config, stage machine, variants, checkpoints."""

import dataclasses
import json

import numpy as np
import pytest

import nmhash.training
from nmhash.data import (ROLE_TRAIN, FeatureDataset, assign_splits,
                         build_similarity, generate_synthetic)
from nmhash.errors import CheckpointError, ConfigError
from nmhash.merging import score_neurons
from nmhash.network import SgdConfig
from nmhash.training import (
    CHECKPOINT_MAGIC,
    VARIANTS,
    ExperimentConfig,
    RunReport,
    TrainingRun,
    load_checkpoint,
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
    dict(variant="dropout", hidden_dims=()),
    dict(nm_learning_rate=float("nan")),
    dict(nm_learning_rate=float("inf")),
    dict(eta=float("nan")),
    dict(eta=float("inf")),
    dict(backbone_sgd=dict(learning_rate=float("nan"))),
    dict(backbone_sgd=dict(weight_decay=float("nan"))),
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
    # the README schedule: 30 base + 2 rounds x (5 active + 40 frozen)
    assert ExperimentConfig(b_in=24, b_out=16, m=4,
                            base_epochs=30).planned_epochs() == 120
    assert ExperimentConfig(b_in=16, b_out=16, base_epochs=30,
                            variant="baseline").planned_epochs() == 30


@pytest.mark.parametrize("variant", VARIANTS)
def test_budget_matched_changes_only_what_the_variant_needs(variant):
    full = ExperimentConfig(b_in=24, b_out=16, m=4, base_epochs=30, seed=2)
    matched = full.budget_matched(variant)
    changed = {"variant": variant}
    if variant in ("baseline", "dropout"):
        changed["base_epochs"] = full.planned_epochs()  # 120
    if variant == "baseline":
        changed["b_in"] = full.b_out
    assert matched == dataclasses.replace(full, **changed)
    assert full.variant == "full" and full.base_epochs == 30  # not mutated


@pytest.mark.parametrize("variant", VARIANTS)
def test_planned_epochs_are_the_epochs_each_variant_runs(dataset, variant):
    # the README config, and 8 -> 5 bits with m 2, which does not divide 3
    readme = ExperimentConfig(b_in=24, b_out=16, m=4, base_epochs=30,
                              backbone_sgd=DESK, seed=1)
    planned = {"full": (120, 10), "baseline": (120, 10), "random": (110, 6),
               "select": (35, 4), "dropout": (120, 10), "fclayer": (110, 6)}
    for full, epochs in zip([readme, small_config(b_out=5)],
                            planned[variant]):
        cfg = full.budget_matched(variant)
        assert cfg.planned_epochs() == epochs
        assert TrainingRun(cfg, dataset).run().global_epoch == epochs
        assert cfg.needs_validation() == (variant in ("full", "select"))


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


def test_config_from_dict_refuses_unknown_keys():
    d = small_config().to_dict()
    with pytest.raises(ConfigError, match="'bogus', 'extra'"):
        ExperimentConfig.from_dict({**d, "extra": 2, "bogus": 1})
    d["backbone_sgd"]["momentum"] = 0.9
    with pytest.raises(ConfigError, match="'momentum'"):
        ExperimentConfig.from_dict(d)


def test_config_from_dict_refuses_wrong_typed_values():
    d = small_config().to_dict()
    for key, value in [("b_in", "x"), ("seed", True), ("eta", "1"),
                       ("n_query", 1.5), ("hidden_dims", 32),
                       ("hidden_dims", ["32"]), ("backbone_sgd", "x")]:
        with pytest.raises(ConfigError, match=f"'?{key}'? must be"):
            ExperimentConfig.from_dict({**d, key: value})
    with pytest.raises(ConfigError, match="'learning_rate' must be float"):
        ExperimentConfig.from_dict(
            {**d, "backbone_sgd": {"learning_rate": "x"}})
    with pytest.raises(ConfigError, match="config must be an object"):
        ExperimentConfig.from_dict(["b_in"])
    # an int where a float is declared is the same value
    assert ExperimentConfig.from_dict({**d, "eta": 1200}) == \
        small_config(eta=1200.0)


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
    assert round0["m_used"] == 2
    assert len(round0["active_loss_per_epoch"]) == 2
    assert len(round0["frozen_loss_per_epoch"]) == 2
    assert report.leave_one_out is not None
    assert len(report.leave_one_out["map_without_bit"]) == 6
    assert report.groups == graph.groups


def test_every_round_joins_its_planned_pairs(dataset):
    # the README config on data seed 2: a round that counted an edge inside
    # one group removed 3 groups, not 4, and the run took a third round.
    # 8 -> 5 bits with m 2 ends on a round of one join.
    readme = ExperimentConfig(b_in=24, b_out=16, m=4, base_epochs=30,
                              backbone_sgd=DESK, seed=1)
    for cfg, data, joins in [
            (readme, generate_synthetic(8, 16, 250, 2.0, seed=2), [4, 4]),
            (small_config(b_out=5), dataset, [2, 1])]:
        report = TrainingRun(cfg, data).run().report()
        assert report.epochs_total == cfg.planned_epochs()
        assert [r["m_used"] for r in report.rounds] == joins
        for r in report.rounds:
            assert r["m_used"] == r["bits_before"] - r["bits_after"]


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


@pytest.fixture(scope="module")
def multi_label_dataset():
    # 1-3 labels per item, with sparse and extreme ids; an item's features
    # mix its labels' centers
    rng = np.random.default_rng(11)
    ids = np.array([0, 5, 2**40, 2**62, 2**63 - 1])
    centers = 3.0 * rng.standard_normal((ids.size, 8))
    labels, rows = [], []
    for _ in range(240):
        pick = rng.choice(ids.size, rng.integers(1, 4), replace=False)
        labels.append(ids[pick].tolist())
        rows.append(centers[pick].mean(axis=0) + rng.standard_normal(8))
    return FeatureDataset(np.array(rows), labels, np.full(240, ROLE_TRAIN))


def _label_walk_similarity(run, rows):
    labels = [run.labels[i] for i in rows]
    return build_similarity(labels, labels)


@pytest.mark.parametrize("variant, stage", [("full", "frozen"),
                                            ("fclayer", "fc")])
def test_multi_label_run_equals_the_label_walk(tmp_path, monkeypatch,
                                               multi_label_dataset, variant,
                                               stage):
    # the run's indicator rows against the per-batch label walk: the
    # same report, and the same checkpoint one epoch into the stage that
    # trains through the merged or fc-layer output
    cfg = small_config(variant=variant)
    stop = cfg.base_epochs + (cfg.n0_epochs if variant == "full" else 0) + 1
    run = TrainingRun(cfg, multi_label_dataset).run(stop_after=stop)
    assert run.stage == stage and run.epoch_in_stage == 1
    save_checkpoint(run.to_checkpoint(), tmp_path / "indicator.ckpt")
    expected = run.run().report().to_json()
    with monkeypatch.context() as patch:
        patch.setattr(TrainingRun, "_batch_similarity",
                      _label_walk_similarity)
        walk = TrainingRun(cfg, multi_label_dataset).run(stop_after=stop)
        save_checkpoint(walk.to_checkpoint(), tmp_path / "walk.ckpt")
        assert walk.run().report().to_json() == expected
    assert (tmp_path / "walk.ckpt").read_bytes() \
        == (tmp_path / "indicator.ckpt").read_bytes()
    resumed = TrainingRun.from_checkpoint(
        load_checkpoint(tmp_path / "indicator.ckpt"), multi_label_dataset)
    assert resumed.run().report().to_json() == expected


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_duplicate_bits_get_no_edge(seed):
    # the active rule grows an edge with the gap between two bits' scores,
    # so exact duplicates (equal scores) are never linked to each other
    cfg = ExperimentConfig(b_in=8, b_out=5, m=2, base_epochs=3, n0_epochs=3,
                           n1_epochs=2, batch_size=32, hidden_dims=(16,),
                           backbone_sgd=SgdConfig(learning_rate=1e-6),
                           seed=seed)
    run = TrainingRun(cfg, generate_synthetic(4, 8, 40, 2.0, 0))
    run.run(stop_after=cfg.base_epochs)
    assert run.stage == "active"
    w, b = run.net.weights[-1], run.net.biases[-1]
    for src, dst in ((0, 1), (2, 3)):
        w[:, dst], b[dst] = w[:, src], b[src]
    run.run(stop_after=cfg.base_epochs + cfg.n0_epochs - 1)
    assert run.stage == "active"
    adj = run.round_adjacency
    assert adj[0, 1] == adj[2, 3] == 0.0
    np.testing.assert_array_equal(adj[0, 2:], adj[1, 2:])
    assert np.count_nonzero(adj) > 0  # other pairs were linked


def test_same_seed_reports_are_byte_identical(dataset):
    a = TrainingRun(small_config(), dataset).run().report()
    b = TrainingRun(small_config(), dataset).run().report()
    assert a.to_json() == b.to_json()
    c = TrainingRun(small_config(variant="random"), dataset).run().report()
    d = TrainingRun(small_config(variant="random"), dataset).run().report()
    assert c.to_json() == d.to_json()


def test_different_seed_changes_the_run(dataset):
    a = TrainingRun(small_config(), dataset).run().report()
    b = TrainingRun(small_config(seed=4), dataset).run().report()
    assert a.to_json() != b.to_json()


# --- reports ----------------------------------------------------------------------

def test_report_requires_finished_run(dataset):
    run = TrainingRun(small_config(), dataset)
    run.run(stop_after=1)
    assert not run.done
    with pytest.raises(RuntimeError):
        run.report()


def test_report_json_round_trip(dataset):
    report = TrainingRun(small_config(), dataset).run().report()
    assert json.loads(report.to_json()) == report.to_dict()


def test_report_rejects_increasing_bit_trace():
    with pytest.raises(ValueError):
        RunReport(variant="full", seed=0, config={}, epochs_total=0,
                  base={}, rounds=[], bit_trace=[[6, 0.5], [8, 0.6]],
                  groups=[], final={}, leave_one_out=None)


# --- leave-one-out profile ----------------------------------------------------------

def test_profile_matches_report(dataset):
    # pre-assigned splits let the same dataset drive run and profile
    split = assign_splits(dataset, 24, 24, seed=9)
    run = TrainingRun(small_config(), split).run()
    report = run.report()
    q, q_labels = run.codes("query")
    g, g_labels = run.codes("gallery")
    p = score_neurons(g, g_labels, q, q_labels)
    assert p.shape == (6,)
    np.testing.assert_array_equal(p, report.leave_one_out["map_without_bit"])
    assert float(p.std()) == report.leave_one_out["std"]


def test_profile_needs_two_groups(dataset):
    split = assign_splits(dataset, 24, 24, seed=9)
    run = TrainingRun(
        small_config(variant="baseline", b_in=1, b_out=1, base_epochs=1),
        split).run()
    assert run.report().leave_one_out is None
    q, q_labels = run.codes("query")
    g, g_labels = run.codes("gallery")
    with pytest.raises(ConfigError, match="at least 2 effective bits"):
        score_neurons(g, g_labels, q, q_labels)


def test_validation_split_required_for_scoring_variants(dataset):
    split = assign_splits(dataset, 0, 24, seed=9)
    with pytest.raises(ConfigError):
        TrainingRun(small_config(), split)
    # baseline never scores bits, so it accepts the same dataset
    TrainingRun(small_config(variant="baseline", b_in=6, b_out=6), split)


def test_query_split_required_for_every_variant(dataset):
    for variant in VARIANTS:
        cfg = small_config(variant=variant, n_query=0,
                           **({"b_in": 6} if variant == "baseline" else {}))
        with pytest.raises(ConfigError, match="non-empty query split"):
            TrainingRun(cfg, dataset)


def test_full_active_phase_skips_unscored_batches(dataset, monkeypatch):
    # 192 train items make batches 0-2 of 64 rows; score_every 2 scores
    # batches 0 and 2 in each of the round's 2 active epochs
    scored = []

    def counted(*args):
        scored.append(len(args[0]))
        return score_neurons(*args)

    monkeypatch.setattr(nmhash.training, "score_neurons", counted)
    run = TrainingRun(small_config(score_every=2), dataset).run()
    assert run.done and scored == [64] * 4
    [done] = run.rounds_done
    assert len(done["active_loss_per_epoch"]) == 2
    assert done["bits_after"] == 6


# --- checkpoints ----------------------------------------------------------------------

def test_checkpoint_file_round_trip(tmp_path, dataset):
    run = TrainingRun(small_config(), dataset).run(stop_after=3)
    ckpt = run.to_checkpoint()
    path = tmp_path / "run.ckpt"
    save_checkpoint(ckpt, path)
    # every section is pure JSON types (arrays ride base64-encoded), so
    # plain equality is the bit-exact comparison of all of them
    assert load_checkpoint(path) == ckpt
    again = tmp_path / "again.ckpt"
    save_checkpoint(load_checkpoint(path), again)
    assert again.read_bytes() == path.read_bytes()


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
    # format 2 also stored counters, the base MAP, the score count, the
    # activation and the node count, which format 3 derives; retrain
    v2 = tmp_path / "v2"
    v2.write_text('HMRG1\n{"format_version": 2}\n')
    with pytest.raises(CheckpointError, match="version 2"):
        load_checkpoint(v2)


def test_checkpoint_missing_section_is_refused(tmp_path, dataset):
    bare = tmp_path / "bare"
    bare.write_text('HMRG1\n{"format_version": 3}\n')
    with pytest.raises(CheckpointError, match="'config'"):
        load_checkpoint(bare)
    not_an_object = tmp_path / "list_body"
    not_an_object.write_text("HMRG1\n[2]\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(not_an_object)
    path = tmp_path / "run.ckpt"
    save_checkpoint(TrainingRun(small_config(), dataset).to_checkpoint(), path)
    magic, body = path.read_text().split("\n", 1)
    for section in ("graph", "dataset_sha256"):
        partial = json.loads(body)
        del partial[section]
        cut = tmp_path / f"no_{section}"
        cut.write_text(magic + "\n" + json.dumps(partial) + "\n")
        with pytest.raises(CheckpointError, match=f"'{section}'"):
            load_checkpoint(cut)


def test_every_counters_and_progress_entry_is_checked(tmp_path, dataset):
    encode = nmhash.training._encode_array
    # a mid-active checkpoint holds an adjacency, so every kind of entry
    # is live; each one deleted, then set to a string, must be refused
    run = TrainingRun(small_config(), dataset).run(stop_after=3)
    assert run.stage == "active"
    path = tmp_path / "mid.ckpt"
    save_checkpoint(run.to_checkpoint(), path)
    ckpt = load_checkpoint(path)
    cases = []
    for section in ("counters", "progress"):
        for key in getattr(ckpt, section):
            deleted = dict(getattr(ckpt, section))
            del deleted[key]
            cases += [(section, key, deleted),
                      (section, key, {**getattr(ckpt, section), key: "x"})]
    assert len(cases) == 22
    # entries of the right type that do not fit the stage: an active round
    # lists its losses
    progress = ckpt.progress
    rounds = [None, {}]
    for log in ("active_loss_per_epoch", "hash_loss_per_epoch",
                "frozen_loss_per_epoch"):
        rounds.append({k: v for k, v in progress["current_round"].items()
                       if k != log})
    cases += [("progress", "current_round", {**progress, "current_round": r})
              for r in rounds]
    # entries that must agree with another section, the data or the stage,
    # and round records that a report could not be read back with
    wide = dict(ckpt.net)
    wide["layer_dims"] = [7, *wide["layer_dims"][1:]]
    wide["weights"] = [encode(np.zeros((7, 32))), *wide["weights"][1:]]
    cases += [
        ("net", "layer_dims", wide),
        ("graph", "groups", {"groups": [[i] for i in range(7)]}),
        ("progress", "round_adjacency", {**progress, "round_adjacency": None}),
        ("progress", "round_adjacency",
         {**progress, "round_adjacency": encode(np.zeros((7, 7)))}),
        ("progress", "bit_trace", {**progress, "bit_trace": [[-1, 0.5]]}),
        ("progress", "bit_trace", {**progress, "bit_trace": [[7, 0.5]]}),
        ("progress", "rounds_done", {**progress, "rounds_done": [-1]})]
    # counters that do not fit the stage: this is active epoch 1 of n0 2,
    # global epoch 3, in the first round, which is open
    counters, open_round = ckpt.counters, progress["current_round"]
    assert (counters["epoch_in_stage"], run.global_epoch, run.round_index,
            open_round["round"]) == (1, 3, 1, 1)
    cases += [("counters", key, {**counters, key: value})
              for key, value in [("epoch_in_stage", -1),
                                 ("epoch_in_stage", 2)]]
    cases += [("progress", "current_round",
               {**progress, "current_round": {**open_round, "round": 2}}),
              ("progress", "current_round",
               {**progress, "current_round": {
                   k: v for k, v in open_round.items() if k != "round"}})]
    checkpoints = [ckpt] * len(cases)
    # a finished run's stage has no epochs left, and its trace holds one
    # entry for the base stage and one for each round record
    done = TrainingRun(small_config(), dataset).run().to_checkpoint()
    trace, records = done.progress["bit_trace"], done.progress["rounds_done"]
    assert len(trace) == 2 and len(records) == 1
    for key, value in [("bit_trace", trace[:1]),
                       ("bit_trace", trace[:1] + trace),
                       ("rounds_done", [])]:
        checkpoints.append(done)
        cases.append(("progress", key, {**done.progress, key: value}))
    checkpoints.append(done)
    cases.append(("counters", "epoch_in_stage",
                  {**done.counters, "epoch_in_stage": 1}))
    # the entries the score and fc stages read, a round outside a round,
    # arrays held outside the stage that reads them (a head in the base
    # stage, an adjacency after its truncation and a score sum after the
    # selection), and picked bits outside a finished select run or not
    # b_out sorted, distinct ids of the encoder's bits in one
    for variant, stop, stage, key, value in [
            ("select", 3, "score", "score_sum", None),
            ("select", 3, "score", "current_round", {}),
            ("select", 3, "score", "selected_bits", [0, 1]),
            ("select", None, "done", "selected_bits", None),
            ("select", None, "done", "selected_bits", [0]),
            ("select", None, "done", "selected_bits", [9, 10, 11, 12, 13]),
            ("select", None, "done", "selected_bits", [0, 2, 4, 7, 5]),
            ("select", None, "done", "selected_bits", [0, 2, 2, 4, 5]),
            ("select", None, "done", "selected_bits", [-1, 0, 2, 4, 5]),
            ("full", None, "done", "selected_bits", [0, 1]),
            ("full", 1, "base", "selected_bits", [0, 1]),
            ("fclayer", 3, "fc", "fc_w", None),
            ("fclayer", 3, "fc", "fc_w", encode(np.zeros((6, 8)))),
            ("fclayer", 3, "fc", "fc_b", None),
            ("fclayer", 1, "base", "fc_w", encode(np.zeros((8, 7)))),
            ("full", 5, "frozen", "round_adjacency", encode(np.zeros((6, 6)))),
            ("select", None, "done", "score_sum", encode(np.zeros(6)))]:
        other = TrainingRun(small_config(variant=variant, b_out=5),
                            dataset).run(stop_after=stop).to_checkpoint()
        assert other.counters["stage"] == stage
        checkpoints.append(other)
        cases.append(("progress", key, {**other.progress, key: value}))
    # the net and graph entries format 3 derives; a net with another
    # activation is refused, as one with tanh is
    cases += [("net", "hidden_activation",
               {**ckpt.net, "hidden_activation": activation})
              for activation in ("relu", "tanh")]
    cases += [("graph", "n_nodes", {"n_nodes": n, "groups": groups})
              for n, groups in [(7, [[i] for i in range(7)]),
                                (8, ckpt.graph["groups"])]]
    checkpoints += [ckpt] * 4
    for base, (section, key, edited) in zip(checkpoints, cases, strict=True):
        bad = dataclasses.replace(base, **{section: edited})
        with pytest.raises(CheckpointError, match=key):
            TrainingRun.from_checkpoint(bad, dataset)
    # the counters and progress entries format 3 derives, at the values
    # the run has and at values that do not fit it, are not its entries
    select = TrainingRun(small_config(variant="select"), dataset).run(
        stop_after=3).to_checkpoint()
    assert select.counters["stage"] == "score"
    for base, section, key, value in [
            (ckpt, "progress", "base_map", None),
            (ckpt, "progress", "base_map", progress["bit_trace"][0][1]),
            (ckpt, "counters", "global_epoch", 0),
            (ckpt, "counters", "global_epoch", 3),
            (ckpt, "counters", "round_index", 0),
            (ckpt, "counters", "round_index", 1),
            (ckpt, "counters", "round_index", 2),
            (select, "progress", "score_batches", -1),
            (select, "progress", "score_batches", 4)]:
        bad = dataclasses.replace(
            base, **{section: {**getattr(base, section), key: value}})
        with pytest.raises(CheckpointError, match=rf"'{section}' section "
                           rf"must hold exactly the entries .*'{key}'"):
            TrainingRun.from_checkpoint(bad, dataset)
    # the unedited checkpoint still resumes
    assert TrainingRun.from_checkpoint(ckpt, dataset).run().done


def test_malformed_array_entry_is_refused(dataset):
    ckpt = TrainingRun(small_config(), dataset).run(stop_after=3) \
        .to_checkpoint()
    wrong_size = {**ckpt.progress["round_adjacency"], "shape": [7, 6]}
    for array in ({}, {"shape": [6, 6]}, {"data": ""}, [], wrong_size,
                  {"shape": "x", "data": ""}, {"shape": [-1], "data": ""},
                  {"shape": [1], "data": "not base64"},
                  {"shape": [1], "data": None}):
        bad = dataclasses.replace(
            ckpt, progress={**ckpt.progress, "round_adjacency": array})
        with pytest.raises(CheckpointError, match="round_adjacency"):
            TrainingRun.from_checkpoint(bad, dataset)


def test_checkpoint_graph_section_is_the_partition(tmp_path, dataset):
    run = TrainingRun(small_config(), dataset).run()
    path = tmp_path / "done.ckpt"
    save_checkpoint(run.to_checkpoint(), path)
    magic, body = path.read_text().split("\n", 1)
    assert magic == CHECKPOINT_MAGIC
    body = json.loads(body)
    assert body["format_version"] == 3
    assert body["graph"] == {"groups": run.graph.groups}
    # each fact once: the counters, MAPs, score count, activation and node
    # count are derived from these
    assert sorted(body["counters"]) == ["epoch_in_stage", "stage"]
    assert not {"base_map", "score_batches"} & set(body["progress"])
    assert sorted(body["net"]) == ["biases", "layer_dims", "weights"]
    assert len(body["dataset_sha256"]) == 64


def test_resume_rejects_another_dataset(tmp_path, dataset):
    run = TrainingRun(small_config(), dataset).run(stop_after=3)
    path = tmp_path / "mid.ckpt"
    save_checkpoint(run.to_checkpoint(), path)
    other = generate_synthetic(4, 8, 60, 2.0, seed=9)  # same shape
    with pytest.raises(CheckpointError, match="different dataset"):
        TrainingRun.from_checkpoint(load_checkpoint(path), other)
    # same features and labels under other splits are another dataset too
    resplit = assign_splits(dataset, 24, 24, seed=1)
    with pytest.raises(CheckpointError, match="different dataset"):
        TrainingRun.from_checkpoint(load_checkpoint(path), resplit)
    assert TrainingRun.from_checkpoint(load_checkpoint(path), dataset) \
        .run().done


@pytest.mark.parametrize("stop", [0, 1, 3, 5])
def test_resume_matches_uninterrupted_run(tmp_path, dataset, stop):
    # stop points cover pristine state, mid-base, mid-active, mid-frozen
    cfg = small_config()
    straight = TrainingRun(cfg, dataset).run()
    expected = straight.report().to_json()

    first = TrainingRun(small_config(), dataset).run(stop_after=stop)
    path = tmp_path / f"stop{stop}.ckpt"
    save_checkpoint(first.to_checkpoint(), path)
    resumed = TrainingRun.from_checkpoint(load_checkpoint(path),
                                          dataset).run()
    assert resumed.done
    assert resumed.report().to_json() == expected
    for wa, wb in zip(resumed.net.weights, straight.net.weights):
        np.testing.assert_array_equal(wa, wb)


@pytest.mark.parametrize("variant", VARIANTS)
def test_resume_at_every_epoch_matches_for_each_variant(tmp_path, dataset,
                                                         variant):
    # every stage boundary of every schedule, including the finished run;
    # select thins its scoring batches so the skipped batches are covered
    overrides = {"baseline": dict(b_in=6), "select": dict(score_every=2)}
    cfg = small_config(variant=variant, **overrides.get(variant, {}))
    straight = TrainingRun(cfg, dataset).run()
    expected = straight.report().to_json()
    for stop in range(straight.global_epoch + 1):
        first = TrainingRun(cfg, dataset).run(stop_after=stop)
        assert first.global_epoch == stop
        path = tmp_path / f"{variant}{stop}.ckpt"
        save_checkpoint(first.to_checkpoint(), path)
        ckpt = load_checkpoint(path)
        # the checkpoint holds exactly the arrays its stage starts with
        fresh = first._stage_arrays(first.stage)
        assert {n for n in fresh if ckpt.progress[n] is not None} == \
            {n for n, a in fresh.items() if a is not None}, f"stop={stop}"
        resumed = TrainingRun.from_checkpoint(ckpt, dataset)
        assert resumed.global_epoch == stop
        assert resumed.run().report().to_json() == expected, f"stop={stop}"


def test_resume_in_two_hops_matches(tmp_path, dataset):
    cfg = small_config()
    expected = TrainingRun(cfg, dataset).run().report().to_json()
    hop1 = TrainingRun(small_config(), dataset).run(stop_after=2)
    save_checkpoint(hop1.to_checkpoint(), tmp_path / "a.ckpt")
    hop2 = TrainingRun.from_checkpoint(load_checkpoint(tmp_path / "a.ckpt"),
                                       dataset).run(stop_after=4)
    save_checkpoint(hop2.to_checkpoint(), tmp_path / "b.ckpt")
    final = TrainingRun.from_checkpoint(load_checkpoint(tmp_path / "b.ckpt"),
                                        dataset).run()
    assert final.report().to_json() == expected


def test_in_memory_checkpoint_is_a_snapshot(dataset):
    # the checkpoint is taken mid-active; the run then finishes its round,
    # which must change neither the checkpoint nor a run resumed from it
    expected = TrainingRun(small_config(), dataset).run().report().to_json()
    original = TrainingRun(small_config(), dataset).run(stop_after=3)
    ckpt = original.to_checkpoint()
    assert original.run().report().to_json() == expected
    first = TrainingRun.from_checkpoint(ckpt, dataset).run()
    second = TrainingRun.from_checkpoint(ckpt, dataset).run()
    assert first.report().to_json() == expected
    assert second.report().to_json() == expected


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
