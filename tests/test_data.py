"""Datasets: synthetic clusters, CSV round-trip, splits, standardization."""

import numpy as np
import pytest

from nmhash.data import (
    ROLE_QUERY,
    ROLE_TRAIN,
    ROLE_VALIDATION,
    FeatureDataset,
    assign_splits,
    build_similarity,
    generate_synthetic,
    load_features,
    save_features,
    standardize,
)
from nmhash.errors import ConfigError, DataFormatError
from nmhash.network import SgdConfig


# --- dataset container -------------------------------------------------------

def test_dataset_validation():
    with pytest.raises(ValueError):
        FeatureDataset(np.zeros((0, 3)), [], np.array([]))
    with pytest.raises(ValueError):
        FeatureDataset(np.zeros((2, 3)), [{0}], np.full(2, ROLE_TRAIN))
    with pytest.raises(ValueError):
        FeatureDataset(np.zeros((1, 3)), [set()], np.full(1, ROLE_TRAIN))
    with pytest.raises(ValueError):
        FeatureDataset(np.zeros((1, 3)), [{-1}], np.full(1, ROLE_TRAIN))
    for big in (2**63, 1180591620717411303424):
        with pytest.raises(ValueError, match="label ids must fit in int64"):
            FeatureDataset(np.zeros((2, 3)), [{0}, {1, big}],
                           np.full(2, ROLE_TRAIN))
    assert FeatureDataset(np.zeros((1, 3)), [{2**63 - 1}],
                          np.full(1, ROLE_TRAIN)).labels == [{2**63 - 1}]
    with pytest.raises(ValueError):
        FeatureDataset(np.zeros((1, 3)), [{0}], np.array(["gallery"]))
    with pytest.raises(ValueError, match="one role per item"):
        FeatureDataset(np.zeros((2, 3)), [{0}, {1}], np.full(3, ROLE_TRAIN))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            FeatureDataset([[0.0, bad]], [{0}], np.full(1, ROLE_TRAIN))


def test_dataset_keeps_long_role_names_intact():
    # "validation" must survive numpy string-width coercion
    roles = np.array([ROLE_TRAIN, ROLE_VALIDATION, ROLE_QUERY])
    ds = FeatureDataset(np.zeros((3, 2)), [{0}, {1}, {2}], roles)
    assert list(ds.roles) == ["train", "validation", "query"]
    assert ds.indices(ROLE_VALIDATION).tolist() == [1]


# --- synthetic generation ----------------------------------------------------

def test_synthetic_shape_and_labels():
    ds = generate_synthetic(8, 16, 250, 2.0, seed=0)
    assert ds.features.shape == (2000, 16)
    assert sorted(set().union(*ds.labels)) == list(range(8))
    # class-major layout, one label per item
    assert ds.labels[0] == frozenset({0})
    assert ds.labels[249] == frozenset({0})
    assert ds.labels[250] == frozenset({1})
    assert (ds.roles == ROLE_TRAIN).all()


def test_synthetic_deterministic_per_seed():
    a = generate_synthetic(3, 4, 5, 1.0, seed=7)
    b = generate_synthetic(3, 4, 5, 1.0, seed=7)
    c = generate_synthetic(3, 4, 5, 1.0, seed=8)
    np.testing.assert_array_equal(a.features, b.features)
    assert (a.features != c.features).any()


def test_synthetic_zero_noise_duplicates_class_center():
    ds = generate_synthetic(2, 3, 4, 0.0, seed=1)
    for c in range(2):
        block = ds.features[c * 4:(c + 1) * 4]
        assert (block == block[0]).all()


def test_synthetic_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        generate_synthetic(0, 3, 4, 1.0, seed=0)
    for sigma in (-0.5, np.nan, np.inf):
        with pytest.raises(ConfigError, match="noise_sigma"):
            generate_synthetic(2, 3, 4, sigma, seed=0)


# --- CSV round-trip ----------------------------------------------------------

def test_save_load_round_trip_bit_exact(tmp_path):
    ds = generate_synthetic(3, 5, 4, 1.5, seed=3)
    path = tmp_path / "feats.csv"
    save_features(ds, path)
    back = load_features(path)
    np.testing.assert_array_equal(back.features, ds.features)
    assert back.labels == ds.labels
    # a second save of the loaded data is byte-identical
    path2 = tmp_path / "again.csv"
    save_features(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_multi_label_and_crlf(tmp_path):
    path = tmp_path / "multi.csv"
    path.write_bytes(b"1;4,0.25,-3.0\r\n0,1.5,2.5\r\n")
    ds = load_features(path)
    assert ds.labels == [frozenset({1, 4}), frozenset({0})]
    np.testing.assert_array_equal(ds.features, [[0.25, -3.0], [1.5, 2.5]])


def test_load_tolerates_trailing_blank_line(tmp_path):
    path = tmp_path / "blank.csv"
    # a blank line holds no item, at the end or mid-file
    for text in ("0,1.0\n1,2.0\n\n", "0,1.0,2.0\n\n1,3.0,4.0\n"):
        path.write_text(text)
        assert load_features(path).n_items == 2


@pytest.mark.parametrize("content,fragment", [
    ("0,1.0\nx,2.0\n", "line 2"),
    ("0,1.0\n1,2.0,3.0\n", "line 2"),
    ("0,1.0\n1,abc\n", "line 2"),
    ("justonefield\n", "line 1"),
    ("-3,1.0\n", "line 1"),
    (";,1.0\n", "line 1"),
    (",1.0\n", "line 1: label ids must be integers, got ''"),
    ("0,1.0,nan\n", "line 1: features must be finite"),
    ("0,1.0,2.0\n1,inf,1.0\n", "line 2: features must be finite"),
    ("0,1.0\n\n1,-inf\n", "line 3: features must be finite"),
    ("0,1.0\n1;9223372036854775808,2.0\n",
     "line 2: label id 9223372036854775808 does not fit in int64"),
    ("", "no data"),
])
def test_load_reports_offending_line(tmp_path, content, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(DataFormatError, match=fragment):
        load_features(path)


# --- splits -------------------------------------------------------------------

def test_split_sizes_add_up():
    ds = generate_synthetic(4, 3, 250, 1.0, seed=0)  # 1000 items
    out = assign_splits(ds, n_validation=200, n_query=200, seed=5)
    assert out.indices(ROLE_QUERY).size == 200
    assert out.indices(ROLE_VALIDATION).size == 200
    assert out.indices(ROLE_TRAIN).size == 600
    # original untouched
    assert (ds.roles == ROLE_TRAIN).all()


def test_split_deterministic_and_seed_sensitive():
    ds = generate_synthetic(2, 3, 50, 1.0, seed=0)
    a = assign_splits(ds, 10, 10, seed=1)
    b = assign_splits(ds, 10, 10, seed=1)
    c = assign_splits(ds, 10, 10, seed=2)
    np.testing.assert_array_equal(a.roles, b.roles)
    assert (a.roles != c.roles).any()


def test_split_rejects_oversized_request():
    ds = generate_synthetic(2, 3, 5, 1.0, seed=0)  # 10 items
    with pytest.raises(ConfigError):
        assign_splits(ds, 5, 5, seed=0)
    with pytest.raises(ConfigError):
        assign_splits(ds, -1, 2, seed=0)


# --- standardization -----------------------------------------------------------

def test_standardize_uses_train_statistics_only():
    feats = np.array([[0.0, 10.0], [2.0, 10.0], [100.0, 50.0]])
    ds = FeatureDataset(feats, [{0}] * 3,
                        [ROLE_TRAIN, ROLE_TRAIN, ROLE_QUERY])
    out = standardize(ds)
    train = out.features[:2]
    np.testing.assert_allclose(train.mean(axis=0), 0.0, atol=1e-12)
    # second train column is constant: centered, scale left at 1
    np.testing.assert_allclose(out.features[:, 1], [0.0, 0.0, 40.0])
    # the query row is mapped with train mean/std, not its own
    np.testing.assert_allclose(out.features[2, 0], (100.0 - 1.0) / 1.0)


def test_standardize_requires_train_rows():
    ds = FeatureDataset(np.ones((1, 2)), [{0}], [ROLE_QUERY])
    with pytest.raises(ConfigError):
        standardize(ds)


def test_standardize_train_split_unit_variance():
    ds = generate_synthetic(3, 4, 30, 1.0, seed=2)
    out = standardize(ds)
    np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-12)


# --- similarity ----------------------------------------------------------------

def test_build_similarity_values():
    s = build_similarity([{0}, {1}], [{0}, {1}, {0, 1}])
    np.testing.assert_array_equal(s, [[1, -1, 1], [-1, 1, 1]])
    same = build_similarity([{5}] * 3, [{5}] * 3)
    assert (same == 1.0).all()


def test_build_similarity_multi_label_overlap():
    assert build_similarity([{1, 2}], [{2, 9}])[0, 0] == 1.0
    assert build_similarity([{1}], [{2}])[0, 0] == -1.0


def test_run_batch_similarity_equals_build_similarity():
    # a training run takes each batch's similarity from rows of its label
    # indicator; it must equal the label walk exactly, for 1-3 labels per
    # item with sparse and extreme ids
    from nmhash.training import ExperimentConfig, TrainingRun

    rng = np.random.default_rng(7)
    pool = np.array([0, 1, 9, 2**31, 2**62, 2**63 - 2, 2**63 - 1])
    labels = [{0}, {2**62}, {2**63 - 1, 0}] + [
        pool[rng.choice(pool.size, rng.integers(1, 4), replace=False)].tolist()
        for _ in range(197)]
    ds = FeatureDataset(rng.standard_normal((200, 3)), labels,
                        np.full(200, ROLE_TRAIN))
    cfg = ExperimentConfig(b_in=4, b_out=4, variant="baseline",
                           base_epochs=1, hidden_dims=(4,), n_validation=0,
                           n_query=10)
    run = TrainingRun(cfg, ds)
    batches = [run.train_idx[:3], run.train_idx, rng.permutation(200)[:1]]
    batches += [rng.choice(200, 64, replace=False) for _ in range(20)]
    for rows in batches:
        batch = [run.labels[i] for i in rows]
        got = run._batch_similarity(rows)
        assert got.dtype == np.float64
        assert np.array_equal(got, build_similarity(batch, batch))


# --- learnability of the default benchmark -------------------------------------

def test_default_synthetic_set_supports_accurate_retrieval():
    # a modest 12-bit encoder must reach MAP >= 0.95 on the default
    # generator settings, otherwise the benchmark would be noise-bound
    from nmhash.training import ExperimentConfig, TrainingRun

    ds = generate_synthetic(8, 16, 250, 2.0, seed=0)
    cfg = ExperimentConfig(
        b_in=12, b_out=12, variant="baseline", base_epochs=50, seed=1,
        backbone_sgd=SgdConfig(learning_rate=1e-7, weight_decay=1e-5))
    report = TrainingRun(cfg, ds).run().report()
    assert report.final["map"] >= 0.95
