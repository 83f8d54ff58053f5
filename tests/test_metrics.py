"""Hamming-space retrieval metrics against hand values and brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmhash import merging
from nmhash.data import build_similarity
from nmhash.errors import InvalidCodeError
from nmhash.merging import score_neurons
from nmhash.metrics import (
    _MAX_BLOCKS,
    _ONE_THREAD,
    _ap_per_query,
    _hit_counts,
    _keys,
    _packed,
    _products,
    _ranked_relevance,
    as_code_matrix,
    mean_average_precision,
    pairwise_hamming,
    pr_curve,
    precision_at_hamming_radius,
    precision_at_top_n,
    relevance_matrix,
    retrieve,
    sign_pm1,
)
from oracles import (ap_from_flags, brute_force_map, brute_force_pr_curve,
                     brute_force_radius_precision, brute_force_top_n,
                     code_distance, float64_ap_per_query)

pm1_rows = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=6)


def codes_strategy(max_rows=8, max_bits=6):
    return st.integers(1, max_bits).flatmap(
        lambda k: st.lists(
            st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k),
            min_size=1, max_size=max_rows))


# --- sign convention -------------------------------------------------------

def test_sign_of_zero_is_positive():
    assert sign_pm1(0.0) == 1.0
    np.testing.assert_array_equal(sign_pm1([-0.5, 0.0, 0.5]), [-1, 1, 1])


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=20))
def test_sign_always_pm1(values):
    out = sign_pm1(values)
    assert set(np.unique(out)) <= {-1.0, 1.0}
    for v, s in zip(values, out):
        if v > 0:
            assert s == 1.0
        elif v < 0:
            assert s == -1.0


def test_code_matrix_rejects_other_values():
    with pytest.raises(InvalidCodeError):
        as_code_matrix([[0.5, 1.0]])
    with pytest.raises(InvalidCodeError):
        as_code_matrix([[2, 1]])
    with pytest.raises(InvalidCodeError):
        as_code_matrix(np.zeros((0, 3)))


def test_code_matrix_accepts_ternary_and_promotes_vectors():
    out = as_code_matrix([1, -1, 0])
    assert out.shape == (1, 3)
    assert out.dtype == np.float64


# --- hamming distance ------------------------------------------------------

def _hamming(a, b) -> float:
    """pairwise_hamming of two code vectors."""
    d = pairwise_hamming(a, b)
    assert d.shape == (1, 1)
    return float(d[0, 0])


def test_hamming_identical_and_antipodal():
    a = [1, -1, 1, 1]
    assert _hamming(a, a) == 0.0
    assert _hamming(a, [-v for v in a]) == 4.0


def test_hamming_zero_entry_counts_half():
    # (K - a.b)/2 with a zero bit: (2 - 1)/2
    assert _hamming([1, 0], [1, 1]) == 0.5


def test_hamming_length_mismatch():
    with pytest.raises(ValueError):
        pairwise_hamming([1, 1], [1, 1, 1])


@given(pm1_rows, st.data())
def test_hamming_matches_mismatch_count(a, data):
    b = data.draw(st.lists(st.sampled_from([-1, 1]),
                           min_size=len(a), max_size=len(a)))
    expected = sum(1 for x, y in zip(a, b) if x != y)
    assert _hamming(a, b) == expected
    assert _hamming(b, a) == expected


def test_pairwise_hamming_matches_scalar():
    # every entry equals the bit-by-bit count, 0 entries included
    rng = np.random.default_rng(7)
    q = rng.choice([-1.0, 0.0, 1.0], size=(4, 5))
    g = rng.choice([-1.0, 0.0, 1.0], size=(6, 5))
    d = pairwise_hamming(q, g)
    assert d.shape == (4, 6)
    for i in range(4):
        for j in range(6):
            assert d[i, j] == code_distance(q[i], g[j])


# --- label relevance -------------------------------------------------------

def test_label_similarity_hand_cases():
    # build_similarity is +1 where two label sets share an id, else -1
    np.testing.assert_array_equal(
        build_similarity([{3}, {1, 2}, {1}], [{3}, {2, 9}, {2}]),
        [[1, -1, -1], [-1, 1, 1], [-1, -1, -1]])


def test_label_similarity_rejects_empty():
    with pytest.raises(ValueError, match="empty label set"):
        build_similarity([set()], [{1}])
    with pytest.raises(ValueError, match="empty label set"):
        build_similarity([{1}], [{1}, set()])
    for empty in (([], [{1}]), ([{1}], [])):
        with pytest.raises(ValueError, match="empty label sequence"):
            relevance_matrix(*empty)


def test_relevance_matrix_refuses_label_ids_beyond_int64():
    big = 2**63
    assert relevance_matrix([{big - 1}], [{0}, {big - 1}]).tolist() == \
        [[False, True]]
    with pytest.raises(ValueError, match="item 1 has a label id beyond int64"):
        relevance_matrix([{0}], [{1}, {2, 1180591620717411303424}])
    with pytest.raises(ValueError, match="item 0 has a label id beyond int64"):
        relevance_matrix([{-big - 1}], [{0}])


def test_relevance_matrix_single_and_multi_label():
    rel = relevance_matrix([{0}, {1}], [{0}, {1}, {0, 1}])
    np.testing.assert_array_equal(
        rel, [[True, False, True], [False, True, True]])
    same = relevance_matrix([{5}] * 3, [{5}] * 2)
    assert same.all()


# --- average precision -----------------------------------------------------

def _ap(flags) -> float:
    """_ap_per_query of one ranked list of 0/1 flags."""
    return float(_ap_per_query(np.array([flags]))[0])


def test_average_precision_hand_values():
    # relevant at ranks 1 and 3: (1/1 + 2/3) / 2
    assert _ap([1, 0, 1]) == pytest.approx(5 / 6)
    assert _ap([0, 0, 1]) == pytest.approx(1 / 3)
    assert _ap([1, 1, 1]) == 1.0
    assert _ap([0, 0, 0]) == 0.0
    # one row per query, each scored on its own
    np.testing.assert_allclose(
        _ap_per_query(np.array([[1, 0, 1], [0, 0, 1], [0, 0, 0]])),
        [5 / 6, 1 / 3, 0.0])


@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=30))
def test_average_precision_matches_loop_oracle(flags):
    assert _ap(flags) == pytest.approx(ap_from_flags(flags))


@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=20))
def test_average_precision_in_unit_interval(flags):
    assert 0.0 <= _ap(flags) <= 1.0


@pytest.mark.parametrize("shape", [(200, 128), (200, 1600), (32, 20352)])
def test_narrow_hit_counts_give_the_float64_ap_exactly(shape):
    rng = np.random.default_rng(shape[1])
    # rows from nearly empty to nearly full, plus one with no hit at all
    density = np.linspace(0.01, 0.99, shape[0])[:, None]
    flags = (rng.random(shape) < density).astype(np.int32)
    flags[shape[0] // 2] = 0
    ap = _ap_per_query(flags)
    assert _hit_counts(flags).dtype == np.int16
    assert ap.dtype == np.float64
    assert np.array_equal(ap, float64_ap_per_query(flags))


@pytest.mark.parametrize("g, count_type", [(32767, np.int16),
                                           (32768, np.int32)])
def test_hit_counts_reach_the_bound_of_their_type(g, count_type):
    # all-hit rows count up to G, the largest value the type must hold
    rng = np.random.default_rng(g)
    flags = np.stack([np.ones(g, np.int32), np.zeros(g, np.int32),
                      (rng.random(g) < 0.5).astype(np.int32)])
    counts = _hit_counts(flags)
    assert counts.dtype == count_type
    assert counts[0, -1] == g
    ap = _ap_per_query(flags)
    assert np.array_equal(ap, float64_ap_per_query(flags))
    assert ap[0] == 1.0 and ap[1] == 0.0


# --- retrieval and MAP -----------------------------------------------------

def test_retrieve_three_item_instance():
    # gallery sorted to distances 0, 1, 2 with relevance (1, 0, 1)
    query = [[1, 1, 1]]
    gallery = [[1, 1, 1], [1, 1, -1], [1, -1, -1]]
    res = retrieve(query, [{0}], gallery, [{0}, {1}, {0}])
    np.testing.assert_array_equal(res.ranked_indices, [[0, 1, 2]])
    np.testing.assert_array_equal(res.ranked_relevance, [[1, 0, 1]])
    assert res.average_precisions[0] == pytest.approx(5 / 6)
    assert mean_average_precision(
        query, [{0}], gallery, [{0}, {1}, {0}]) == pytest.approx(5 / 6)


def test_retrieve_top_r_one_nearest_relevant():
    query = [[1, 1]]
    gallery = [[1, 1], [-1, -1]]
    res = retrieve(query, [{0}], gallery, [{0}, {0}], top_r=1)
    assert res.ranked_indices.shape == (1, 1)
    assert res.average_precisions[0] == 1.0


def test_retrieve_ties_break_by_gallery_index():
    # all gallery codes equidistant from the query
    query = [[1, 1]]
    gallery = [[1, -1], [-1, 1], [1, -1]]
    res = retrieve(query, [{0}], gallery, [{1}, {0}, {1}])
    np.testing.assert_array_equal(res.ranked_indices, [[0, 1, 2]])


def test_retrieve_top_r_out_of_range():
    query = [[1, 1]]
    gallery = [[1, 1], [-1, -1]]
    with pytest.raises(ValueError):
        retrieve(query, [{0}], gallery, [{0}, {0}], top_r=3)
    with pytest.raises(ValueError):
        retrieve(query, [{0}], gallery, [{0}, {0}], top_r=0)


def test_map_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        nq = int(rng.integers(1, 8))
        ng = int(rng.integers(1, 8))
        q = np.where(rng.random((nq, k)) < 0.5, -1, 1)
        g = np.where(rng.random((ng, k)) < 0.5, -1, 1)
        ql = [{int(rng.integers(0, 3))} for _ in range(nq)]
        gl = [{int(rng.integers(0, 3))} for _ in range(ng)]
        expected, rankings = brute_force_map(q, ql, g, gl)
        res = retrieve(q, ql, g, gl)
        np.testing.assert_array_equal(res.ranked_indices, rankings)
        got = mean_average_precision(q, ql, g, gl)
        assert got == pytest.approx(expected, abs=1e-12)


@settings(max_examples=50)
@given(codes_strategy(), st.data())
def test_retrieve_rankings_are_permutations(gallery, data):
    k = len(gallery[0])
    query = data.draw(st.lists(
        st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k),
        min_size=1, max_size=4))
    ql = [{0}] * len(query)
    gl = [{0}] * len(gallery)
    res = retrieve(query, ql, gallery, gl)
    for row in res.ranked_indices:
        assert sorted(row) == list(range(len(gallery)))
    assert ((res.average_precisions >= 0) &
            (res.average_precisions <= 1)).all()


def test_map_all_gallery_identical_and_relevant():
    query = [[1, -1, 1]]
    gallery = [[1, -1, 1]] * 4
    assert mean_average_precision(query, [{2}], gallery, [{2}] * 4) == 1.0


def random_ternary_instance(rng, min_bits=1):
    """Codes over {-1, 0, +1} and label sets of one or two ids."""
    k = int(rng.integers(min_bits, 7))
    nq = int(rng.integers(1, 6))
    ng = int(rng.integers(1, 8))
    q = rng.integers(-1, 2, (nq, k))
    g = rng.integers(-1, 2, (ng, k))

    def label_sets(n):
        return [{int(v) for v in rng.integers(0, 4, int(rng.integers(1, 3)))}
                for _ in range(n)]

    return q, label_sets(nq), g, label_sets(ng)


def test_ternary_retrieval_matches_brute_force():
    rng = np.random.default_rng(321)
    for _ in range(100):
        q, ql, g, gl = random_ternary_instance(rng)
        expected, rankings = brute_force_map(q, ql, g, gl)
        res = retrieve(q, ql, g, gl)
        np.testing.assert_array_equal(res.ranked_indices, rankings)
        assert mean_average_precision(q, ql, g, gl) == \
            pytest.approx(expected, abs=1e-12)
        top_r = int(rng.integers(1, g.shape[0] + 1))
        cut = retrieve(q, ql, g, gl, top_r=top_r)
        for i, order in enumerate(rankings):
            flags = [1 if ql[i] & gl[j] else 0 for j in order[:top_r]]
            np.testing.assert_array_equal(cut.ranked_indices[i],
                                          order[:top_r])
            np.testing.assert_array_equal(cut.ranked_relevance[i], flags)
            assert cut.average_precisions[i] == \
                pytest.approx(ap_from_flags(flags), abs=1e-12)
        for radius in (0.0, 0.5, 1.0, 1.5, 2.0, 3.5):
            assert precision_at_hamming_radius(q, ql, g, gl, radius) == \
                pytest.approx(brute_force_radius_precision(
                    q, ql, g, gl, radius), abs=1e-12)
        n_values = list(range(1, g.shape[0] + 1))
        assert precision_at_top_n(q, ql, g, gl, n_values) == pytest.approx(
            brute_force_top_n(q, ql, g, gl, n_values), abs=1e-12)
        # counts are exact and each ratio is one rounding, so equal bits
        assert pr_curve(q, ql, g, gl) == brute_force_pr_curve(q, ql, g, gl)


def _check_cuts_against_oracle(q, ql, g, gl, top_rs):
    expected, rankings = brute_force_map(q, ql, g, gl)
    full = retrieve(q, ql, g, gl)
    np.testing.assert_array_equal(full.ranked_indices, rankings)
    assert full.average_precisions.mean() == pytest.approx(expected,
                                                           abs=1e-12)
    for top_r in top_rs:
        cut = retrieve(q, ql, g, gl, top_r=top_r)
        np.testing.assert_array_equal(
            cut.ranked_indices, [order[:top_r] for order in rankings])
        for i, order in enumerate(rankings):
            flags = [1 if ql[i] & gl[j] else 0 for j in order[:top_r]]
            np.testing.assert_array_equal(cut.ranked_relevance[i], flags)
            assert cut.average_precisions[i] == \
                pytest.approx(ap_from_flags(flags), abs=1e-12)
        assert precision_at_top_n(q, ql, g, gl, [top_r]) == pytest.approx(
            brute_force_top_n(q, ql, g, gl, [top_r]), abs=1e-12)


def test_top_r_cut_inside_runs_of_tied_keys():
    # 3 ternary bits give 7 keys, so ~2,000 gallery items fall into long
    # runs of equal distance, and the cut must keep gallery-index order
    rng = np.random.default_rng(77)
    q = rng.integers(-1, 2, (4, 3))
    g = rng.integers(-1, 2, (2000, 3))
    ql = [{int(v)} for v in rng.integers(0, 3, 4)]
    gl = [{int(v)} for v in rng.integers(0, 3, 2000)]
    dist = sorted(code_distance(q[0], row) for row in g)
    below = sum(1 for d in dist if d < dist[700])
    run = sum(1 for d in dist if d == dist[700])
    inside = below + run // 2
    assert run > 100 and dist[inside - 1] == dist[inside]  # a tie straddles it
    _check_cuts_against_oracle(q, ql, g, gl, (1, inside, 2000))


def test_int32_keys_past_2k_of_32767():
    # K = 16,384 puts the antipodal key 2K = 32,768 past int16
    rng = np.random.default_rng(5)
    k = 16384
    q = rng.integers(-1, 2, (3, k))
    q[0] = rng.choice([-1, 1], k)
    g = np.vstack([-q[0], q[0],
                   rng.integers(-1, 2, (5, k)), -q[1]])
    ql = [{0}, {1}, {0, 2}]
    gl = [{0}, {1}, {2}, {0}, {1}, {3}, {2}, {0}]
    assert pairwise_hamming(q[:1], g[:1])[0, 0] == k
    _check_cuts_against_oracle(q, ql, g, gl, (1, 4, 8))
    assert pr_curve(q, ql, g, gl) == brute_force_pr_curve(q, ql, g, gl)
    for radius in (0.0, 8191.5, 8192.0, 16383.5, 16384.0):
        assert precision_at_hamming_radius(q, ql, g, gl, radius) == \
            pytest.approx(brute_force_radius_precision(q, ql, g, gl, radius),
                          abs=1e-12)


@pytest.mark.parametrize("k, dtype", [(107374181, np.int32),
                                      (107374182, np.int64)])
def test_packed_width_either_side_of_its_bound(k, dtype):
    # with G = 5, (2K + 1) * 2G is 2**31 - 18 for the first K and 2**31 + 2
    # for the second: its packed values for key 2K at gallery index 4 pass
    # 2**31 - 1, so in int32 they would wrap negative and rank first
    top = 2 * k
    keys = np.array([[top, 0, top, top - 1, top],
                     [top - 1, top, top - 1, top, top],
                     [top, top, top, top, top]], dtype=np.int32)
    rel = np.array([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1], [1, 0, 0, 1, 1]],
                   dtype=bool)
    assert _packed(keys, k, rel).dtype == dtype
    index = np.arange(keys.shape[1])
    order = np.array([np.lexsort((index, row)) for row in keys])
    for top_r in (None, 1, keys.shape[1]):
        got_order, got_flags = _ranked_relevance(keys, k, rel, top_r)
        np.testing.assert_array_equal(got_order, order[:, :top_r])
        np.testing.assert_array_equal(
            got_flags, np.take_along_axis(rel, order[:, :top_r], axis=1))


@pytest.mark.parametrize("n_query, n_gallery, k, n_blocks", [
    (32, 1600, 16, 4),     # a desk-full request
    (600, 700, 8, 13),     # at most 54 columns a block
    (400, 3000, 64, 1),    # more than _MAX_BLOCKS blocks: whole
    (5000, 3, 64, 1),      # one row of g alone is past _ONE_THREAD
])
def test_products_in_blocks_equal_the_whole_product(n_query, n_gallery, k,
                                                    n_blocks):
    rng = np.random.default_rng(n_gallery)
    q = rng.integers(-1, 2, (n_query, k)).astype(np.float64)
    g = rng.integers(-1, 2, (n_gallery, k)).astype(np.float64)
    blocks = list(_products(q, g))
    assert len(blocks) == n_blocks <= _MAX_BLOCKS
    covered = np.concatenate([np.arange(n_gallery)[cols]
                              for cols, _ in blocks])
    np.testing.assert_array_equal(covered, np.arange(n_gallery))
    if n_blocks > 1:
        assert all(dots.size * k <= _ONE_THREAD for _, dots in blocks)
    keys = _keys(q, g)
    assert keys.dtype == np.int16
    np.testing.assert_array_equal(keys, k - q @ g.T)
    labels = [{int(v)} for v in rng.integers(0, 5, n_query + n_gallery)]
    np.testing.assert_array_equal(
        relevance_matrix(labels[:n_query], labels[n_query:]),
        np.equal.outer([min(s) for s in labels[:n_query]],
                       [min(s) for s in labels[n_query:]]))


def test_ternary_bit_scores_match_brute_force():
    rng = np.random.default_rng(654)
    for _ in range(40):
        q, ql, g, gl = random_ternary_instance(rng, min_bits=2)
        p = score_neurons(g, gl, q, ql)
        for bit in range(q.shape[1]):
            keep = [c for c in range(q.shape[1]) if c != bit]
            expected, _ = brute_force_map(q[:, keep], ql, g[:, keep], gl)
            assert p[bit] == pytest.approx(expected, abs=1e-12)


def test_bit_scores_equal_map_without_the_bit_exactly():
    # score_neurons ranks by the full key shifted by exact integers, so
    # each score is the MAP of the codes without that bit, bit for bit
    rng = np.random.default_rng(2468)
    instances = [random_ternary_instance(rng, min_bits=2) for _ in range(40)]
    instances.append((rng.integers(-1, 2, (40, 12)),
                      [{int(v)} for v in rng.integers(0, 6, 40)],
                      rng.integers(-1, 2, (300, 12)),
                      [{int(v)} for v in rng.integers(0, 6, 300)]))
    for q, ql, g, gl in instances:
        # a query row that no gallery item is relevant to
        q = np.vstack([q, rng.integers(-1, 2, q.shape[1])])
        ql = ql + [{99}]
        p = score_neurons(g, gl, q, ql)
        for bit in range(q.shape[1]):
            keep = [c for c in range(q.shape[1]) if c != bit]
            assert p[bit] == mean_average_precision(q[:, keep], ql,
                                                    g[:, keep], gl)


def duplicated_instance(rng, n_query, n_gallery, k, n_codes):
    """Queries and gallery drawn from a few distinct code rows and label
    sets, as trained codes look."""
    codes = rng.integers(-1, 2, (n_codes, k))
    sets = [{0}, {1}, {0, 1}, {2}, {1, 3}]
    q = codes[rng.integers(0, n_codes, n_query)]
    ql = [sets[i] for i in rng.integers(0, len(sets), n_query)]
    g = codes[rng.integers(0, n_codes, n_gallery)]
    gl = [sets[i] for i in rng.integers(0, len(sets), n_gallery)]
    return q, ql, g, gl


def test_bit_scores_are_exact_under_heavy_duplication():
    rng = np.random.default_rng(1357)
    instances = [duplicated_instance(rng, int(rng.integers(2, 60)),
                                     int(rng.integers(2, 150)),
                                     int(rng.integers(2, 10)),
                                     int(rng.integers(1, 5)))
                 for _ in range(30)]
    for q, ql, g, gl in instances:
        # equal codes with different label sets, equal label sets on
        # different codes, and a query no gallery item is relevant to
        q = np.vstack([q, q[:1], -q[:1], q[:1]])
        ql = ql + [{4}, ql[0], {99}]
        p = score_neurons(g, gl, q, ql)
        for bit in range(q.shape[1]):
            keep = [c for c in range(q.shape[1]) if c != bit]
            assert p[bit] == mean_average_precision(q[:, keep], ql,
                                                    g[:, keep], gl)


@pytest.mark.parametrize("labels, distinct", [
    # equal codes, different label sets, different relevance rows
    (({0}, {1}, {0}), 3),
    # {0} and {0, 7} differ, but no gallery item holds 7: equal rows
    (({0}, {0, 7}, {1}), 2),
])
def test_equal_query_rows_are_ranked_once(monkeypatch, labels, distinct):
    rows = []

    def recording(ranked):
        rows.append(ranked.shape[0])
        return _ap_per_query(ranked)

    monkeypatch.setattr(merging, "_ap_per_query", recording)
    rng = np.random.default_rng(97)
    a, b = rng.integers(-1, 2, (2, 6))
    a[0], b[0] = 1, -1
    pick = rng.integers(0, 3, 40)
    pick[:3] = [0, 1, 2]
    q = np.array([a, a, b])[pick]
    ql = [labels[i] for i in pick]
    g = rng.integers(-1, 2, (50, 6))
    gl = [{int(v)} for v in rng.integers(0, 3, 50)]
    p = score_neurons(g, gl, q, ql)
    assert rows == [distinct] * 6
    monkeypatch.undo()
    for bit in range(6):
        keep = [c for c in range(6) if c != bit]
        assert p[bit] == mean_average_precision(q[:, keep], ql,
                                                g[:, keep], gl)


# --- pairing refusals --------------------------------------------------------

_Q = [[1, -1, 0], [1, 1, 1]]
_QL = [{0}, {1, 2}]
_G = [[1, 1, -1], [-1, 0, 1], [1, 1, 1]]
_GL = [{0}, {2}, {1}]

# every query-gallery entry point, called as (q, q_labels, g, g_labels)
_ENTRY_POINTS = {
    "retrieve": retrieve,
    "mean_average_precision": mean_average_precision,
    "precision_at_hamming_radius": precision_at_hamming_radius,
    "pr_curve": pr_curve,
    "precision_at_top_n":
        lambda q, ql, g, gl: precision_at_top_n(q, ql, g, gl, [1]),
    "score_neurons": lambda q, ql, g, gl: score_neurons(g, gl, q, ql),
    "pairwise_hamming": lambda q, ql, g, gl: pairwise_hamming(q, g),
}
_UNLABELLED = ("pairwise_hamming",)

_BAD_INPUTS = {
    "code length": ((_Q, _QL, [row[:2] for row in _G], _GL),
                    ValueError, "code length mismatch"),
    "query label count": ((_Q, _QL[:1], _G, _GL),
                          ValueError, "label counts do not match"),
    "gallery label count": ((_Q, _QL, _G, _GL + [{0}]),
                            ValueError, "label counts do not match"),
    "non-code value": (([[1, -1, 0.5], [1, 1, 1]], _QL, _G, _GL),
                       InvalidCodeError, "code entries"),
}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in _ENTRY_POINTS for case in _BAD_INPUTS
    if not (entry in _UNLABELLED and "label" in case)])
def test_entry_points_refuse_unpaired_inputs(entry, case):
    args, error, message = _BAD_INPUTS[case]
    with pytest.raises(error, match=message):
        _ENTRY_POINTS[entry](*args)


# --- precision within a radius ---------------------------------------------

def test_precision_at_radius_half_relevant():
    query = [[1, 1, 1, 1]]
    gallery = [[1, 1, 1, 1], [1, 1, 1, -1], [-1, -1, -1, -1]]
    # distances 0, 1, 4; only the first two fall inside radius 2
    val = precision_at_hamming_radius(
        query, [{0}], gallery, [{0}, {1}, {0}], radius=2.0)
    assert val == pytest.approx(0.5)


def test_precision_at_radius_empty_retrieval_scores_zero():
    query = [[1, 1, 1, 1]]
    gallery = [[-1, -1, -1, -1]]
    val = precision_at_hamming_radius(query, [{0}], gallery, [{0}], radius=2.0)
    assert val == 0.0


def test_precision_at_radius_rejects_negative_radius():
    for radius in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            precision_at_hamming_radius([[1]], [{0}], [[1]], [{0}],
                                        radius=radius)


# --- precision-recall curve ------------------------------------------------

def test_pr_curve_threshold_grid():
    k = 4
    query = [[1] * k]
    gallery = [[1] * k, [-1] * k]
    points = pr_curve(query, [{0}], gallery, [{0}, {1}])
    assert len(points) == 2 * k + 1
    assert [p.threshold for p in points] == [t / 2 for t in range(2 * k + 1)]


def test_pr_curve_perfect_codes_reach_full_precision_and_recall():
    query = [[1, 1], [-1, -1]]
    gallery = [[1, 1], [-1, -1]]
    points = pr_curve(query, [{0}, {1}], gallery, [{0}, {1}])
    assert any(p.precision == 1.0 and p.recall == 1.0 for p in points)


def test_pr_curve_empty_retrieval_convention():
    # minimum distance is 1, so the t=0 and t=0.5 points retrieve nothing
    query = [[1, 1]]
    gallery = [[1, -1]]
    points = pr_curve(query, [{0}], gallery, [{0}])
    assert points[0] == (0.0, 0.0, 0.0)
    assert points[1] == (0.5, 0.0, 0.0)
    assert points[2].precision == 1.0


def test_pr_curve_micro_average_hand_instance():
    # two queries, one gallery item each side: at t=2 query 0 retrieves
    # both items (1 relevant), query 1 retrieves one (relevant), so pooled
    # precision is 2/3 and recall is 2/2
    query = [[1, 1, 1, 1], [-1, -1, -1, -1]]
    gallery = [[1, 1, 1, 1], [-1, -1, 1, 1]]
    ql = [{0}, {1}]
    gl = [{0}, {1}]
    points = {p.threshold: p for p in pr_curve(query, ql, gallery, gl)}
    assert points[2.0].precision == pytest.approx(2 / 3)
    assert points[2.0].recall == pytest.approx(1.0)


@settings(max_examples=40)
@given(codes_strategy(max_rows=5, max_bits=4), st.data())
def test_pr_curve_recall_nondecreasing(gallery, data):
    k = len(gallery[0])
    query = data.draw(st.lists(
        st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k),
        min_size=1, max_size=3))
    labels_q = [{i % 2} for i in range(len(query))]
    labels_g = [{j % 2} for j in range(len(gallery))]
    points = pr_curve(query, labels_q, gallery, labels_g)
    recalls = [p.recall for p in points]
    assert all(a <= b + 1e-15 for a, b in zip(recalls, recalls[1:]))
    assert recalls[-1] in (0.0, 1.0)  # full-gallery retrieval


# --- precision at top n ----------------------------------------------------

def test_precision_at_top_n_hand_cases():
    query = [[1, 1, 1]]
    gallery = [[1, 1, 1], [1, 1, -1], [1, -1, -1]]
    labels_g = [{0}, {1}, {0}]
    vals = precision_at_top_n(query, [{0}], gallery, labels_g, [1, 2, 3])
    assert vals == pytest.approx([1.0, 0.5, 2 / 3])


def test_precision_at_top_n_all_relevant_is_one():
    query = [[1, -1]]
    gallery = [[1, -1], [-1, -1], [1, 1]]
    vals = precision_at_top_n(query, [{0}], gallery, [{0}] * 3, [3])
    assert vals == [1.0]


def test_precision_at_top_one_nearest_irrelevant_is_zero():
    query = [[1, 1]]
    gallery = [[1, 1], [-1, -1]]
    vals = precision_at_top_n(query, [{0}], gallery, [{1}, {0}], [1])
    assert vals == [0.0]


def test_precision_at_top_n_rejects_out_of_range():
    query = [[1, 1]]
    gallery = [[1, 1], [-1, -1]]
    with pytest.raises(ValueError):
        precision_at_top_n(query, [{0}], gallery, [{0}, {0}], [3])
    with pytest.raises(ValueError):
        precision_at_top_n(query, [{0}], gallery, [{0}, {0}], [0])
