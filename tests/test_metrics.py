import numpy as np
import pytest

from denseil import metrics
from denseil.tensor import ShapeError
from oracles import cmc_map_ref


def random_table(rng, q=None, g=None):
    q = q or rng.integers(1, 7)
    g = g or rng.integers(1, 7)
    dist = np.round(rng.uniform(0, 3, size=(q, g)), 1)  # coarse grid forces ties
    q_ids = rng.integers(0, 4, size=q)
    q_cams = rng.integers(0, 3, size=q)
    g_ids = rng.integers(0, 4, size=g)
    g_cams = rng.integers(0, 3, size=g)
    return metrics.EvalTable(dist, q_ids, q_cams, g_ids, g_cams)


def test_pairwise_distances_basics():
    e1 = np.array([[1.0, 0.0]])
    e2 = np.array([[0.0, 1.0]])
    assert metrics.pairwise_distances(e1, e1)[0, 0] == 0.0
    assert abs(metrics.pairwise_distances(e1, e2)[0, 0] - np.sqrt(2)) < 1e-12


def test_pairwise_distances_hand_case():
    q = np.array([[0.0, 0.0], [3.0, 4.0]])
    g = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, -4.0]])
    want = np.array([[0.0, 3.0, 4.0], [5.0, 4.0, np.sqrt(9 + 64)]])
    assert np.allclose(metrics.pairwise_distances(q, g), want, atol=1e-12)


def test_pairwise_distances_symmetric_and_checked():
    rng = np.random.default_rng(100)
    e = rng.normal(size=(5, 3))
    d = metrics.pairwise_distances(e, e)
    assert np.allclose(d, d.T, atol=1e-12)
    with pytest.raises(ShapeError):
        metrics.pairwise_distances(np.zeros((2, 3)), np.zeros((2, 4)))


def test_single_query_nearest_match():
    table = metrics.EvalTable([[0.1, 0.5, 0.9]], [7], [0], [7, 3, 7], [1, 0, 2])
    cmc, mean_ap, skipped = metrics.cmc_and_map(table, max_rank=3)
    assert np.array_equal(cmc, [1.0, 1.0, 1.0])
    assert skipped == 0


def test_hit_at_rank_three():
    table = metrics.EvalTable([[0.1, 0.2, 0.3, 0.4, 0.5]],
                              [1], [0], [2, 3, 1, 4, 5], [1, 1, 1, 1, 1])
    cmc, mean_ap, _ = metrics.cmc_and_map(table, max_rank=5)
    assert np.array_equal(cmc, [0.0, 0.0, 1.0, 1.0, 1.0])
    assert abs(mean_ap - 1.0 / 3.0) < 1e-12


def test_ap_two_relevant_at_ranks_one_and_three():
    table = metrics.EvalTable([[0.1, 0.2, 0.3]], [1], [0],
                              [1, 2, 1], [1, 1, 1])
    _, mean_ap, _ = metrics.cmc_and_map(table, max_rank=3)
    assert abs(mean_ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12


def test_same_camera_entries_removed():
    # the nearest entry shares id AND camera, so it must not count as a hit
    table = metrics.EvalTable([[0.1, 0.2]], [1], [0], [1, 1], [0, 1])
    cmc, mean_ap, _ = metrics.cmc_and_map(table, max_rank=2)
    assert cmc[0] == 1.0  # the cross-camera copy is rank 1 after removal
    # with both same-camera copies removed only id 2 remains: nothing to score
    table2 = metrics.EvalTable([[0.1, 0.2, 0.15]], [1], [0], [1, 2, 1], [0, 1, 0])
    with pytest.raises(metrics.EvalTableError):
        metrics.cmc_and_map(table2, max_rank=2)


def test_query_with_no_valid_match_is_skipped_and_counted():
    # query 0 loses its only same-id entry to camera filtering; query 1 scores
    dist = [[0.1, 0.2], [0.3, 0.4]]
    table = metrics.EvalTable(dist, [1, 2], [0, 0], [1, 2], [0, 1])
    cmc, mean_ap, skipped = metrics.cmc_and_map(table, max_rank=2)
    assert skipped == 1
    assert np.array_equal(cmc, [0.0, 1.0])  # id-2 match sits at rank 2
    assert abs(mean_ap - 0.5) < 1e-12


def test_all_queries_invalid_raises():
    table = metrics.EvalTable([[0.5]], [1], [0], [1], [0])
    with pytest.raises(metrics.EvalTableError):
        metrics.cmc_and_map(table)


def test_ties_break_by_gallery_index():
    table = metrics.EvalTable([[0.5, 0.5]], [1], [0], [2, 1], [1, 1])
    cmc, _, _ = metrics.cmc_and_map(table, max_rank=2)
    assert np.array_equal(cmc, [0.0, 1.0])
    flipped = metrics.EvalTable([[0.5, 0.5]], [1], [0], [1, 2], [1, 1])
    cmc2, _, _ = metrics.cmc_and_map(flipped, max_rank=2)
    assert np.array_equal(cmc2, [1.0, 1.0])


def test_one_query_ranked_past_the_gallery_size():
    # the shape of perfbench's per-query retrieval op: one query, and a
    # max_rank above the number of gallery entries left to rank
    table = metrics.EvalTable([[0.1, 0.3, 0.2]], [1], [0], [2, 1, 1], [1, 2, 0])
    cmc, mean_ap, skipped = metrics.cmc_and_map(table, max_rank=10)
    assert cmc.dtype == np.float64
    assert np.array_equal(cmc, [0.0] + [1.0] * 9)
    assert mean_ap == 0.5 and skipped == 0
    want = cmc_map_ref(table.dist, table.q_ids, table.q_cams, table.g_ids,
                       table.g_cams, 10)
    assert np.array_equal(cmc, want[0]) and (mean_ap, skipped) == want[1:]


def test_first_kept_entry_after_dropped_same_camera_entries():
    # the two nearest entries share the query's identity and camera; the
    # third is a cross-camera match, so it ranks first among kept entries
    table = metrics.EvalTable([[0.1, 0.2, 0.3, 0.4, 0.5]], [1], [0],
                              [1, 1, 1, 2, 1], [0, 0, 2, 1, 1])
    cmc, mean_ap, skipped = metrics.cmc_and_map(table, max_rank=3)
    assert np.array_equal(cmc, [1.0, 1.0, 1.0])
    assert mean_ap == (1.0 + 2.0 / 3.0) / 2.0 and skipped == 0


def test_empty_gallery_raises():
    table = metrics.EvalTable(np.zeros((2, 0)), [1, 2], [0, 0], [], [])
    with pytest.raises(metrics.EvalTableError):
        metrics.cmc_and_map(table)


def test_cmc_monotone_and_bounded():
    rng = np.random.default_rng(101)
    for _ in range(50):
        table = random_table(rng)
        try:
            cmc, mean_ap, _ = metrics.cmc_and_map(table, max_rank=6)
        except metrics.EvalTableError:
            continue
        assert np.all(np.diff(cmc) >= 0)
        assert cmc[-1] <= 1.0
        assert 0.0 <= mean_ap <= 1.0


def test_matches_brute_force_oracle_exactly():
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 200:
        table = random_table(rng)
        want_cmc, want_map, want_skipped = cmc_map_ref(
            table.dist, table.q_ids, table.q_cams, table.g_ids, table.g_cams, 6)
        try:
            cmc, mean_ap, skipped = metrics.cmc_and_map(table, max_rank=6)
        except metrics.EvalTableError:
            assert want_skipped == table.dist.shape[0]
            continue
        assert np.array_equal(cmc, want_cmc)
        assert mean_ap == want_map
        assert skipped == want_skipped
        checked += 1


def test_scale_invariance():
    rng = np.random.default_rng(103)
    q = rng.normal(size=(4, 3))
    g = rng.normal(size=(6, 3))
    ids = (rng.integers(0, 3, 4), rng.integers(0, 3, 6))
    cams = (np.zeros(4, int), np.ones(6, int))
    base = metrics.cmc_and_map(metrics.EvalTable(
        metrics.pairwise_distances(q, g), ids[0], cams[0], ids[1], cams[1]), 6)
    scaled = metrics.cmc_and_map(metrics.EvalTable(
        metrics.pairwise_distances(3.7 * q, 3.7 * g), ids[0], cams[0], ids[1], cams[1]), 6)
    assert np.array_equal(base[0], scaled[0]) and base[1] == scaled[1]


def test_self_match_sanity_mode():
    rng = np.random.default_rng(104)
    e = rng.normal(size=(5, 4))
    ids = np.arange(5)
    table = metrics.EvalTable(metrics.pairwise_distances(e, e), ids,
                              np.zeros(5, int), ids, np.ones(5, int))
    cmc, _, _ = metrics.cmc_and_map(table, max_rank=3)
    assert cmc[0] == 1.0


def test_metrics_rows_shape():
    rows = metrics.metrics_rows(np.linspace(0.5, 1.0, 20), 0.77, 2)
    names = [r[0] for r in rows]
    assert names == ["mAP", "R-1", "R-5", "R-10", "R-20", "skipped_queries"]
