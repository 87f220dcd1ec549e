import numpy as np
import pytest

from denseil import posemb
from denseil.tensor import ShapeError
from oracles import step_emb_ref


def test_spatial_entries_match_formula():
    P, d = 6, 10
    table = posemb.sinusoid_table(P, d)
    for p in (1, 3, 6):
        for j in (1, 2, 7, 10):
            angle = p / 10000.0 ** (j / d)
            want = np.sin(angle) if j % 2 == 0 else np.cos(angle)
            assert abs(table[p - 1, j - 1] - want) < 1e-15


def test_entries_bounded():
    table = posemb.sinusoid_table(64, 32)
    assert np.all(table <= 1.0) and np.all(table >= -1.0)


def test_rows_distinct():
    table = posemb.sinusoid_table(64, 2)
    for a in range(64):
        for b in range(a + 1, 64):
            assert np.abs(table[a] - table[b]).max() > 1e-6


def test_combined_matches_reference():
    for I, P, d in ((1, 1, 2), (3, 2, 8), (8, 4, 16)):
        table = posemb.step_emb(I, P, d)
        assert table.shape == (I * P, d)
        assert np.abs(table - step_emb_ref(I, P, d)).max() < 1e-12


def test_combined_additivity_exact():
    table = posemb.step_emb(7, 3, 12)
    spatial = posemb.sinusoid_table(3, 12)
    temporal = posemb.sinusoid_table(7, 12)
    for i in range(1, 8):
        for p in range(1, 4):
            row = table[(i - 1) * 3 + (p - 1)]
            assert np.array_equal(row, spatial[p - 1] + temporal[i - 1])


def test_first_row_is_first_spatial_plus_first_temporal():
    first = posemb.sinusoid_table(4, 8)[0]  # spatial and temporal alike
    assert np.array_equal(posemb.step_emb(4, 4, 8)[0], first + first)


def test_rows_distinct_up_to_inherent_symmetry():
    # spatial and temporal tables share one sinusoid, so rows (i,p) and (p,i)
    # coincide exactly; every other pair must be well separated
    I, P = 16, 8
    table = posemb.step_emb(I, P, 8)
    idx = [(i, p) for i in range(1, I + 1) for p in range(1, P + 1)]
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            gap = np.abs(table[a] - table[b]).max()
            if idx[a] == idx[b][::-1]:
                assert gap == 0.0
            else:
                assert gap > 1e-6


def test_rejects_tiny_width():
    with pytest.raises(ShapeError):
        posemb.sinusoid_table(4, 1)


def test_table_is_cached():
    table = posemb.step_emb(8, 4, 64)
    assert posemb.step_emb(8, 4, 64) is table
    with pytest.raises(ValueError):
        table[0, 0] = 0.0  # shared by every caller, so read-only
