"""Re-identification retrieval metrics under the cross-camera protocol.

For each query, gallery entries sharing both its identity and its camera are
removed, the rest are ranked by distance (ties broken by gallery index), and
CMC / average precision are read off the ranked list. Queries left with no
same-identity entry after removal cannot be scored; they are excluded and
counted.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError


class EvalTableError(ValueError):
    """No query has a valid cross-camera match; nothing can be scored."""


def pairwise_distances(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Plain [Q, G] Euclidean distance table (no gradients)."""
    queries = np.asarray(queries, dtype=np.float64)
    gallery = np.asarray(gallery, dtype=np.float64)
    if queries.ndim != 2 or gallery.ndim != 2 or queries.shape[1] != gallery.shape[1]:
        raise ShapeError("queries %s and gallery %s must share width"
                         % (queries.shape, gallery.shape))
    sq = (queries ** 2).sum(axis=1)[:, None] + (gallery ** 2).sum(axis=1)[None, :]
    s = sq - 2.0 * (queries @ gallery.T)
    return np.sqrt(np.maximum(s, 0.0))


class EvalTable:
    def __init__(self, dist, q_ids, q_cams, g_ids, g_cams):
        self.dist = np.asarray(dist, dtype=np.float64)
        self.q_ids = np.asarray(q_ids)
        self.q_cams = np.asarray(q_cams)
        self.g_ids = np.asarray(g_ids)
        self.g_cams = np.asarray(g_cams)
        q, g = self.dist.shape
        if not (len(self.q_ids) == len(self.q_cams) == q):
            raise ShapeError("query labels do not match distance rows")
        if not (len(self.g_ids) == len(self.g_cams) == g):
            raise ShapeError("gallery labels do not match distance columns")


def cmc_and_map(table: EvalTable, max_rank: int = 20, cross_camera: bool = True):
    """Returns (cmc[max_rank], mAP, skipped_queries), all queries at once.

    ``cross_camera=False`` disables the same-camera filtering; that sanity
    mode makes a shared query/gallery set score a trivial self-match R-1.
    """
    # stable sort keeps lower gallery indices first on ties
    order = np.argsort(table.dist, axis=1, kind="stable")
    same = table.g_ids[order] == table.q_ids[:, None]
    drop = same & (table.g_cams[order] == table.q_cams[:, None])
    kept = ~drop if cross_camera else np.ones_like(drop)
    match = same & kept
    matches = match.sum(axis=1)
    scored = matches > 0
    valid = int(scored.sum())
    if valid == 0:
        raise EvalTableError("every query lost all valid gallery matches")
    rank = np.cumsum(kept, axis=1)  # 1-based rank among the kept entries
    first = np.take_along_axis(rank, match.argmax(axis=1)[:, None], 1)[scored, 0]
    hits = (first[:, None] <= np.arange(1, max_rank + 1)).sum(axis=0)
    # precision at each match, else 0; cumsum adds them in rank order
    precision = np.divide(np.cumsum(match, axis=1), rank,
                          out=np.zeros(rank.shape), where=match)
    aps = np.cumsum(precision, axis=1)[scored, -1] / matches[scored]
    return hits / valid, float(np.mean(aps)), len(scored) - valid


def metrics_rows(cmc: np.ndarray, mean_ap: float, skipped: int):
    """The (metric, value) rows written to results CSVs."""
    rows = [("mAP", mean_ap)]
    for rank in (1, 5, 10, 20):
        if rank <= len(cmc):
            rows.append(("R-%d" % rank, float(cmc[rank - 1])))
    rows.append(("skipped_queries", skipped))
    return rows
