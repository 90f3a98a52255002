"""Reference implementations the tests compare the package against."""

import numpy as np

from facealign.cascade import leaf_ids
from facealign.errors import FormatError, NumericError


def map_values(grid: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Read one (H, W) grid at (x, y) coordinates rounded to the nearest
    pixel, one point at a time; points off the grid read 0."""
    coords = np.asarray(coords, dtype=np.float64)
    H, W = grid.shape
    out = [float(grid[y, x]) if 0 <= x < W and 0 <= y < H else 0.0
           for x, y in np.rint(coords).astype(np.int64).reshape(-1, 2)]
    return np.array(out).reshape(coords.shape[:-1])


def apply_stage_per_part(stage, V, coords, vis=None) -> None:
    """apply_stage one part at a time: a traversal of each part's own
    forest and a stacked sum over each part's columns."""
    n = coords.shape[0]
    for pm in stage.parts:
        p = pm.landmarks
        leaf = leaf_ids(pm, V[:, p, :])
        steps = stage.shrinkage * pm.leaf_residual[leaf.T]  # (K, n, 2 * part_size)
        start = coords[:, p, :].reshape(1, n, -1)
        coords[:, p, :] = np.concatenate([start, steps]).sum(axis=0).reshape(n, len(p), 2)
        if vis is not None:
            K = pm.n_trees
            keep = 1.0 - 1.0 / K
            weights = (1.0 / K) * keep ** np.arange(K - 1, -1, -1)
            vis[:, p] = keep ** K * vis[:, p] + weights @ pm.leaf_visibility[leaf]


def map_value_error(maps):
    """The exception class a map raster's values call for: NumericError for
    any non-finite value, else FormatError for any negative one, else None."""
    if not np.all(np.isfinite(maps)):
        return NumericError
    if np.any(maps < 0):
        return FormatError
    return None
