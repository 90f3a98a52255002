"""Reference implementations the tests compare the package against."""

import numpy as np


def map_values(grid: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Read one (H, W) grid at (x, y) coordinates rounded to the nearest
    pixel, one point at a time; points off the grid read 0."""
    coords = np.asarray(coords, dtype=np.float64)
    H, W = grid.shape
    out = [float(grid[y, x]) if 0 <= x < W and 0 <= y < H else 0.0
           for x, y in np.rint(coords).astype(np.int64).reshape(-1, 2)]
    return np.array(out).reshape(coords.shape[:-1])
