import numpy as np
import pytest

from anisotl.grids import (
    GridSpec,
    flat_index,
    freq_points,
    mesh_points,
    mirror_rows,
    offset_index_vectors,
    spatial_points,
)

GRIDS = [GridSpec(d=1, extent=8.0, n=16), GridSpec(d=2, extent=2.0, n=8)]
GRID_IDS = ["d1", "d2"]


def _fft_positions(grid):
    """Row p: the multi-index of flat C-order (FFT) position p."""
    return np.indices(grid.shape).reshape(grid.d, -1).T


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_mesh_point_row_p_is_fft_position_p(grid):
    multi = _fft_positions(grid)
    values = 1.5 * np.arange(grid.n) - 3.0
    assert np.array_equal(mesh_points(values, grid.d), values[multi])
    axis = -grid.extent + grid.h * np.arange(grid.n, dtype=float)
    assert np.array_equal(spatial_points(grid), axis[multi])
    assert np.array_equal(freq_points(grid), np.fft.fftfreq(grid.n, d=grid.h)[multi])


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_flat_index_inverts_the_offset_layout(grid):
    offs = offset_index_vectors(grid)
    assert offs.dtype == np.int64
    assert np.array_equal(flat_index(grid, offs), np.arange(grid.size))
    # the former mirror formula, kept as the reference
    old = np.ravel_multi_index(tuple((-offs % grid.n).T), grid.shape)
    assert np.array_equal(flat_index(grid, -offs), old)
    assert np.array_equal(mirror_rows(grid, offs)[0], old)
