"""Uniform FFT-compatible sampling grids on a centered box (torus surrogate)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Cartesian grid on [-extent, extent)^d with n samples per axis.

    n must be a power of two; the step h = 2*extent/n is uniform per axis.
    Frequencies live on the dual lattice k/(2*extent), |xi_i| < nyquist.
    """

    d: int
    extent: float
    n: int

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two, got {self.n}")
        if self.extent <= 0:
            raise ValueError("extent must be positive")

    @property
    def h(self) -> float:
        return 2.0 * self.extent / self.n

    @property
    def nyquist(self) -> float:
        return 1.0 / (2.0 * self.h)

    @property
    def size(self) -> int:
        return self.n**self.d

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    @property
    def box_volume(self) -> float:
        return (2.0 * self.extent) ** self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    def refined(self) -> "GridSpec":
        """Same box, twice the samples per axis."""
        return GridSpec(self.d, self.extent, self.n * 2)

    def widened(self) -> "GridSpec":
        """Same step, twice as wide a box."""
        return GridSpec(self.d, self.extent * 2, self.n * 2)


# The one store of derived tables.  A key is a tuple: the table's name
# ("cube", "shells", "t", ...) and then values only (GridSpec,
# S.value_key, matrix bytes), so equal inputs share one table and no
# table can belong to another object.
_CACHE: dict = {}


def cached(key, build):
    """The table for key: build() runs on first use and its result is kept
    in _CACHE.  Arrays, returned directly, as fields of a dataclass or
    inside tuple fields, are made read-only before they are handed out."""
    value = _CACHE.get(key)
    if value is None:
        value = _CACHE[key] = build()
        for item in (value, *getattr(value, "__dict__", {}).values()):
            for arr in item if isinstance(item, tuple) else (item,):
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False
    return value


def cached_batch(keys, build):
    """The tables for several keys, in order: build(missing) runs once on
    the keys not yet in _CACHE (each once) and returns their tables in that
    order; each is kept and handed out as cached keeps it."""
    missing = list(dict.fromkeys(key for key in keys if key not in _CACHE))
    if missing:
        for key, value in zip(missing, build(missing), strict=True):
            cached(key, lambda value=value: value)
    return [_CACHE[key] for key in keys]


def spatial_axis(grid: GridSpec) -> np.ndarray:
    return cached(("sx", grid), lambda: -grid.extent + grid.h * np.arange(grid.n, dtype=float))


def spatial_points(grid: GridSpec) -> np.ndarray:
    """All grid points as an (N, d) array in C (FFT) order."""

    def build():
        ax = spatial_axis(grid)
        mesh = np.meshgrid(*([ax] * grid.d), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    return cached(("sp", grid), build)


def freq_axis(grid: GridSpec) -> np.ndarray:
    return cached(("fx", grid), lambda: np.fft.fftfreq(grid.n, d=grid.h))


def freq_points(grid: GridSpec) -> np.ndarray:
    """All lattice frequencies as an (N, d) array in FFT order."""

    def build():
        ax = freq_axis(grid)
        mesh = np.meshgrid(*([ax] * grid.d), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    return cached(("fp", grid), build)


def spectral_phase(grid: GridSpec) -> np.ndarray:
    """Phase e^(2 pi i xi . x0) aligning FFT indexing with the centered box."""

    def build():
        pts = freq_points(grid)
        x0 = -grid.extent * np.ones(grid.d)
        return np.exp(2j * np.pi * (pts @ x0)).reshape(grid.shape)

    return cached(("ph", grid), build)


def offset_index_vectors(grid: GridSpec) -> np.ndarray:
    """Integer offset vectors in [-n/2, n/2)^d, C order, for torus shifts."""

    def build():
        half = np.arange(grid.n)
        half = np.where(half >= grid.n // 2, half - grid.n, half)
        mesh = np.meshgrid(*([half] * grid.d), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1).astype(np.int64)

    return cached(("off", grid), build)


def mirror_rows(grid: GridSpec, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mirror, copy) for points pts given per row of the FFT-order lattice
    (offset_index_vectors, freq_points).

    mirror[p] is the row of -z_p; copy[p] marks a row whose point is, bit
    for bit, the negation of an earlier row's point, so a function even in
    x can copy its value from row mirror[p].  A row with a -n/2 component
    has no negation on the lattice and is never a copy.  Row 0, the origin,
    is its own mirror and counts as a copy: its value is not solved.
    """

    def build():
        offs = offset_index_vectors(grid)
        mirror = np.ravel_multi_index(tuple((-offs % grid.n).T), grid.shape)
        earlier = mirror < np.arange(grid.size)
        earlier[0] = True
        return mirror, earlier

    mirror, earlier = cached(("mirror", grid), build)
    return mirror, earlier & np.all(pts[mirror] == -pts, axis=1)
