"""Brute-force references the benchmark checks the library against.

Each function recomputes one library answer from the raw configuration by
a different route: dense all-pairs distances and
``scipy.sparse.csgraph.connected_components`` in place of the candidate
pairs and union-find or breadth-first search, and per-cell first arrival
in place of stencil painting. Agreement must be exact.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from poissonlab.process import BoxWindow, PointConfig
from poissonlab.stopping import LineSeed, SphereSeed


def _grains(config: PointConfig, rect: BoxWindow) -> tuple[np.ndarray, np.ndarray]:
    """Centers and radii of the disks that meet the closed rectangle."""
    pts = np.asarray(config.points, dtype=float).reshape(-1, 2)
    radii = np.asarray(config.marks.get("radius", np.empty(0)), dtype=float)
    gap = np.maximum(0.0, np.maximum(np.subtract(rect.lo, pts), pts - rect.hi))
    keep = (gap**2).sum(axis=1) <= radii**2
    return pts[keep], radii[keep]


def _labels(pts: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Component label of every disk in the open-disk intersection graph."""
    if len(pts) == 0:
        return np.empty(0, dtype=int)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    adj = d2 < (radii[:, None] + radii[None, :]) ** 2
    np.fill_diagonal(adj, False)
    _, labels = connected_components(csr_matrix(adj), directed=False)
    return labels


def _meet_line(pts, radii, rect: BoxWindow, axis: int, coord: float) -> np.ndarray:
    """Disks meeting the segment {x_axis = coord} inside the rectangle."""
    gap = np.maximum(0.0, np.maximum(np.subtract(rect.lo, pts), pts - rect.hi))
    gap[:, axis] = np.abs(pts[:, axis] - coord)
    return (gap**2).sum(axis=1) <= radii**2


def crossing(config: PointConfig, rect: BoxWindow) -> bool:
    """Left-right crossing of ``rect`` by the union of unit-mark disks."""
    pts, radii = _grains(config, rect)
    labels = _labels(pts, radii)
    left = labels[_meet_line(pts, radii, rect, 0, rect.lo[0])]
    right = labels[_meet_line(pts, radii, rect, 0, rect.hi[0])]
    return bool(np.intersect1d(left, right).size)


def exploration(config: PointConfig, rect: BoxWindow, seed, dilation: float,
                xs: np.ndarray) -> np.ndarray:
    """Membership of ``xs`` in the explored set: the seed and every disk
    component touching it, dilated by ``dilation``."""
    pts, radii = _grains(config, rect)
    labels = _labels(pts, radii)
    xs = np.atleast_2d(xs)
    if isinstance(seed, LineSeed):
        touch = _meet_line(pts, radii, rect, seed.axis, seed.coord)
        out = np.abs(xs[:, seed.axis] - seed.coord) <= dilation
    elif isinstance(seed, SphereSeed):
        touch = np.abs(np.sqrt((pts**2).sum(axis=1)) - seed.s) <= radii
        out = np.abs(np.sqrt((xs**2).sum(axis=1)) - seed.s) <= dilation
    else:
        raise TypeError(f"no reference for seed {seed!r}")
    comp = np.isin(labels, labels[touch])
    if comp.any():
        gap = np.sqrt(((xs[:, None, :] - pts[None, comp, :]) ** 2).sum(axis=2))
        out |= (gap - radii[comp][None, :]).min(axis=1) <= dilation
    return out


def confetti_black(config: PointConfig, rect: BoxWindow, h: float,
                   chunk: int = 1000) -> np.ndarray:
    """Black mask of the confetti raster: each cell center takes the color
    of the earliest disk covering it. Raises if a cell stays uncovered."""
    nx = int(round((rect.hi[0] - rect.lo[0]) / h))
    ny = int(round((rect.hi[1] - rect.lo[1]) / h))
    cx, cy = np.meshgrid(rect.lo[0] + (np.arange(nx) + 0.5) * h,
                         rect.lo[1] + (np.arange(ny) + 0.5) * h, indexing="ij")
    cells = np.column_stack([cx.ravel(), cy.ravel()])
    order = np.argsort(config.marks["birth_time"], kind="stable")
    pts = np.asarray(config.points)[order]
    r2 = config.marks["radius"][order] ** 2
    black = config.marks["color"][order] == 0
    out = np.empty(len(cells), dtype=bool)
    for lo in range(0, len(cells), chunk):
        c = cells[lo:lo + chunk]
        covered = ((c[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2) <= r2
        if not covered.any(axis=1).all():
            raise RuntimeError("reference repaint left a cell uncovered")
        out[lo:lo + chunk] = black[covered.argmax(axis=1)]
    return out.reshape(nx, ny)
