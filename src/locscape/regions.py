"""Labeled domain partitions: label arrays whose `Region` records are built when first read."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .potential import PotentialField


@dataclass(frozen=True)
class Region:
    id: int
    size: int                 # labelled cells or nodes
    bbox: tuple               # inclusive index ranges per axis
    touches: tuple            # per side flags: 1D (lo, hi); 2D (x_lo, x_hi, y_lo, y_hi)
    touches_corner: bool
    measure: float            # physical length (1D) or area (2D)


@dataclass(frozen=True)
class SubregionPartition:
    """Partition of the lattice (cells) or of the node grid into connected regions.

    ``labels`` maps each cell/node to a region id 0, 1, ..., or -1 where unassigned
    (e.g. nonzero cells in a zero-component partition); ``cell_measure`` is the
    length (1D) or area (2D) of one labelled cell or node.
    """

    labels: np.ndarray
    cell_measure: float

    def __post_init__(self):
        lab = np.asarray(self.labels)
        lab.flags.writeable = False
        object.__setattr__(self, "labels", lab)

    @property
    def n_regions(self) -> int:
        return int(self.labels.max(initial=-1)) + 1

    @cached_property
    def regions(self) -> tuple:
        """One `Region` per label, from one pass over the labelled entries: sizes from
        ``np.bincount``, bounding boxes from ``np.minimum.at``/``np.maximum.at`` over their
        coordinates, wall contact from the boxes, corner contact from the four corners."""
        labels = self.labels
        flat = labels.ravel()
        at = np.flatnonzero(flat >= 0)
        ids = flat[at]
        n_regions = self.n_regions
        sizes = np.bincount(ids, minlength=n_regions)
        first = np.full((labels.ndim, n_regions), flat.size)   # per axis and region: lowest index
        last = np.full((labels.ndim, n_regions), -1)           # and highest
        for axis, coord in enumerate(np.unravel_index(at, labels.shape)):
            np.minimum.at(first[axis], ids, coord)
            np.maximum.at(last[axis], ids, coord)
        corners = ({int(labels[i, j]) for i in (0, -1) for j in (0, -1)}
                   if labels.ndim == 2 else set())
        regions = []
        for rid, (size, lows, highs) in enumerate(zip(sizes.tolist(), first.T.tolist(),
                                                      last.T.tolist())):
            bbox = tuple(zip(lows, highs))
            touches = tuple(t for (lo, hi), n in zip(bbox, labels.shape)
                            for t in (lo == 0, hi == n - 1))
            regions.append(Region(rid, size, bbox, touches, rid in corners,
                                  size * self.cell_measure))
        return tuple(regions)


def zero_components(fieldv: PotentialField) -> SubregionPartition:
    """Connected components of {V = 0} at cell granularity.

    1D components are maximal zero runs; 2D uses 4-connectivity (cells sharing
    only a corner are separate, matching the large-disorder valley geometry).
    """
    if not fieldv.is_binary:
        raise ParameterError("zero components are defined for {0,1}-valued fields")
    from scipy import ndimage   # here, not at module level: only the valleys command needs it
    cell_measure = (1.0 / fieldv.grid.cells_per_side) ** fieldv.grid.dim
    labels, _ = ndimage.label(fieldv.cell_values == 0)   # default structure = 4-connectivity
    return SubregionPartition(labels.astype(int) - 1, cell_measure)   # background -> -1
