"""Loop and mask references for the vectorized scans: plateau-by-plateau scans of a
1D landscape (for `locscape.landscape`), and one mask per region or scipy's
`find_objects` boxes (for `locscape.regions`)."""

import numpy as np
from scipy import ndimage

from locscape import Region


def local_maxima_1d(w) -> list[int]:
    """Indices of local maxima (one representative per plateau, its midpoint)."""
    n = len(w)
    out = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and w[j + 1] == w[i]:
            j += 1
        left_lower = i == 0 or w[i - 1] < w[i]
        right_lower = j == n - 1 or w[j + 1] < w[j]
        if left_lower and right_lower:
            out.append((i + j) // 2)
        i = j + 1
    return out


def _splits_1d(w):
    """Interior minima as (ridge node, join-left flag); plateaus split at their midpoint."""
    n = len(w)
    splits = []
    i = 1
    while i < n - 1:
        j = i
        while j + 1 < n and w[j + 1] == w[i]:
            j += 1
        if w[i - 1] > w[i] and j + 1 < n and w[j + 1] > w[j]:
            mid = (i + j) // 2
            splits.append((mid, w[i - 1] >= w[j + 1]))  # tie joins the lower-index side
        i = j + 1
    return splits


def valley_labels_1d(w) -> np.ndarray:
    """Region id per node: the intervals between the splits of `_splits_1d`."""
    labels = np.empty(len(w), dtype=int)
    prev = 0
    rid = 0
    for mid, join_left in _splits_1d(w):
        end = mid + 1 if join_left else mid
        labels[prev:end] = rid
        rid += 1
        prev = end
    labels[prev:] = rid
    return labels


def region_from_mask(rid, mask, cell_measure):
    """One `Region` read from a full-size boolean mask of its cells."""
    idx = np.nonzero(mask)
    bbox = tuple((int(ax.min()), int(ax.max())) for ax in idx)
    touches = []
    for axis, (lo, hi) in enumerate(bbox):
        touches.append(lo == 0)
        touches.append(hi == mask.shape[axis] - 1)
    corner = mask.ndim == 2 and any(mask[ci, cj] for ci in (0, -1) for cj in (0, -1))
    size = int(mask.sum())
    return Region(rid, size, bbox, tuple(touches), corner, size * cell_measure)


def regions_by_masks(labels, cell_measure):
    """The regions of labels 0, 1, ..., one mask per region: the reference for
    `SubregionPartition.regions`."""
    return tuple(region_from_mask(rid, labels == rid, cell_measure)
                 for rid in range(labels.max() + 1))


def regions_by_find_objects(labels, cell_measure):
    """The regions of labels 0, 1, ..., boxes from ``ndimage.find_objects``: the
    builder `SubregionPartition.regions` used before it computed its boxes with numpy."""
    boxes = ndimage.find_objects(labels + 1)
    sizes = np.bincount(labels.ravel() + 1, minlength=len(boxes) + 1)[1:]
    corners = ({int(labels[i, j]) for i in (0, -1) for j in (0, -1)}
               if labels.ndim == 2 else set())
    regions = []
    for rid, (box, size) in enumerate(zip(boxes, sizes.tolist())):
        bbox = tuple((sl.start, sl.stop - 1) for sl in box)
        touches = tuple(t for (lo, hi), n in zip(bbox, labels.shape)
                        for t in (lo == 0, hi == n - 1))
        regions.append(Region(rid, size, bbox, touches, rid in corners, size * cell_measure))
    return tuple(regions)
