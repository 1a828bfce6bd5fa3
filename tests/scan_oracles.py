"""Plateau-by-plateau loop scans of a 1D landscape: the reference for the vectorized
scans in `locscape.landscape`."""

import numpy as np


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
