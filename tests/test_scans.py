"""Property tests of the 1D run scans against the loop oracles in `scan_oracles`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locscape import (BoundaryCondition, GridSpec, Landscape, PotentialField, assemble_line,
                      local_maxima_1d, valley_partition, zero_components)
from locscape.potential import runs_of_zeros
from locscape.regions import SubregionPartition

import scan_oracles
from run_oracles import run_decomposition

# few distinct integer values, so equal-value plateaus are common
_LEVELS = st.integers(0, 4).map(float)


def _landscape(w):
    """A 1D landscape with the given node values on an operator of matching size."""
    n = len(w)
    op = assemble_line(np.full(n - 1, 1.0 / (n - 1)), np.zeros(n - 1), 0.0,
                       BoundaryCondition.neumann())
    return Landscape(np.asarray(w), op)


def _binary_field(cells):
    return PotentialField(GridSpec(1, len(cells), 2), np.asarray(cells, float), 0)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LEVELS, min_size=2, max_size=60))
def test_valley_labels_match_loop_scan(w):
    labels = valley_partition(_landscape(w)).labels
    assert np.array_equal(labels, scan_oracles.valley_labels_1d(w))
    # every node carries one label; labels start at 0 and rise by 0 or 1
    assert labels.shape == (len(w),)
    assert labels[0] == 0
    assert set(np.diff(labels)) <= {0, 1}


@settings(max_examples=300, deadline=None)
@given(st.lists(_LEVELS, min_size=0, max_size=60))
def test_local_maxima_match_loop_scan(w):
    assert local_maxima_1d(np.asarray(w)) == scan_oracles.local_maxima_1d(w)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=60))
def test_run_decomposition_round_trips(cells):
    runs = run_decomposition(_binary_field(cells))
    values, lengths = zip(*runs)
    assert np.array_equal(np.repeat(values, lengths), cells)
    assert all(a != b for a, b in zip(values, values[1:]))
    assert sum(lengths) == len(cells)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=60))
def test_zero_components_are_the_zero_runs(cells):
    starts, lengths = runs_of_zeros(np.asarray(cells))
    regions = zero_components(_binary_field(cells)).regions
    assert [r.bbox for r in regions] == [((s, s + n - 1),) for s, n in zip(starts, lengths)]
    assert [r.touches for r in regions] == [(s == 0, s + n == len(cells))
                                            for s, n in zip(starts, lengths)]


@st.composite
def _label_arrays(draw):
    """Labels 0..k-1 (each present, not necessarily connected) and -1, in 1D or 2D."""
    shape = draw(st.lists(st.integers(1, 12), min_size=1, max_size=2))
    raw = np.array(draw(st.lists(st.integers(-1, 6), min_size=int(np.prod(shape)),
                                 max_size=int(np.prod(shape))))).reshape(shape)
    return np.where(raw < 0, -1, np.searchsorted(np.unique(raw[raw >= 0]), raw))


@settings(max_examples=300, deadline=None)
@given(_label_arrays())
def test_region_sweep_matches_mask_builder(labels):
    part = SubregionPartition(labels, 0.25)
    assert part.regions == scan_oracles.regions_by_masks(labels, 0.25)
    assert part.n_regions == len(part.regions)
    assert part.regions is part.regions     # built once, on first read


@settings(max_examples=300, deadline=None)
@given(_label_arrays())
def test_region_boxes_match_find_objects(labels):
    # the reprs agree only if the types do: numpy 2 prints a numpy integer as np.int64(...)
    part = SubregionPartition(labels, 0.25)
    assert repr(part.regions) == repr(scan_oracles.regions_by_find_objects(labels, 0.25))


@pytest.mark.parametrize("shape", [(1,), (7,), (1, 1), (3, 5)])
def test_unlabelled_partition_has_no_regions(shape):
    labels = np.full(shape, -1)
    part = SubregionPartition(labels, 0.25)
    assert part.regions == scan_oracles.regions_by_find_objects(labels, 0.25) == ()
