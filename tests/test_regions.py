import numpy as np
import pytest

from locscape import (DistributionSpec, GridSpec, ParameterError, PotentialField, grid_2d,
                      sample_potential, zero_components)


def _field_1d(cells):
    cells = np.asarray(cells, dtype=float)
    return PotentialField(GridSpec(1, len(cells), 2), cells, 0)


def test_all_ones_gives_empty_partition():
    part = zero_components(_field_1d([1, 1, 1, 1]))
    assert part.n_regions == 0
    assert np.all(part.labels == -1)


def test_1d_components_sizes():
    part = zero_components(_field_1d([0, 1, 0, 0]))
    assert part.n_regions == 2
    assert sorted(r.size for r in part.regions) == [1, 2]
    assert part.regions[0].touches == (True, False)
    assert part.regions[1].touches == (False, True)


def test_2d_checkerboard_uses_4_connectivity():
    cells = np.array([[0.0, 1.0], [1.0, 0.0]])
    part = zero_components(PotentialField(GridSpec(2, 2, 2), cells, 0))
    assert part.n_regions == 2


def test_components_cover_exactly_the_zero_set():
    fieldv = sample_potential(grid_2d(15), DistributionSpec.bernoulli(0.6), 5)
    part = zero_components(fieldv)
    assert np.array_equal(part.labels >= 0, fieldv.cell_values == 0)
    sizes = sum(r.size for r in part.regions)
    assert sizes == int((fieldv.cell_values == 0).sum())
    for rid, region in enumerate(part.regions):
        assert region.id == rid
        assert (part.labels == rid).sum() == region.size


def test_non_binary_field_rejected():
    fieldv = sample_potential(grid_2d(5), DistributionSpec.uniform(0.0, 1.0), 1)
    with pytest.raises(ParameterError, match=r"defined for \{0,1\}-valued fields"):
        zero_components(fieldv)

