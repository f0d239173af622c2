import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpspec import chebyshev_gauss_lobatto, custom, equidistant


def test_equidistant_simple():
    assert equidistant(0, 1, 2).nodes.tolist() == [0.0, 0.5, 1.0]
    assert equidistant(-1, 1, 1).nodes.tolist() == [-1.0, 1.0]
    assert equidistant(0, 12, 12).nodes.tolist() == list(range(13))


def test_cgl_small():
    assert chebyshev_gauss_lobatto(-1, 1, 2).nodes.tolist() == [-1.0, 0.0, 1.0]
    g = chebyshev_gauss_lobatto(-1, 1, 4)
    s = np.sqrt(2.0) / 2.0
    np.testing.assert_allclose(g.nodes, [-1.0, -s, 0.0, s, 1.0], atol=1e-15)
    assert chebyshev_gauss_lobatto(0, 2, 2).nodes.tolist() == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("ctor", [equidistant, chebyshev_gauss_lobatto])
def test_invalid_args(ctor):
    with pytest.raises(ValueError):
        ctor(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        ctor(2.0, 1.0, 4)
    with pytest.raises(ValueError):
        ctor(0.0, 1.0, 0)


@pytest.mark.parametrize("ctor", [equidistant, chebyshev_gauss_lobatto])
def test_endpoints_exact(ctor):
    g = ctor(0.1, 0.7, 17)
    assert g.nodes[0] == 0.1
    assert g.nodes[-1] == 0.7


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-50, 50),
    span=st.floats(1e-3, 100),
    N=st.integers(1, 40),
    family=st.sampled_from(["equidistant", "cgl"]),
)
def test_symmetry_and_ordering(a, span, N, family):
    b = a + span
    g = equidistant(a, b, N) if family == "equidistant" else chebyshev_gauss_lobatto(a, b, N)
    assert g.N == N
    assert np.all(np.diff(g.nodes) > 0)
    scale = max(abs(a), abs(b), 1.0)
    np.testing.assert_allclose(g.nodes + g.nodes[::-1], a + b, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("N", [4, 5, 9, 16, 33])
def test_cgl_clusters_toward_ends(N):
    g = chebyshev_gauss_lobatto(-1, 1, N)
    mid = int(np.ceil(N / 2))
    assert g.nodes[1] - g.nodes[0] < g.nodes[mid] - g.nodes[mid - 1]


def test_custom_grid_validation():
    g = custom(0, 1, [0.0, 0.25, 0.9])
    assert g.nodes.tolist() == [0.0, 0.25, 0.9]
    with pytest.raises(ValueError):
        custom(0, 1, [0.0, 0.5, 0.5])
    with pytest.raises(ValueError):
        custom(0, 1, [0.5, 0.25, 0.9])
    with pytest.raises(ValueError):
        custom(0, 1, [-0.5, 0.25, 0.9])
    with pytest.raises(ValueError):
        custom(0, 1, [0.5])


def test_nodes_are_read_only():
    g = equidistant(0, 1, 4)
    with pytest.raises(ValueError):
        g.nodes[0] = 3.0
