"""Instance generators: shape, determinism, weight ranges."""

import pytest

from planar_oracle.generate import generate_grid, generate_random_triangulation

from conftest import component_count


def test_grid_shape():
    g = generate_grid(3, 5, seed=0)
    assert g.n == 15
    assert g.m == 2 * (3 * 4 + 2 * 5)  # bidirectional horizontal + vertical
    assert component_count(g) == 1


def test_grid_default_weights_are_unit():
    # without max_weight every arc costs 1 and the seed is irrelevant
    a = generate_grid(6, 6, seed=42)
    b = generate_grid(6, 6, seed=43)
    assert a == b
    assert set(a.weights) == {1}


def test_grid_seed_determinism_weighted():
    a = generate_grid(6, 6, max_weight=9, seed=42)
    b = generate_grid(6, 6, max_weight=9, seed=42)
    c = generate_grid(6, 6, max_weight=9, seed=43)
    assert a == b
    assert a != c


def test_grid_weight_range():
    g = generate_grid(5, 5, max_weight=4, seed=7)
    assert min(g.weights) >= 1
    assert max(g.weights) <= 4
    assert len(set(g.weights)) > 1


def test_triangulation_shape():
    g = generate_random_triangulation(40, seed=3)
    assert g.n == 40
    assert component_count(g) == 1
    # triangulations are dense: every undirected edge is an arc pair
    assert g.m % 2 == 0
    assert g.m >= 2 * (2 * g.n - 4)


def test_triangulation_seed_determinism():
    a = generate_random_triangulation(30, seed=9)
    b = generate_random_triangulation(30, seed=9)
    c = generate_random_triangulation(30, seed=10)
    assert a == b
    assert a != c  # topology itself is seeded


def test_weights_nonnegative(grid8, tri60):
    assert min(grid8.weights) >= 0
    assert min(tri60.weights) >= 0


def test_tiny_sizes_rejected():
    with pytest.raises(ValueError):
        generate_grid(0, 3, seed=0)
    with pytest.raises(ValueError):
        generate_grid(3, 0, seed=0)
    with pytest.raises(ValueError):
        generate_random_triangulation(2, seed=0)
    # the degenerate but legal corner: one vertex, no arcs
    g = generate_grid(1, 1)
    assert g.n == 1 and g.m == 0


def test_bad_max_weight_rejected():
    with pytest.raises(ValueError):
        generate_grid(3, 3, max_weight=0, seed=0)
