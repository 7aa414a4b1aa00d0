"""Embedded graph construction, validation, and the text format."""

import pytest
from hypothesis import given, settings, strategies as st

from planar_oracle.graph import (
    EmbeddedPlanarGraph,
    EmbeddingError,
    GraphFormatError,
    dumps_graph,
    loads_graph,
    trace_faces,
)
from planar_oracle.generate import generate_grid, generate_random_triangulation

from conftest import component_count, make_disconnected, make_path12


def test_grid_counts(grid8):
    assert grid8.n == 64
    # interior bidirectional grid: 2 * (2 * 8 * 7) arcs
    assert grid8.m == 224
    assert component_count(grid8) == 1
    # V - E + F = 2 with E counted as undirected embedding edges = arcs here
    assert grid8.n - grid8.m + grid8.face_count == 2


def test_face_trace_on_square():
    # one directed 4-cycle: inner face + outer face
    arcs = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
    g = EmbeddedPlanarGraph(4, arcs, [[3, 0], [0, 1], [1, 2], [2, 3]])
    faces = trace_faces(range(4), g.tails, g.heads, {v: list(r) for v, r in enumerate(g.rotation)})
    assert len(faces) == 2
    assert sorted(len(f) for f in faces) == [4, 4]


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        EmbeddedPlanarGraph(2, [(0, 0, 1), (0, 1, 1)], [[0, 0, 1], [1]])


def test_rejects_parallel_arcs():
    with pytest.raises(ValueError, match="duplicates ordered pair"):
        EmbeddedPlanarGraph(2, [(0, 1, 1), (0, 1, 2)], [[0, 1], [0, 1]])


def test_rejects_negative_weight():
    with pytest.raises(ValueError, match="negative"):
        EmbeddedPlanarGraph(2, [(0, 1, -3)], [[0], [0]])


@pytest.mark.parametrize("w", [2.7, 2.0, True, "3", None])
def test_rejects_non_integer_weight(w):
    # int() would truncate a float weight and give silently wrong distances
    with pytest.raises(ValueError, match="not an integer"):
        EmbeddedPlanarGraph(2, [(0, 1, 1), (1, 0, w)], [[0, 1], [0, 1]])


def test_rejects_bad_rotation_multiplicity():
    # arc 0 must appear exactly once at each endpoint
    with pytest.raises(ValueError):
        EmbeddedPlanarGraph(2, [(0, 1, 1)], [[0], []])


def test_rejects_nonplanar_rotation():
    # K4 with one crossing pair of rotations cannot close its face orbits
    # into V - E + F = 2; build a 4-cycle with a chord listed out of order.
    arcs = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 1), (1, 3, 1)]
    rotation = [[3, 0, 4], [0, 1, 5], [1, 2, 4], [2, 3, 5]]
    with pytest.raises(EmbeddingError):
        EmbeddedPlanarGraph(4, arcs, rotation)


def test_euler_check_is_per_component():
    # the toroidal K4 above beside a separate directed triangle: summed
    # over the graph V - E + F = 7 - 9 + 4 = 2, so only a count per
    # component rejects it
    arcs = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 1), (1, 3, 1)]
    arcs += [(4, 5, 1), (5, 6, 1), (6, 4, 1)]
    rotation = [[3, 0, 4], [0, 1, 5], [1, 2, 4], [2, 3, 5], [8, 6], [6, 7], [7, 8]]
    with pytest.raises(EmbeddingError, match="V=4 E=6 F=2"):
        EmbeddedPlanarGraph(7, arcs, rotation)


def test_disconnected_accepted():
    g = make_disconnected()
    assert component_count(g) == 3
    assert g.rotation[7] == ()


def test_check_vertex_rejects_bool(grid4):
    with pytest.raises((TypeError, ValueError)):
        grid4.check_vertex(True)
    with pytest.raises(ValueError):
        grid4.check_vertex(99)


def test_text_round_trip(grid8):
    text = dumps_graph(grid8)
    again = loads_graph(text)
    assert again == grid8
    assert dumps_graph(again) == text


def test_text_round_trip_empty_rotation():
    g = make_disconnected()
    text = dumps_graph(g)
    assert "\n-\n" in text  # isolated vertex writes the placeholder
    assert loads_graph(text) == g


def test_loads_reports_line_numbers():
    with pytest.raises(GraphFormatError) as err:
        loads_graph("2 1\n0 1 oops\n0\n0\n")
    assert err.value.line_no == 2


def test_loads_rejects_wrong_counts():
    with pytest.raises(GraphFormatError, match="arc lines"):
        loads_graph("2 2\n0 1 1\n0\n0\n")


def test_loads_rejects_negative_weight():
    with pytest.raises(GraphFormatError, match="nonnegative"):
        loads_graph("2 1\n0 1 -1\n0\n0\n")


def test_out_in_arcs(path12):
    assert path12.out_arcs(0) == ((1, 1),)
    assert path12.in_arcs(0) == ()
    assert path12.out_arcs(11) == ()


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_generated_graphs_round_trip(seed, tri):
    g = (
        generate_random_triangulation(24, seed=seed)
        if tri
        else generate_grid(5, 4, seed=seed)
    )
    assert loads_graph(dumps_graph(g)) == g
