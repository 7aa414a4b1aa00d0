"""Embedded graph construction, validation, and the text format."""

import pytest
from hypothesis import given, settings, strategies as st

from planar_oracle.decomposition import build_decomposition
from planar_oracle.graph import (
    EmbeddedPlanarGraph,
    EmbeddingError,
    GraphFormatError,
    arc_ends,
    components,
    dumps_graph,
    loads_graph,
    trace_faces,
)
from planar_oracle.generate import generate_grid, generate_random_triangulation

from conftest import (
    component_count,
    make_disconnected,
    make_path12,
    piece_rotation,
    reference_components,
    reference_trace_faces,
)


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


def _seeded_trees(tri200, tri300, multi):
    """(graph, tree) pairs whose pieces the kernel checks sweep."""
    for seed in range(3):
        g = generate_grid(10 + seed, 12, max_weight=9, seed=seed)
        yield g, build_decomposition(g, leaf_size=8)
    yield tri200, build_decomposition(tri200, leaf_size=16)
    yield tri300, build_decomposition(tri300, leaf_size=8)
    yield multi, build_decomposition(multi, leaf_size=4)


def test_kernels_match_references_on_every_piece(tri200, tri300, multi):
    # the same faces in the same order, each from the same dart, and the
    # same components in the same order
    pieces = 0
    for g, tree in _seeded_trees(tri200, tri300, multi):
        for p in tree.pieces:
            rot = piece_rotation(g, p)
            faces = trace_faces(p.arcs, g.tails, g.heads, rot)
            assert faces == reference_trace_faces(p.arcs, g.tails, g.heads, rot), p.id
            want = reference_components(p.vertices, p.arcs, g.tails, g.heads)
            assert components(p.vertices, p.arcs, g.tails, g.heads) == want, p.id
            pieces += 1
    assert pieces > 500


def test_kernels_match_references_on_whole_graphs(zoo, tri300, multi):
    for name, g in {**zoo, "tri300": tri300, "multi": multi}.items():
        arcs = range(g.m)
        rot = {v: g.rotation[v] for v in range(g.n)}
        faces = trace_faces(arcs, g.tails, g.heads, rot)
        assert faces == reference_trace_faces(arcs, g.tails, g.heads, rot), name
        # as check_planar asks (arc ends only), and over every vertex
        for verts in (sorted(arc_ends(arcs, g.tails, g.heads)), range(g.n)):
            want = reference_components(verts, arcs, g.tails, g.heads)
            assert components(verts, arcs, g.tails, g.heads) == want, name


def test_face_walk_rejects_broken_rotations():
    arcs = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
    tails, heads = [t for t, _, _ in arcs], [h for _, h, _ in arcs]
    # arc 1 missing from its head's rotation
    with pytest.raises(EmbeddingError, match="7 arc ends for 4 traced arcs"):
        trace_faces(range(4), tails, heads, {0: [3, 0], 1: [0, 1], 2: [2], 3: [2, 3]})
    # ... and arc 0 listed twice at its head to make up the count: dart 2
    # enters no vertex, so the orbit of dart 0 runs into it and cannot close
    with pytest.raises(EmbeddingError, match="broken face walk"):
        trace_faces(range(4), tails, heads, {0: [3, 0], 1: [0, 0, 1], 2: [2], 3: [2, 3]})
    # a rotation entry beyond the traced arcs
    with pytest.raises(EmbeddingError, match="outside the traced arcs"):
        trace_faces(range(3), tails, heads, {0: [3, 0], 1: [0, 1], 2: [1, 2], 3: [2, 3]})


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


@pytest.mark.parametrize(
    "text, line",
    [
        ("0_2 1\n0 1 5\n0\n0\n", 1),
        ("2 +1\n0 1 5\n0\n0\n", 1),
        ("2 1\n0 1 0_5\n0\n0\n", 2),
        ("2 1\n0 1 \u0665\n0\n0\n", 2),
        ("2 1\n-0 1 5\n0\n0\n", 2),
        ("2 1\n0 1 5\n0_0\n0\n", 3),
        ("2 1\n0 1 5\n0\n\u0660\n", 4),
    ],
    ids=["header_underscore", "header_plus", "weight_underscore", "weight_arabic_indic",
         "negative_id", "rotation_underscore", "rotation_arabic_indic"],
)
def test_loads_takes_ascii_decimal_digits_only(text, line):
    # int() reads each of these tokens as a number; the format does not
    with pytest.raises(GraphFormatError) as err:
        loads_graph(text)
    assert err.value.line_no == line
    assert loads_graph("2 1\n0 1 5\n0\n0\n").arcs == ((0, 1, 5),)


def test_out_arcs(path12):
    assert path12.out_arcs(0) == ((1, 1),)
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
