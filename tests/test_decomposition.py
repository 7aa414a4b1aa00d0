"""Recursive decomposition: partition, balance, marks, and ancestors."""

import itertools
import random

import pytest

from planar_oracle.decomposition import _split_piece, build_decomposition

from conftest import leaves


def root_path(tree, node):
    """Node ids from ``node`` up to and including the root."""
    while node is not None:
        yield node
        node = tree.pieces[node].parent


@pytest.fixture(scope="module")
def tree8(grid8):
    return build_decomposition(grid8, leaf_size=8, r_base=4)


@pytest.fixture(scope="module")
def tree_tri(tri200):
    return build_decomposition(tri200, leaf_size=16, r_base=4)


@pytest.fixture(scope="module")
def tree_multi(multi):
    return build_decomposition(multi, leaf_size=4, r_base=4)


def test_root_covers_everything(grid8, tree8):
    root = tree8.pieces[0]
    assert root.vertices == tuple(range(grid8.n))
    assert root.arcs == tuple(range(grid8.m))
    assert root.boundary == ()


def test_children_partition_arcs(tree8):
    for p in tree8.pieces:
        if p.is_leaf:
            continue
        a, b = (tree8.pieces[c] for c in p.children)
        assert set(a.arcs) | set(b.arcs) == set(p.arcs)
        assert not set(a.arcs) & set(b.arcs)


def test_children_cover_vertices(tree8):
    for p in tree8.pieces:
        if p.is_leaf:
            continue
        a, b = (tree8.pieces[c] for c in p.children)
        assert set(a.vertices) | set(b.vertices) == set(p.vertices)


def test_boundary_definition(grid8, tree8):
    # v is boundary of P iff it touches arcs both inside and outside P
    incident = [set() for _ in range(grid8.n)]
    for a in range(grid8.m):
        incident[grid8.tails[a]].add(a)
        incident[grid8.heads[a]].add(a)
    for p in tree8.pieces:
        inside = set(p.arcs)
        expect = {
            v
            for v in p.vertices
            if incident[v] & inside and incident[v] - inside
        }
        assert set(p.boundary) == expect


def test_split_makes_progress(tree8, tree_tri):
    for tree in (tree8, tree_tri):
        for p in tree.pieces:
            if p.is_leaf:
                continue
            for c in p.children:
                assert len(tree.pieces[c].vertices) < len(p.vertices)


def test_leaf_sizes(tree8, tree_tri):
    for tree, cap in ((tree8, 8), (tree_tri, 16)):
        for leaf in leaves(tree):
            assert len(tree.pieces[leaf].vertices) <= cap


def test_balance_contract(grid8, tree8, tri200, tree_tri, multi, tree_multi):
    for g, tree in ((grid8, tree8), (tri200, tree_tri), (multi, tree_multi)):
        packed = 0
        for p in tree.pieces:
            if p.is_leaf:
                continue
            # the split the tree made, recomputed: same sides, and its separator
            separator, sides = _split_piece(g, p.vertices, p.arcs)
            assert [(tree.pieces[c].vertices, tree.pieces[c].arcs) for c in p.children] == sides
            # packed components (no separator) keep the contract too
            packed += not separator
            sizes = [len(verts) for verts, _ in sides]
            assert 3 * max(sizes) <= 2 * len(p.vertices) + 3 * len(separator), p.id
        if g is multi:
            assert packed, "no split of the disconnected graph packed components"


def test_marks_are_antichains(tree8):
    for r in tree8.r_sequence:
        marks = tree8.r_division(r)
        for a in marks:
            for b in marks:
                if a != b:
                    assert not tree8.is_ancestor(a, b)


def test_one_mark_per_root_path(tree8):
    for r in tree8.r_sequence:
        marks = set(tree8.r_division(r))
        for leaf in leaves(tree8):
            hits = [node for node in root_path(tree8, leaf) if node in marks]
            assert len(hits) == 1


def test_r_division_alias(tree8):
    r = tree8.r_sequence[0]
    with pytest.raises(ValueError):
        tree8.r_division(r + 1)


def test_leaf_of(grid8, tree8):
    for v in range(grid8.n):
        leaf = tree8.leaf_of[v]
        piece = tree8.pieces[leaf]
        assert piece.is_leaf
        assert piece.contains(v)
        # ties break to the smallest piece id
        others = [
            p.id for p in tree8.pieces if p.is_leaf and p.contains(v)
        ]
        assert leaf == min(others)


def test_is_ancestor_matches_root_path(tree8):
    rng = random.Random(0)
    ids = [p.id for p in tree8.pieces]
    for _ in range(300):
        a, b = rng.choice(ids), rng.choice(ids)
        assert tree8.is_ancestor(a, b) == (a in set(root_path(tree8, b)))


def _random_antichain(rng, tree, top):
    """Nodes strictly under ``top``, none an ancestor of another: each node
    met is dropped with its subtree, taken, or split into its children."""
    out = []
    stack = list(tree.pieces[top].children)
    while stack:
        node = stack.pop()
        roll = rng.random()
        if roll < 0.2:
            continue
        if roll < 0.55 or tree.pieces[node].is_leaf:
            out.append(node)
        else:
            stack.extend(tree.pieces[node].children)
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("name", ["tree8", "tree_tri"])
def test_cover_tiles_top(name, request):
    tree = request.getfixturevalue(name)
    rng = random.Random(f"cover-{name}")
    internal = [p.id for p in tree.pieces if not p.is_leaf]
    checked = 0
    for _ in range(400):
        top = rng.choice(internal)
        starts = _random_antichain(rng, tree, top)
        if not starts:
            continue
        sibs = tree.cover(starts, top=top)
        if top == 0:
            assert tree.cover(starts) == sibs
        paths = set()
        for s in starts:
            paths.update(itertools.takewhile(lambda n: n != top, root_path(tree, s)))
        # each sibling of a path node off every path once, strictly under top
        assert len(set(sibs)) == len(sibs)
        pieces = tree.pieces
        assert set(sibs) == {
            c for n in paths for c in pieces[pieces[n].parent].children if c not in paths
        }
        assert all(s != top and tree.is_ancestor(top, s) for s in sibs)
        # the starts and the siblings off their paths tile top's arcs once
        arcs = sorted(a for t in starts + sibs for a in tree.pieces[t].arcs)
        assert arcs == list(tree.pieces[top].arcs), (top, starts)
        checked += 1
    assert checked >= 300


def test_degenerate_graphs(single, disconnected, path12):
    t1 = build_decomposition(single, leaf_size=3)
    assert t1.pieces[0].is_leaf
    t2 = build_decomposition(disconnected, leaf_size=3)
    assert set(t2.pieces[0].vertices) == set(range(disconnected.n))
    t3 = build_decomposition(path12, leaf_size=4)
    for leaf in leaves(t3):
        assert len(t3.pieces[leaf].vertices) <= 4


def test_construction_validation(grid4):
    with pytest.raises(ValueError):
        build_decomposition(grid4, leaf_size=2)
    with pytest.raises(ValueError):
        build_decomposition(grid4, leaf_size=8, r_base=1)
