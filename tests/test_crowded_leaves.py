"""Both failure oracles on queries crowded into one leaf.

Anchor leaves join the union as their own arcs, so these cases check the
leaf member where it matters most: endpoints and failures in the same leaf,
failures on a leaf's boundary, a leaf failed down to one vertex, and paths
that must leave their leaf and come back.
"""

import random

import pytest

from planar_oracle.baseline import distance_avoiding
from planar_oracle.decomposition import build_decomposition
from planar_oracle.failure_oracle import FailureOracle
from planar_oracle.generate import generate_grid, generate_random_triangulation
from planar_oracle.oraclefile import load_oracle, save_oracle
from planar_oracle.tradeoff_oracle import TradeoffOracle

from conftest import in_piece_distance, leaves

SEEDS = (1, 2, 3)


def _graphs():
    for seed in SEEDS:
        yield f"grid6-s{seed}", generate_grid(6, 6, max_weight=9, seed=seed)
        yield f"grid7-s{seed}", generate_grid(7, 7, max_weight=9, seed=seed)
        yield f"tri40-s{seed}", generate_random_triangulation(40, max_weight=9, seed=seed)


GRAPHS = dict(_graphs())


class Oracles:
    """A failure oracle and trade-off oracles of several budgets on one tree."""

    def __init__(self, g):
        self.g = g
        self.tree = build_decomposition(g, leaf_size=8, r_base=2)
        self.fo = FailureOracle(g, tree=self.tree)
        r = self.tree.r_sequence[0]
        self.tos = [TradeoffOracle(g, r=r, k=k, tree=self.tree) for k in (1, 2, 7)]
        self.checked = 0

    def check(self, u, v, x):
        x = frozenset(x)
        want = distance_avoiding(self.g, u, v, x)
        assert self.fo.distance(u, v, x) == want, (u, v, sorted(x))
        for to in self.tos:
            if len(x) <= to.k:
                assert to.distance(u, v, x) == want, (to.k, u, v, sorted(x))
        self.checked += 1


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def oracles(request):
    return Oracles(GRAPHS[request.param])


def _leaves(tree):
    return [tree.pieces[leaf] for leaf in leaves(tree)]


def test_endpoints_and_failure_share_a_leaf(oracles):
    rng = random.Random("share")
    for piece in _leaves(oracles.tree):
        for _ in range(6):
            u, v, f = rng.sample(piece.vertices, 3)
            oracles.check(u, v, {f})
            oracles.check(v, u, {f})
    assert oracles.checked > 0


def test_failure_on_its_leaf_boundary(oracles):
    tree, g = oracles.tree, oracles.g
    rng = random.Random("boundary")
    seen = 0
    for piece in _leaves(tree):
        for f in piece.boundary:
            if tree.leaf_of[f] != piece.id:
                continue
            seen += 1
            inside = [w for w in piece.vertices if w != f]
            outside = [w for w in range(g.n) if w != f]
            for _ in range(3):
                u = rng.choice(inside)
                v = rng.choice(outside)
                if u != v:
                    oracles.check(u, v, {f})
                    oracles.check(v, u, {f})
    assert seen > 0


def test_leaf_failed_down_to_one_vertex(oracles):
    tree, g = oracles.tree, oracles.g
    rng = random.Random("alone")
    for piece in _leaves(tree):
        for u in rng.sample(piece.vertices, min(2, len(piece.vertices))):
            x = set(piece.vertices) - {u}
            rest = [w for w in range(g.n) if w not in x and w != u]
            for v in rng.sample(rest, min(3, len(rest))):
                oracles.check(u, v, x)
                oracles.check(v, u, x)


def test_path_leaves_the_leaf_and_returns(oracles):
    tree, g = oracles.tree, oracles.g
    rng = random.Random("detour")
    detours = 0
    for piece in _leaves(tree):
        for _ in range(8):
            u, v, f = rng.sample(piece.vertices, 3)
            for x in (frozenset(), frozenset({f})):
                want = distance_avoiding(g, u, v, x)
                if want < in_piece_distance(g, piece, u, v, x):
                    detours += 1
                    oracles.check(u, v, x)
    # the shortcut through the rest of the graph must actually occur
    assert detours > 0


def _snapshot(oracle):
    """What a query could change: the oracle's and its store's attribute
    names, the strict matrices, the leaf members, each with its nodes and
    rows, and the oracle's union: its slots and every vertex's rows, which
    hold the leaves' out-lists."""
    union = oracle._union
    return (
        sorted(vars(oracle)),
        sorted(vars(oracle.store)),
        dict(oracle.store._strict),
        {
            leaf: (m, m.nodes, list(map(m.row, range(len(m.nodes)))))
            for leaf, m in oracle._leaves.items()
        },
        (union, union.slots, bytes(union.live)),
        {v: tuple(rows) for v, rows in union.rows.items()},
    )


@pytest.mark.parametrize("name", ["grid16", "tri200"])
def test_queries_leave_cached_leaves_unchanged(name, zoo, tmp_path):
    # a built or loaded oracle holds every strict matrix and leaf member,
    # and queries only read them: failed vertices are blocked in the scan,
    # not removed from a member, and nothing is added or replaced
    g = zoo[name]
    fo = FailureOracle(g, leaf_size=16, r_base=4)
    to = TradeoffOracle(g, r=fo.tree.r_sequence[0], k=2, tree=fo.tree)
    oracles = [fo, to]
    for i, built in enumerate((fo, to)):
        path = tmp_path / f"{i}.bin"
        save_oracle(built, path)
        oracles.append(load_oracle(path))
    for oracle in oracles:
        assert sorted(oracle.store._strict) == [p.id for p in fo.tree.pieces]
        assert sorted(oracle._leaves) == leaves(fo.tree)
    before = [_snapshot(oracle) for oracle in oracles]

    rng = random.Random(f"cached-leaves:{name}")
    main = 0
    for _ in range(300):
        u, v = rng.sample(range(g.n), 2)
        inside = [
            w
            for w in fo.tree.pieces[fo.tree.leaf_of[rng.choice((u, v))]].vertices
            if w not in (u, v)
        ]
        x = frozenset(rng.sample(inside, min(len(inside), rng.randint(1, 2))))
        want = distance_avoiding(g, u, v, x)
        for oracle in oracles:
            assert oracle.distance(u, v, x) == want, (u, v, sorted(x))
        main += to._plan(u, v, tuple(sorted(x))) is not None
    assert main > 0

    # the same attributes, the same matrix and member objects, the same
    # nodes and arcs, the same union and the same out-lists in its rows
    for oracle, snap in zip(oracles, before):
        attrs, store_attrs, strict, members, union, rows = _snapshot(oracle)
        assert (attrs, store_attrs) == snap[:2]
        assert strict.keys() == snap[2].keys()
        assert all(strict[pid] is m for pid, m in snap[2].items())
        assert members == snap[3]
        assert union[0] is snap[4][0] and union[1:] == snap[4][1:]
        assert rows == snap[5]
