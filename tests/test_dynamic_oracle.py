"""Distances under live updates: weights, arcs, vertices, rollback."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from planar_oracle import dynamic_oracle
from planar_oracle.baseline import distance_avoiding, sssp
from planar_oracle.ddg import strict_matrix
from planar_oracle.decomposition import build_decomposition
from planar_oracle.dynamic_oracle import DynamicOracle
from planar_oracle.failure_oracle import ACTIVE_LANDMARKS, _FAR
from planar_oracle.frdijkstra import DdgUnion, SparseMember
from planar_oracle.generate import generate_grid, generate_random_triangulation
from planar_oracle.graph import (
    MATRIX_SENTINEL,
    UNREACHABLE,
    EmbeddedPlanarGraph,
    EmbeddingError,
    WeightOverflowError,
    check_planar,
)

from conftest import rows_by_slot, union_arcs


def fresh_distance(dyn, u, v):
    """Rebuild-from-scratch reference on the exported snapshot."""
    snap, vmap, _ = dyn.export_graph()
    idx = {p: i for i, p in enumerate(vmap)}
    return sssp(snap, idx[u])[idx[v]]


@pytest.fixture
def dyn10():
    return DynamicOracle(generate_grid(10, 10, max_weight=7, seed=4), r=16)


def test_initial_distances(dyn10):
    g = generate_grid(10, 10, max_weight=7, seed=4)
    ref = sssp(g, 0)
    for v in range(0, 100, 7):
        assert dyn10.distance(0, v) == ref[v]


def test_weight_change_takes_effect(dyn10):
    base = dyn10.distance(0, 99)
    # raise every arc out of vertex 0 far enough to matter
    for a in list(dyn10.rot[0]):
        if dyn10.arc_alive[a] and dyn10.arc_tail[a] == 0:
            dyn10.set_weight(a, dyn10.arc_weight[a] + 50)
    bumped = dyn10.distance(0, 99)
    assert bumped > base
    assert bumped == fresh_distance(dyn10, 0, 99)


def test_delete_edge(dyn10):
    alive = [a for a in range(len(dyn10.arc_alive)) if dyn10.arc_alive[a]]
    dyn10.delete_edge(alive[3])
    assert not dyn10.arc_alive[alive[3]]
    assert sum(dyn10.arc_alive) == len(alive) - 1
    assert dyn10.distance(0, 55) == fresh_distance(dyn10, 0, 55)
    with pytest.raises(ValueError):
        dyn10.delete_edge(alive[3])


def test_insert_vertex_and_edges(dyn10):
    w = dyn10.insert_vertex()
    assert dyn10.v_alive[w]
    # fresh vertex starts isolated
    assert dyn10.distance(0, w) == UNREACHABLE
    a1 = dyn10.insert_edge(0, w, 5)
    a2 = dyn10.insert_edge(w, 0, 7)
    assert dyn10.arc_alive[a1] and dyn10.arc_alive[a2]
    assert dyn10.distance(0, w) == 5
    assert dyn10.distance(w, 0) == 7
    assert dyn10.distance(w, 99) == 7 + fresh_distance(dyn10, 0, 99)
    assert dyn10.distance(1, w) == fresh_distance(dyn10, 1, w)


def test_delete_vertex(dyn10):
    incident_before = sum(dyn10.arc_alive)
    dyn10.delete_vertex(55)
    assert not dyn10.v_alive[55]
    assert sum(dyn10.arc_alive) < incident_before
    with pytest.raises(ValueError):
        dyn10.distance(0, 55)
    assert dyn10.distance(0, 99) == fresh_distance(dyn10, 0, 99)


def test_planarity_rollback(dyn10):
    # a chord between opposite grid corners cannot keep this embedding planar
    before = dyn10.export_graph()[0]
    with pytest.raises(EmbeddingError):
        dyn10.insert_edge(0, 99, 1)
    after = dyn10.export_graph()[0]
    assert before == after
    assert dyn10.distance(0, 99) == fresh_distance(dyn10, 0, 99)


def test_validation(dyn10):
    with pytest.raises(ValueError):
        dyn10.set_weight(0, -1)
    with pytest.raises(ValueError):
        dyn10.set_weight(10**6, 3)
    with pytest.raises(ValueError):
        dyn10.insert_edge(0, 0, 1)
    with pytest.raises(ValueError):
        dyn10.insert_edge(0, 1, -2)
    # the 0 -> 1 arc already exists in the grid
    with pytest.raises(ValueError):
        dyn10.insert_edge(0, 1, 3)
    with pytest.raises(ValueError):
        dyn10.delete_vertex(10**6)


def test_weight_budget_rejects_before_mutation():
    dyn = DynamicOracle(generate_grid(4, 4), r=16)
    pairs = [(u, v) for u in range(16) for v in range(16)]
    before = [dyn.distance(u, v) for u, v in pairs]
    arcs = len(dyn.arc_alive)
    for a in [a for a in dyn.rot[5] if dyn.arc_tail[a] == 5]:
        with pytest.raises(WeightOverflowError):
            dyn.set_weight(a, 1 << 62)
    with pytest.raises(WeightOverflowError):
        dyn.insert_edge(0, 5, 1 << 62)
    assert len(dyn.arc_alive) == arcs
    assert [dyn.distance(u, v) for u, v in pairs] == before
    assert [fresh_distance(dyn, u, v) for u, v in pairs] == before


@pytest.mark.parametrize("w", [2.5, 3.0, True, False, "4"])
def test_non_integer_weight_rejects_before_mutation(w):
    dyn = DynamicOracle(generate_grid(3, 3, max_weight=5, seed=1), r=16)
    weights = list(dyn.arc_weight)
    weight_sum = dyn.weight_sum
    arcs = dyn.export_graph()[0].arcs
    with pytest.raises(ValueError, match="not an integer"):
        dyn.set_weight(0, w)
    # a planar splice: only the weight is wrong
    with pytest.raises(ValueError, match="not an integer"):
        dyn.insert_edge(0, 4, w, 2, 0)
    assert dyn.arc_weight == weights
    assert dyn.weight_sum == weight_sum
    assert dyn.export_graph()[0].arcs == arcs
    dyn.insert_edge(0, 4, 2, 2, 0)
    assert dyn.distance(0, 4) == 2


def region_state(dyn):
    return [
        (reg.vertices, reg.boundary, reg.arcs, reg.ddg.nodes, reg.ddg.matrix.tobytes())
        for reg in dyn.regions
    ]


def assert_structure(dyn):
    """The region bookkeeping every update keeps, and the rebuild budgets."""
    alive_arcs = {a for a in range(len(dyn.arc_alive)) if dyn.arc_alive[a]}
    holders = {}
    homes = {}
    for ri, reg in enumerate(dyn.regions):
        for a in reg.arcs:
            holders.setdefault(a, []).append(ri)
        for v in reg.vertices:
            homes.setdefault(v, []).append(ri)
        # no region names a dead vertex
        named = reg.vertices | reg.boundary | set(reg.ddg.nodes)
        assert all(dyn.v_alive[v] for v in named), (ri, named)
    # every alive arc is in exactly one region's arcs, the one region_of_arc
    # names, with both ends among its vertices; every region's arcs are alive
    assert holders.keys() == alive_arcs == dyn.region_of_arc.keys()
    for a, ris in holders.items():
        assert ris == [dyn.region_of_arc[a]], a
        reg = dyn.regions[ris[0]]
        assert {dyn.arc_tail[a], dyn.arc_head[a]} <= reg.vertices, a
    # a vertex in two or more regions is boundary in each
    for v, ris in homes.items():
        if len(ris) > 1:
            assert all(v in dyn.regions[ri].boundary for ri in ris), (v, ris)
    # every region is within budget
    floor = math.isqrt(dyn.r - 1) + 1
    assert len(dyn.regions) <= 2 * dyn.divided_regions
    for reg in dyn.regions:
        assert len(reg.vertices) <= 2 * dyn.r
        assert len(reg.boundary) <= max(2 * reg.divided_boundary, floor)


def assert_matrices_fresh(dyn):
    """Every region's matrix, repaired or recomputed, is the one
    strict_matrix builds from the region's current arcs, byte for byte."""
    for ri, reg in enumerate(dyn.regions):
        nodes = tuple(sorted(reg.boundary))
        arcs = [(dyn.arc_tail[a], dyn.arc_head[a], dyn.arc_weight[a]) for a in reg.arcs]
        want = strict_matrix([SparseMember(sorted(reg.vertices), arcs)], nodes)
        assert reg.ddg.nodes == nodes, ri
        assert reg.ddg.matrix.tobytes() == want.tobytes(), ri


def assert_answers(dyn, rng, queries):
    snap, vmap, _ = dyn.export_graph()
    idx = {p: i for i, p in enumerate(vmap)}
    for _ in range(queries):
        u, v = rng.choice(vmap), rng.choice(vmap)
        assert dyn.distance(u, v) == distance_avoiding(snap, idx[u], idx[v]), (u, v)


def homes_of(dyn, v):
    return [ri for ri, reg in enumerate(dyn.regions) if v in reg.vertices]


def insert_anywhere(dyn, tail, head, weight):
    """Insert tail->head at the first rotation positions that keep the
    embedding planar."""
    for tp in range(len(dyn.rot[tail]) + 1):
        for hp in range(len(dyn.rot[head]) + 1):
            try:
                return dyn.insert_edge(tail, head, weight, tp, hp)
            except EmbeddingError:
                pass
    raise AssertionError(f"no planar splice for {tail}->{head}")


def test_rebuild_cadence():
    rng = random.Random("cadence")
    g = generate_grid(6, 6, max_weight=5, seed=2)

    # one region pushed past 2r vertices: exactly one rebuild, on the
    # insertion that crosses the budget
    dyn = DynamicOracle(g, r=16)
    start = dyn.rebuild_count
    hub = next(v for v in range(g.n) if len(homes_of(dyn, v)) == 1)
    reg = dyn.regions[homes_of(dyn, hub)[0]]
    for i in range(2 * dyn.r + 1 - len(reg.vertices)):
        assert dyn.rebuild_count == start
        dyn.insert_edge(hub, dyn.insert_vertex(), 1 + i % 3)
    assert len(reg.vertices) == 2 * dyn.r + 1
    assert dyn.rebuild_count == start + 1
    assert_structure(dyn)
    assert_answers(dyn, rng, 60)

    # arc delete/re-insert pairs leave the topology as it was: no rebuild
    dyn = DynamicOracle(g, r=16)
    start = dyn.rebuild_count
    current = list(range(g.m))  # public id of each generated arc
    for _ in range(120):
        a = rng.randrange(g.m)
        t, h = g.tails[a], g.heads[a]
        dyn.delete_edge(current[a])
        where = (g.rotation[t].index(a), g.rotation[h].index(a))
        current[a] = dyn.insert_edge(t, h, rng.randint(1, 9), *where)
        assert_answers(dyn, rng, 3)
    assert dyn.rebuild_count == start
    assert_structure(dyn)

    # arcs from an old region into a new one put their heads on both
    # boundaries: one rebuild once the new region's boundary passes
    # ceil(sqrt(r)), well before the old region's passes twice its size
    dyn = DynamicOracle(g, r=16)
    start = dyn.rebuild_count
    floor = math.isqrt(dyn.r - 1) + 1
    old = max(dyn.regions, key=lambda reg: len(reg.boundary))
    assert len(old.boundary) > floor
    hub = next(v for v in old.vertices if len(homes_of(dyn, v)) == 1)
    fresh = [dyn.insert_vertex() for _ in range(floor + 2)]
    for x in fresh[1:]:
        dyn.insert_edge(fresh[0], x, 1)
    new = dyn.regions[-1]
    assert new.vertices == set(fresh) and not new.boundary
    for x in fresh[1:]:
        assert dyn.rebuild_count == start
        insert_anywhere(dyn, hub, x, 1)
    assert len(new.boundary) == floor + 1
    assert dyn.rebuild_count == start + 1
    assert_structure(dyn)
    assert_answers(dyn, rng, 60)

    # arcs between fresh vertices start new regions: one rebuild once
    # there are more than twice as many as the division made
    dyn = DynamicOracle(g, r=16)
    start = dyn.rebuild_count
    for _ in range(dyn.divided_regions + 1):
        assert dyn.rebuild_count == start
        dyn.insert_edge(dyn.insert_vertex(), dyn.insert_vertex(), 2)
    assert dyn.rebuild_count == start + 1
    assert_structure(dyn)
    assert_answers(dyn, rng, 60)


@pytest.mark.parametrize("op", ["set_weight", "delete_edge", "insert_edge", "delete_vertex"])
def test_cached_member_follows_its_region(op):
    # weight changes and deletions edit the region's member in place; a
    # vertex joining or leaving the region builds it a new one; either way
    # the region's raw slot holds the region's current member
    g = generate_grid(6, 6, max_weight=5, seed=2)
    dyn = DynamicOracle(g, r=16)
    # u lives in one region only, so its raw member is that region's
    u = next(v for v in range(g.n) if len(homes_of(dyn, v)) == 1)
    reg = dyn.regions[homes_of(dyn, u)[0]]
    out = [a for a in dyn.rot[u] if dyn.arc_tail[a] == u]
    dyn.distance(u, dyn.arc_head[out[0]])
    cached = reg.member
    slot = dyn._raw_member(u)
    assert cached is not None and dyn._union.slots[slot] is cached
    if op == "set_weight":
        for a in out:
            dyn.set_weight(a, 40)
    elif op == "delete_edge":
        dyn.delete_edge(out[0])
    elif op == "insert_edge":
        dyn.insert_edge(u, dyn.insert_vertex(), 1)
    else:
        dyn.delete_vertex(dyn.arc_head[out[0]])
    assert dyn.rebuild_count == 1 and dyn.regions[homes_of(dyn, u)[0]] is reg
    assert dyn._raw_member(u) == slot
    assert dyn._union.slots[slot] is reg.member
    assert (reg.member is cached) == (op in ("set_weight", "delete_edge"))
    assert_union_current(dyn)
    snap, vmap, _ = dyn.export_graph()
    idx = {p: i for i, p in enumerate(vmap)}
    for v in vmap:
        assert dyn.distance(u, v) == distance_avoiding(snap, idx[u], idx[v]), v
        assert dyn.distance(v, u) == distance_avoiding(snap, idx[v], idx[u]), v


def test_weight_changes_never_rebuild():
    dyn = DynamicOracle(generate_grid(6, 6, max_weight=5, seed=2), r=16)
    start = dyn.rebuild_count
    alive = [a for a in range(len(dyn.arc_alive)) if dyn.arc_alive[a]]
    for i in range(8):
        dyn.set_weight(alive[3 * i], 7 + i)
    assert dyn.rebuild_count == start
    # a rebuild after weight changes alone reproduces every region exactly
    before = region_state(dyn)
    dyn._rebuild()
    assert region_state(dyn) == before


def test_same_weight_changes_nothing():
    dyn = DynamicOracle(generate_grid(6, 6, max_weight=5, seed=2), r=16)
    u = interior_vertex(dyn)
    arc = next(a for a in dyn.rot[u] if dyn.arc_tail[a] == u)
    dyn.distance(u, 35)
    reg = dyn.regions[dyn.region_of_arc[arc]]
    kept = (reg.ddg, reg.member, dyn._union, dyn._union.rows)
    assert None not in kept
    with pytest.raises(ValueError):
        dyn.set_weight(arc, -1)
    dyn.set_weight(arc, dyn.arc_weight[arc])
    now = (reg.ddg, reg.member, dyn._union, dyn._union.rows)
    assert all(x is y for x, y in zip(now, kept))


@pytest.mark.parametrize(
    "g",
    [
        generate_grid(10, 10, max_weight=9, seed=4),
        generate_random_triangulation(120, max_weight=9, seed=4),
    ],
    ids=["grid10", "tri120"],
)
def test_repaired_matrices_match_fresh(g, monkeypatch):
    # every update kind, on arcs with neither, one or both ends on a
    # region boundary; after each, every region matrix is strict_matrix's
    repairs = []

    def spy(member, old, tail, head, w_old, w_new):
        nodes = [member.nodes[i] for i in member.ends]
        repairs.append((tail in nodes, head in nodes))
        return repair(member, old, tail, head, w_old, w_new)

    repair = dynamic_oracle.repair_strict_matrix
    monkeypatch.setattr(dynamic_oracle, "repair_strict_matrix", spy)
    dyn = DynamicOracle(g, r=16)
    rng = random.Random(f"repair-{g.n}")
    kinds = ["cut", "zero", "raise", "same", "delete", "reinsert", "vertex", "drop_vertex"]
    for step in range(240):
        kind = kinds[step % len(kinds)]
        # cycle through the four ways an arc's ends can lie on a boundary
        ends = divmod(step // len(kinds) % 4, 2)
        arcs = [
            a
            for a in alive_arcs_of(dyn)
            if (
                dyn.arc_tail[a] in dyn.regions[dyn.region_of_arc[a]].boundary,
                dyn.arc_head[a] in dyn.regions[dyn.region_of_arc[a]].boundary,
            )
            == ends
        ] or alive_arcs_of(dyn)
        a = rng.choice(arcs)
        old = dyn.arc_weight[a]
        if kind == "cut":
            dyn.set_weight(a, rng.randrange(old + 1))
        elif kind == "zero":
            dyn.set_weight(a, 0)
        elif kind == "raise":
            dyn.set_weight(a, old + rng.randint(1, 9))
        elif kind == "same":
            dyn.set_weight(a, old)
        elif kind == "delete":
            dyn.delete_edge(a)
        elif kind == "reinsert":
            reinsert(dyn, a, rng.randint(0, 9))
        elif kind == "vertex":
            x = dyn.insert_vertex()
            hub = interior_vertex(dyn)
            insert_anywhere(dyn, hub, x, rng.randint(0, 9))
            insert_anywhere(dyn, x, hub, rng.randint(0, 9))
        else:
            dyn.delete_vertex(rng.choice(alive_vertices_of(dyn)))
        assert_matrices_fresh(dyn)
    assert_answers(dyn, rng, 40)
    # repairs ran with every boundary role of the arc's ends
    assert set(repairs) == {(False, False), (True, False), (False, True), (True, True)}


@pytest.mark.parametrize(
    "g",
    [
        generate_grid(16, 16, max_weight=9, seed=3),
        generate_random_triangulation(300, max_weight=9, seed=3),
    ],
    ids=["grid16", "tri300"],
)
def test_regions_independent_of_leaf_size(g):
    # pieces above r split the same way whatever the leaf size, so the
    # regions, the leaves of a decomposition with leaf size r, are the
    # r-division of one with leaf size 32, in the same order
    r = 64
    dyn = DynamicOracle(g, r=r)
    tree = build_decomposition(g, leaf_size=32, r_base=2)
    want = [
        (set(piece.vertices), set(piece.boundary), set(piece.arcs))
        for piece in map(tree.pieces.__getitem__, tree.r_division(r))
    ]
    assert [(reg.vertices, reg.boundary, reg.arcs) for reg in dyn.regions] == want
    assert len(want) > 1
    assert_matrices_fresh(dyn)


def test_boolean_ids_rejected(dyn10):
    before = dyn10.export_graph()[0]
    with pytest.raises(ValueError):
        dyn10.distance(True, 5)
    with pytest.raises(ValueError):
        dyn10.distance(5, False)
    with pytest.raises(ValueError):
        dyn10.set_weight(True, 3)
    with pytest.raises(ValueError):
        dyn10.delete_edge(False)
    with pytest.raises(ValueError):
        dyn10.delete_vertex(True)
    with pytest.raises(ValueError):
        dyn10.insert_edge(True, 12, 1)
    w = dyn10.insert_vertex()
    for pos in [(True, 0), (0, False)]:
        with pytest.raises(ValueError):
            dyn10.insert_edge(0, w, 1, *pos)
    assert dyn10.export_graph()[0].arcs == before.arcs


def test_far_update_leaves_other_regions_alone(dyn10):
    # regions not owning the arc keep their exact matrix objects
    arc = next(a for a in range(len(dyn10.arc_alive)) if dyn10.arc_alive[a])
    owner = dyn10.region_of_arc[arc]
    snapshots = {
        ri: reg.ddg for ri, reg in enumerate(dyn10.regions) if ri != owner
    }
    dyn10.set_weight(arc, dyn10.arc_weight[arc] + 1)
    for ri, ddg in snapshots.items():
        assert dyn10.regions[ri].ddg is ddg


def test_mixed_fuzz_against_fresh_rebuild():
    g = generate_grid(8, 8, max_weight=9, seed=11)
    dyn = DynamicOracle(g, r=16)
    rng = random.Random("dyn-mixed")
    for step in range(60):
        kind = rng.choice(["w", "w", "de", "iv", "dv", "ie"])
        try:
            if kind == "w":
                alive = [a for a in range(len(dyn.arc_alive)) if dyn.arc_alive[a]]
                dyn.set_weight(rng.choice(alive), rng.randrange(0, 12))
            elif kind == "de":
                alive = [a for a in range(len(dyn.arc_alive)) if dyn.arc_alive[a]]
                dyn.delete_edge(rng.choice(alive))
            elif kind == "iv":
                dyn.insert_vertex()
            elif kind == "dv":
                alive_v = [v for v in range(len(dyn.v_alive)) if dyn.v_alive[v]]
                dyn.delete_vertex(rng.choice(alive_v))
            else:
                alive_v = [v for v in range(len(dyn.v_alive)) if dyn.v_alive[v]]
                t, h = rng.sample(alive_v, 2)
                dyn.insert_edge(
                    t,
                    h,
                    rng.randrange(0, 9),
                    tail_pos=rng.randrange(len(dyn.rot[t]) + 1),
                    head_pos=rng.randrange(len(dyn.rot[h]) + 1),
                )
        except (ValueError, EmbeddingError):
            pass
        snap, vmap, _ = dyn.export_graph()
        idx = {p: i for i, p in enumerate(vmap)}
        alive_v = [v for v in range(len(dyn.v_alive)) if dyn.v_alive[v]]
        for _ in range(6):
            u, v = rng.choice(alive_v), rng.choice(alive_v)
            want = sssp(snap, idx[u])[idx[v]]
            assert dyn.distance(u, v) == want, (step, u, v)


def spliced_is_planar(dyn, tail, head, tail_pos, head_pos):
    """Full face trace of the rotation system with the arc spliced in."""
    arc = len(dyn.arc_alive)
    tails = dyn.arc_tail + [tail]
    heads = dyn.arc_head + [head]
    rotation = {
        v: list(dyn.rot[v]) for v in range(len(dyn.v_alive)) if dyn.v_alive[v]
    }
    rotation[tail].insert(tail_pos, arc)
    rotation[head].insert(head_pos, arc)
    alive = [a for a in range(arc) if dyn.arc_alive[a]] + [arc]
    try:
        check_planar(alive, tails, heads, rotation)
    except EmbeddingError:
        return False
    return True


def component_of(dyn, v):
    seen, stack = {v}, [v]
    while stack:
        x = stack.pop()
        for a in dyn.rot[x]:
            for y in (dyn.arc_tail[a], dyn.arc_head[a]):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return seen


@pytest.mark.parametrize(
    "g",
    [
        generate_grid(4, 5, max_weight=5, seed=7),
        generate_random_triangulation(16, max_weight=5, seed=7),
    ],
    ids=["grid", "tri"],
)
def test_local_planarity_matches_full_check(g):
    dyn = DynamicOracle(g, r=9)
    rng = random.Random("local-planarity")
    seen = dict.fromkeys(
        ["accepted", "rejected", "isolated", "other_component", "pos_0", "pos_end"], 0
    )
    for _ in range(400):
        alive_v = [v for v in range(len(dyn.v_alive)) if dyn.v_alive[v]]
        roll = rng.random()
        if roll < 0.06:
            dyn.insert_vertex()
            continue
        if roll < 0.12 and len(alive_v) > 6:
            dyn.delete_vertex(rng.choice(alive_v))
            continue
        if roll < 0.25:
            alive = [a for a in range(len(dyn.arc_alive)) if dyn.arc_alive[a]]
            if alive:
                dyn.delete_edge(rng.choice(alive))
            continue
        t, h = rng.sample(alive_v, 2)
        if any(dyn.arc_head[a] == h for a in dyn.rot[t] if dyn.arc_tail[a] == t):
            continue
        tp = rng.choice([0, len(dyn.rot[t]), rng.randrange(len(dyn.rot[t]) + 1)])
        hp = rng.choice([0, len(dyn.rot[h]), rng.randrange(len(dyn.rot[h]) + 1)])
        want = spliced_is_planar(dyn, t, h, tp, hp)
        if not dyn.rot[t] or not dyn.rot[h]:
            seen["isolated"] += 1
        elif h not in component_of(dyn, t):
            seen["other_component"] += 1
        seen["pos_0"] += tp == 0 < len(dyn.rot[t])
        seen["pos_end"] += tp == len(dyn.rot[t]) > 0
        before = dyn.export_graph()
        try:
            arc = dyn.insert_edge(t, h, rng.randrange(8), tail_pos=tp, head_pos=hp)
        except EmbeddingError:
            assert not want, (t, h, tp, hp)
            assert dyn.export_graph() == before
            seen["rejected"] += 1
        else:
            assert want, (t, h, tp, hp)
            assert dyn.arc_alive[arc]
            seen["accepted"] += 1
    assert min(seen.values()) > 0, seen
    # every accepted insertion kept the system planar: a full check passes
    dyn.export_graph()


class DynamicMachine(RuleBasedStateMachine):
    """Random update sequences checked against Dijkstra on the snapshot."""

    @initialize(
        rows=st.integers(2, 4), cols=st.integers(2, 4), seed=st.integers(0, 99)
    )
    def build(self, rows, cols, seed):
        self.dyn = DynamicOracle(
            generate_grid(rows, cols, max_weight=9, seed=seed), r=4
        )

    def alive_vertices(self):
        return [v for v in range(len(self.dyn.v_alive)) if self.dyn.v_alive[v]]

    def alive_arcs(self):
        return [a for a in range(len(self.dyn.arc_alive)) if self.dyn.arc_alive[a]]

    @rule(pick=st.integers(0, 999), weight=st.integers(0, 20))
    def set_weight(self, pick, weight):
        alive = self.alive_arcs()
        if alive:
            self.dyn.set_weight(alive[pick % len(alive)], weight)

    @rule(pick=st.integers(0, 999))
    def delete_edge(self, pick):
        alive = self.alive_arcs()
        if alive:
            self.dyn.delete_edge(alive[pick % len(alive)])

    @rule()
    def insert_vertex(self):
        self.dyn.insert_vertex()

    @rule(pick=st.integers(0, 999))
    def delete_vertex(self, pick):
        alive = self.alive_vertices()
        if len(alive) > 2:
            self.dyn.delete_vertex(alive[pick % len(alive)])

    @rule(
        picks=st.tuples(st.integers(0, 999), st.integers(0, 999)),
        positions=st.tuples(st.integers(0, 99), st.integers(0, 99)),
        weight=st.integers(0, 20),
    )
    def insert_edge(self, picks, positions, weight):
        dyn = self.dyn
        alive = self.alive_vertices()
        t = alive[picks[0] % len(alive)]
        h = alive[picks[1] % len(alive)]
        if t == h or any(
            dyn.arc_head[a] == h for a in dyn.rot[t] if dyn.arc_tail[a] == t
        ):
            return
        tp = positions[0] % (len(dyn.rot[t]) + 1)
        hp = positions[1] % (len(dyn.rot[h]) + 1)
        want = spliced_is_planar(dyn, t, h, tp, hp)
        before = dyn.export_graph()
        try:
            dyn.insert_edge(t, h, weight, tail_pos=tp, head_pos=hp)
        except EmbeddingError:
            assert not want
            assert dyn.export_graph() == before
        else:
            assert want

    @rule(picks=st.tuples(st.integers(0, 999), st.integers(0, 999)))
    def query(self, picks):
        alive = self.alive_vertices()
        u = alive[picks[0] % len(alive)]
        v = alive[picks[1] % len(alive)]
        snap, vmap, _ = self.dyn.export_graph()
        idx = {p: i for i, p in enumerate(vmap)}
        assert self.dyn.distance(u, v) == distance_avoiding(snap, idx[u], idx[v])

    @invariant()
    def region_structure(self):
        assert_structure(self.dyn)

    @invariant()
    def region_matrices_fresh(self):
        assert_matrices_fresh(self.dyn)

    @invariant()
    def union_current(self):
        assert_union_current(self.dyn)


TestDynamicMachine = DynamicMachine.TestCase
TestDynamicMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)


# -- the first division, landmark tables and the kept union ------------------


@pytest.mark.parametrize(
    "g",
    [
        generate_grid(16, 16, max_weight=9, seed=3),
        generate_random_triangulation(300, max_weight=9, seed=3),
    ],
    ids=["grid16", "tri300"],
)
def test_first_division_matches_forced_rebuild(g):
    # the constructor divides the input graph itself, not export_graph()
    dyn = DynamicOracle(g, r=32)
    before = region_state(dyn)
    tables = (dyn._to, dyn._frm)
    dyn._rebuild()
    assert region_state(dyn) == before
    assert (dyn._to, dyn._frm) == tables


def alive_arcs_of(dyn):
    return [a for a in range(len(dyn.arc_alive)) if dyn.arc_alive[a]]


def alive_vertices_of(dyn):
    return [v for v in range(len(dyn.v_alive)) if dyn.v_alive[v]]


def table_violations(dyn):
    """(arc, landmark, table) wherever a table row is not feasible on a
    live arc y -> z of length w: to[y] <= w + to[z], frm[z] <= w + frm[y]."""
    bad = []
    for a in alive_arcs_of(dyn):
        y, z, w = dyn.arc_tail[a], dyn.arc_head[a], dyn.arc_weight[a]
        for i in range(len(dyn._far_row)):
            if dyn._to[y][i] > w + dyn._to[z][i]:
                bad.append((a, i, "to"))
            if dyn._frm[z][i] > w + dyn._frm[y][i]:
                bad.append((a, i, "frm"))
    return bad


def reinsert(dyn, a, weight):
    """Delete arc a and insert it again, between the same ends at the same
    rotation positions, with a new weight; returns the new arc id."""
    t, h = dyn.arc_tail[a], dyn.arc_head[a]
    where = (dyn.rot[t].index(a), dyn.rot[h].index(a))
    dyn.delete_edge(a)
    return dyn.insert_edge(t, h, weight, *where)


def interior_vertex(dyn):
    """A vertex with arcs that lies in one region only."""
    return next(v for v in alive_vertices_of(dyn) if dyn.rot[v] and len(homes_of(dyn, v)) == 1)


UPDATES = st.lists(
    st.tuples(
        st.sampled_from(["raise", "cut", "reinsert", "vertex", "drop_vertex", "fresh_pair"]),
        st.integers(0, 999),
        st.integers(0, 20),
    ),
    max_size=20,
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 99), updates=UPDATES)
def test_tables_stay_feasible(seed, updates):
    dyn = DynamicOracle(generate_grid(5, 5, max_weight=9, seed=seed), r=9)
    assert not table_violations(dyn)
    for kind, pick, w in updates:
        arcs = alive_arcs_of(dyn)
        if kind in ("raise", "cut", "reinsert") and arcs:
            a = arcs[pick % len(arcs)]
            old = dyn.arc_weight[a]
            if kind == "raise":
                dyn.set_weight(a, old + w)
            elif kind == "cut":
                dyn.set_weight(a, w % (old + 1))
            else:
                reinsert(dyn, a, w)
        elif kind == "vertex":
            # a new vertex, joined by one arc each way
            x = dyn.insert_vertex()
            hub = interior_vertex(dyn)
            insert_anywhere(dyn, hub, x, w)
            insert_anywhere(dyn, x, hub, pick % 9)
        elif kind == "drop_vertex":
            alive = alive_vertices_of(dyn)
            if len(alive) > 3:
                dyn.delete_vertex(alive[pick % len(alive)])
        elif kind == "fresh_pair":
            # an arc between two fresh vertices, then an arc into the pair
            x, y = dyn.insert_vertex(), dyn.insert_vertex()
            dyn.insert_edge(x, y, w)
            if pick % 2:
                insert_anywhere(dyn, interior_vertex(dyn), x, pick % 9)
        assert not table_violations(dyn), (kind, pick, w)
    assert_answers(dyn, random.Random(seed), 10)


def assert_union_current(dyn):
    """The kept union holds region ri's matrix in slot 2ri and its raw
    member in slot 2ri + 1, every slot live, and its rows and member sizes
    equal those of a union indexed afresh from each region's matrix and
    its current arcs, read from the oracle's arc lists in id order."""
    union = dyn._union
    members = [m for reg in dyn.regions for m in (reg.ddg, reg.member)]
    assert list(union.slots) == list(union.members) == members
    assert set(union.live) <= {1}
    t, h, w = dyn.arc_tail, dyn.arc_head, dyn.arc_weight
    fresh = DdgUnion(
        [
            m
            for reg in dyn.regions
            for m in (
                reg.ddg,
                SparseMember(sorted(reg.vertices), [(t[a], h[a], w[a]) for a in sorted(reg.arcs)]),
            )
        ]
    )
    assert rows_by_slot(union) == rows_by_slot(fresh)
    assert union.union_vertices == fresh.union_vertices
    assert union.size >= fresh.size


@pytest.mark.parametrize(
    "op",
    [
        "raise", "cut", "delete_edge", "reinsert", "insert_vertex",
        "delete_interior_vertex", "delete_boundary_vertex", "grow_boundary", "rebuild",
    ],
)
def test_kept_union_matches_fresh(op):
    g = generate_grid(6, 6, max_weight=5, seed=2)
    dyn = DynamicOracle(g, r=16)
    hub = interior_vertex(dyn)
    if op == "grow_boundary":
        # a new two-vertex region first, so an arc into it grows boundaries
        x, y = dyn.insert_vertex(), dyn.insert_vertex()
        dyn.insert_edge(x, y, 1)
    kept = dyn._union
    assert_union_current(dyn)
    dyn.distance(0, 35)
    assert dyn._union is kept
    assert_union_current(dyn)
    out = [a for a in dyn.rot[hub] if dyn.arc_tail[a] == hub]
    boundary = next(v for v in alive_vertices_of(dyn) if len(homes_of(dyn, v)) > 1)
    start = dyn.rebuild_count
    if op == "raise":
        dyn.set_weight(out[0], dyn.arc_weight[out[0]] + 9)
    elif op == "cut":
        dyn.set_weight(out[0], 0)
    elif op == "delete_edge":
        dyn.delete_edge(out[0])
    elif op == "reinsert":
        reinsert(dyn, out[0], 1)
    elif op == "insert_vertex":
        dyn.insert_vertex()
    elif op == "delete_interior_vertex":
        dyn.delete_vertex(hub)
    elif op == "delete_boundary_vertex":
        dyn.delete_vertex(boundary)
    elif op == "grow_boundary":
        before = {ri: set(reg.boundary) for ri, reg in enumerate(dyn.regions)}
        insert_anywhere(dyn, hub, x, 1)
        assert any(reg.boundary != before[ri] for ri, reg in enumerate(dyn.regions))
    else:
        dyn._rebuild()
    # boundary changes re-index their regions' slots: only a division
    # builds a new union
    assert (dyn._union is kept) == (op != "rebuild")
    assert_union_current(dyn)
    assert dyn.rebuild_count == start + (op == "rebuild")
    assert_answers(dyn, random.Random(op), 40)
    assert_union_current(dyn)


@pytest.mark.parametrize("op", ["set_weight", "delete_edge", "reinsert"])
def test_repair_keeps_the_matrix_and_its_rows(op):
    # an in-place edit keeps the region's matrix and member objects in
    # slots 2ri and 2ri + 1, and every row tuple of the union but one: the
    # arc tail's row in the raw slot
    dyn = DynamicOracle(generate_grid(6, 6, max_weight=5, seed=2), r=16)
    hub = interior_vertex(dyn)
    arc = next(a for a in dyn.rot[hub] if dyn.arc_tail[a] == hub)
    ri = dyn.region_of_arc[arc]
    reg = dyn.regions[ri]
    ddg, member = reg.ddg, reg.member
    matrix = ddg.matrix
    rows = {v: list(dyn._union.rows[v]) for v in dyn._union.rows}
    if op == "set_weight":
        dyn.set_weight(arc, dyn.arc_weight[arc] + 9)
    elif op == "delete_edge":
        dyn.delete_edge(arc)
    else:
        reinsert(dyn, arc, dyn.arc_weight[arc] + 9)
    assert dyn.rebuild_count == 1
    assert dyn.regions[ri] is reg and dyn.region_of_arc.get(arc, ri) == ri
    assert reg.ddg is ddg and ddg.matrix is matrix and reg.member is member
    assert dyn._union.slots[2 * ri] is ddg and dyn._union.slots[2 * ri + 1] is member
    assert rows.keys() == dyn._union.rows.keys()
    for v, before in rows.items():
        now = dyn._union.rows[v]
        assert len(now) == len(before), v
        for old, new in zip(before, now):
            assert (new is old) == ((v, new[0]) != (hub, 2 * ri + 1)), (v, new[0])
    assert_union_current(dyn)
    assert_matrices_fresh(dyn)
    assert_answers(dyn, random.Random(op), 40)


def test_long_dynamic_grid_mix_matches_fresh_builds():
    # the benchmark's mix in blocks of 20 operations: 12 queries, 4 weight
    # changes and 2 arc deletions, each re-inserted at once where it was;
    # every update edits its region in place, so the kept members, lists,
    # matrices and union rows must stay equal to fresh builds throughout
    g = generate_grid(16, 16, max_weight=9, seed=29)
    dyn = DynamicOracle(g, r=16)
    members = [reg.member for reg in dyn.regions]
    rng = random.Random("long-dynamic-grid-mix")
    current = list(range(g.m))  # public id of each generated arc
    ops = 0
    while ops < 1500:
        draws = ["query"] * 12 + ["weight"] * 4 + ["delete"] * 2
        rng.shuffle(draws)
        for draw in draws:
            if draw == "query":
                u, v = rng.randrange(g.n), rng.randrange(g.n)
                assert dyn.distance(u, v) == fresh_distance(dyn, u, v), (ops, u, v)
            elif draw == "weight":
                dyn.set_weight(current[rng.randrange(g.m)], rng.randint(1, 9))
            else:
                a = rng.randrange(g.m)
                t, h = g.tails[a], g.heads[a]
                dyn.delete_edge(current[a])
                ops += 1
                if ops % 100 == 0:
                    assert_matrices_fresh(dyn)
                    assert_union_current(dyn)
                where = (g.rotation[t].index(a), g.rotation[h].index(a))
                current[a] = dyn.insert_edge(t, h, rng.randint(1, 9), *where)
            ops += 1
            if ops % 100 == 0:
                assert_matrices_fresh(dyn)
                assert_union_current(dyn)
                assert_answers(dyn, rng, 10)
    assert dyn.rebuild_count == 1
    assert [reg.member for reg in dyn.regions] == members
    assert_structure(dyn)


def reaches(dyn, t):
    """Alive vertices with a live path to t."""
    seen, stack = {t}, [t]
    while stack:
        z = stack.pop()
        for a in dyn.rot[z]:
            if dyn.arc_head[a] == z and dyn.arc_tail[a] not in seen:
                seen.add(dyn.arc_tail[a])
                stack.append(dyn.arc_tail[a])
    return seen


def test_query_potential_consistent_on_scanned_union(monkeypatch):
    scans = []
    real = dynamic_oracle.multi_dijkstra

    def spy(union, sources, **kw):
        scans.append((union, kw["target"], kw["potential"]))
        return real(union, sources, **kw)

    monkeypatch.setattr(dynamic_oracle, "multi_dijkstra", spy)
    dyn = DynamicOracle(generate_grid(8, 8, max_weight=9, seed=5), r=16)
    rng = random.Random("dyn-potential")
    for step in range(60):
        arcs = alive_arcs_of(dyn)
        a = rng.choice(arcs)
        roll = rng.random()
        if roll < 0.3:
            dyn.set_weight(a, rng.randrange(0, 20))
        elif roll < 0.6:
            reinsert(dyn, a, rng.randrange(0, 20))
        elif roll < 0.7:
            x = dyn.insert_vertex()
            insert_anywhere(dyn, interior_vertex(dyn), x, rng.randrange(9))
        alive = alive_vertices_of(dyn)
        u, v = rng.sample(alive, 2)
        snap, vmap, _ = dyn.export_graph()
        idx = {p: i for i, p in enumerate(vmap)}
        assert dyn.distance(u, v) == distance_avoiding(snap, idx[u], idx[v]), (step, u, v)
        union, t, pi = scans[-1]
        assert t == v and pi(v) == 0
        for y, z, w in union_arcs(union.members):
            assert pi(y) <= w + pi(z), (step, y, z, w)
        can = reaches(dyn, v)
        for y in union.vertices:
            if pi(y) >= MATRIX_SENTINEL:
                assert y not in can, (step, y, v)


def assert_all_pairs(dyn, among):
    snap, vmap, _ = dyn.export_graph()
    idx = {p: i for i, p in enumerate(vmap)}
    for u in among:
        for v in vmap:
            assert dyn.distance(u, v) == distance_avoiding(snap, idx[u], idx[v]), (u, v)
            assert dyn.distance(v, u) == distance_avoiding(snap, idx[v], idx[u]), (v, u)


def test_new_vertex_starts_without_labels():
    dyn = DynamicOracle(generate_grid(6, 6, max_weight=7, seed=8), r=16)
    dyn.distance(0, 35)
    w = dyn.insert_vertex()
    assert dyn._to[w] == dyn._frm[w] == [_FAR] * len(dyn._far_row)
    hub = interior_vertex(dyn)
    insert_anywhere(dyn, hub, w, 3)
    insert_anywhere(dyn, w, hub, 2)
    assert dyn.distance(hub, w) == 3 and dyn.distance(w, hub) == 2
    assert_all_pairs(dyn, [w])


def test_new_two_vertex_component():
    dyn = DynamicOracle(generate_grid(6, 6, max_weight=7, seed=8), r=16)
    dyn.distance(0, 35)
    x, y = dyn.insert_vertex(), dyn.insert_vertex()
    dyn.insert_edge(x, y, 4)
    assert dyn.distance(x, y) == 4
    assert dyn.distance(y, x) == UNREACHABLE
    assert dyn.distance(0, x) == dyn.distance(x, 0) == UNREACHABLE
    assert_all_pairs(dyn, [x, y])


def test_one_vertex_division_reads_its_one_landmark():
    # fewer landmarks than the potential reads: the best one repeats
    dyn = DynamicOracle(EmbeddedPlanarGraph(1, [], [[]]), r=3)
    assert len(dyn._far_row) == 1 < ACTIVE_LANDMARKS
    x = dyn.insert_vertex()
    dyn.insert_edge(0, x, 5)
    assert dyn.distance(0, x) == 5 and dyn.distance(x, 0) == UNREACHABLE
    dyn.insert_edge(x, 0, 2)
    assert dyn.distance(0, x) == 5 and dyn.distance(x, 0) == 2
    assert len(dyn._far_row) == 1
