"""Distances under live updates: weights, arcs, vertices, rollback."""

import random

import pytest

from planar_oracle.baseline import sssp
from planar_oracle.dynamic_oracle import DynamicOracle
from planar_oracle.generate import generate_grid
from planar_oracle.graph import UNREACHABLE, EmbeddingError, WeightOverflowError


def fresh_distance(dyn, u, v):
    """Rebuild-from-scratch reference on the exported snapshot."""
    snap, vmap, _ = dyn.export_graph()
    idx = {p: i for i, p in enumerate(vmap)}
    return sssp(snap, idx[u])[idx[v]]


@pytest.fixture
def dyn10():
    return DynamicOracle(generate_grid(10, 10, max_weight=7, seed=4), r=16, r_base=4)


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
    assert dyn10.m_alive == len(alive) - 1
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
    incident_before = dyn10.m_alive
    dyn10.delete_vertex(55)
    assert not dyn10.v_alive[55]
    assert dyn10.m_alive < incident_before
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


def test_rebuild_cadence():
    dyn = DynamicOracle(generate_grid(6, 6, max_weight=5, seed=2), r=16)
    start = dyn.rebuild_count
    alive = [a for a in range(len(dyn.arc_alive)) if dyn.arc_alive[a]]
    for i in range(dyn.rebuild_every):
        dyn.set_weight(alive[i], 3)
    assert dyn.rebuild_count > start


def test_far_update_leaves_other_regions_alone(dyn10):
    # regions not owning the arc keep their exact matrix objects
    arc = next(a for a in range(len(dyn10.arc_alive)) if dyn10.arc_alive[a])
    owner = dyn10.region_of_arc[arc]
    snapshots = {
        ri: reg.ddg for ri, reg in enumerate(dyn10.regions) if ri != owner
    }
    # stay below the rebuild threshold so regions persist
    if dyn10.rebuild_every > 1:
        dyn10.set_weight(arc, dyn10.arc_weight[arc] + 1)
        for ri, ddg in snapshots.items():
            assert dyn10.regions[ri].ddg is ddg


def test_mixed_fuzz_against_fresh_rebuild():
    g = generate_grid(8, 8, max_weight=9, seed=11)
    dyn = DynamicOracle(g, r=16, r_base=4)
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
