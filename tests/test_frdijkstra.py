"""Union Dijkstra over dense and sparse members, against an explicit-arc
reference."""

import random

import pytest

from planar_oracle.baseline import sssp
from planar_oracle.ddg import LocalMember
from planar_oracle.decomposition import build_decomposition
from planar_oracle.failure_oracle import FailureOracle
from planar_oracle.frdijkstra import DdgUnion, SparseMember, multi_dijkstra
from planar_oracle.graph import MATRIX_SENTINEL, UNREACHABLE

from conftest import (
    dense,
    explicit_dijkstra,
    random_members,
    raw_arcs,
    rows_by_slot,
    union_vertex_ids,
)


def test_single_member_by_hand():
    m = dense([0, 1, 2], {(0, 1): 2, (1, 2): 3, (0, 2): 7})
    res = multi_dijkstra([m], [(0, 0)])
    assert res.label(0) == 0
    assert res.label(1) == 2
    assert res.label(2) == 5  # through 1, beating the direct entry


def test_two_members_chain():
    a = dense([0, 1], {(0, 1): 4})
    b = dense([1, 2], {(1, 2): 1})
    res = multi_dijkstra([a, b], [(0, 0)])
    assert res.label(2) == 5
    # no way back
    assert multi_dijkstra([a, b], [(2, 0)]).label(0) == UNREACHABLE


def test_strategies_agree_on_random_unions():
    # the union scan agrees with Dijkstra over the members' literal arcs on
    # random dense unions whose source starts at a nonzero offset
    rng = random.Random(17)
    for _ in range(25):
        members = random_members(rng)
        union_ids = sorted({v for m in members for v in m.nodes})
        src = [(rng.choice(union_ids), rng.randrange(0, 5))]
        forb = rng.sample(union_ids, rng.randrange(0, 3))
        want = explicit_dijkstra(members, src, forb)
        got = multi_dijkstra(members, src, forbidden=forb)
        for v in union_ids:
            w = want[v]
            assert got.raw(v) == w or (
                w >= MATRIX_SENTINEL and got.raw(v) >= MATRIX_SENTINEL
            ), v


def test_matches_explicit_union_graph():
    rng = random.Random(23)
    for _ in range(25):
        members = random_members(rng)
        if rng.random() < 0.5:
            ids = sorted({v for m in members for v in m.nodes})
            extra = [
                (rng.choice(ids), rng.choice(ids), rng.randrange(0, 20))
                for _ in range(4)
            ]
            extra = [(t, h, w) for t, h, w in extra if t != h]
            members.append(SparseMember(tuple(ids), extra))
        union_ids = sorted({v for m in members for v in m.nodes})
        src = [(rng.choice(union_ids), 0)]
        forb = rng.sample(union_ids, rng.randrange(0, 3))
        want = explicit_dijkstra(members, src, forb)
        got = multi_dijkstra(members, src, forbidden=forb)
        for v in union_ids:
            w = want[v]
            assert got.raw(v) == w or (
                w >= MATRIX_SENTINEL and got.raw(v) >= MATRIX_SENTINEL
            ), v


def test_target_stop_keeps_exact_label():
    rng = random.Random(59)
    stopped_early = 0
    for i in range(20):
        members = random_members(rng)
        ids = sorted({v for m in members for v in m.nodes})
        if i % 2:
            extra = [
                (rng.choice(ids), rng.choice(ids), rng.randrange(0, 20))
                for _ in range(4)
            ]
            members.append(SparseMember(tuple(ids), [a for a in extra if a[0] != a[1]]))
        src = [(v, rng.randrange(0, 5)) for v in rng.sample(ids, 2)]
        forb = rng.sample(ids, rng.randrange(0, 3))
        full = multi_dijkstra(members, src, forbidden=forb)
        for t in ids:
            got = multi_dijkstra(members, src, forbidden=forb, target=t)
            assert got.raw(t) == full.raw(t), (i, t)
            assert got.settled <= full.settled
            stopped_early += got.settled < full.settled
    assert stopped_early > 0
    m = dense([0, 1, 2], {(0, 1): 1, (1, 2): 1, (0, 2): 9})
    # a target outside the union is unreachable
    assert multi_dijkstra([m], [(0, 0)], target=7).label(7) == UNREACHABLE
    # a forbidden target is still reached, with its exact label
    walled = multi_dijkstra([m], [(0, 0)], forbidden=[1], target=1)
    assert walled.label(1) == 1
    assert walled.settled == 2


def test_potential_needs_a_target():
    m = dense([0, 1], {(0, 1): 1})
    with pytest.raises(ValueError):
        multi_dijkstra([m], [(0, 0)], potential=lambda y: 0)


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_potential_evaluated_once_and_dead_ends_never_pushed(kind):
    # 2 cannot reach the target 3, and π says so; π is the exact distance
    # to 3 elsewhere, so the scan settles only the shortest path 0-4-1-3,
    # and 1 is pushed twice (from 0, then from 4) with π read once
    arcs = {(0, 1): 5, (0, 4): 1, (4, 1): 1, (1, 3): 1, (0, 2): 1, (2, 1): 0}
    if kind == "dense":
        m = dense([0, 1, 2, 3, 4], arcs)
    else:
        m = SparseMember((0, 1, 2, 3, 4), [(t, h, w) for (t, h), w in arcs.items()])
    pi = {0: 3, 1: 1, 2: MATRIX_SENTINEL, 3: 0, 4: 2}
    calls = []

    def potential(y):
        calls.append(y)
        return pi[y]

    res = multi_dijkstra([m], [(0, 0)], target=3, potential=potential)
    assert res.label(3) == 3
    assert sorted(calls) == [0, 1, 2, 3, 4]
    assert res.raw(2) == MATRIX_SENTINEL
    assert res.settled == 4
    # from a source that cannot reach the target, nothing is scanned
    stuck = multi_dijkstra([m], [(2, 0)], target=3, potential=pi.__getitem__)
    assert stuck.label(3) == UNREACHABLE
    assert stuck.settled == 0


def _arcs(members):
    """(tail, head, weight) of every finite off-diagonal member entry."""
    arcs = []
    for m in members:
        if isinstance(m, SparseMember):
            arcs.extend(raw_arcs(m))
            continue
        k = len(m.nodes)
        for i in range(k):
            for j in range(k):
                w = m.matrix[i * k + j]
                if i != j and w < MATRIX_SENTINEL:
                    arcs.append((m.nodes[i], m.nodes[j], w))
    return arcs


@pytest.mark.parametrize("with_potential", [False, True])
def test_exit_cost_matches_explicit_exit_arcs(with_potential):
    # exits act as arcs y -> t: the target's label equals an explicit
    # Dijkstra over the members plus those arcs, for targets inside and
    # outside the union and with failed vertices
    rng = random.Random(61)
    via_exit = 0
    for i in range(60):
        members = random_members(rng)
        ids = sorted({v for m in members for v in m.nodes})
        t = rng.choice(ids) if i % 3 else 12 + rng.randrange(3)
        cost = {y: rng.randrange(0, 40) for y in rng.sample(ids, rng.randrange(0, 6)) if y != t}
        src = [(rng.choice(ids), rng.randrange(0, 5))]
        forb = rng.sample(ids, rng.randrange(0, 3))
        exits = SparseMember(tuple(sorted(set(ids) | {t})), [(y, t, c) for y, c in cost.items()])
        want = explicit_dijkstra(members + [exits], src, forb)[t]
        potential = None
        if with_potential:
            # exact failure-free distances to t: consistent on every arc
            back = SparseMember(exits.nodes, [(h, y, w) for y, h, w in _arcs(members + [exits])])
            to_t = explicit_dijkstra([back], [(t, 0)])
            potential = to_t.__getitem__
        got = multi_dijkstra(
            members,
            src,
            forbidden=forb,
            target=t,
            potential=potential,
            exit_cost=lambda y: cost.get(y, MATRIX_SENTINEL),
        ).raw(t)
        assert got == want or (got >= MATRIX_SENTINEL and want >= MATRIX_SENTINEL), i
        no_exit = multi_dijkstra(members, src, forbidden=forb, target=t).raw(t)
        via_exit += got < no_exit
    assert via_exit > 5


def test_exit_cost_needs_a_target():
    m = dense([0, 1], {(0, 1): 1})
    with pytest.raises(ValueError):
        multi_dijkstra([m], [(0, 0)], exit_cost=lambda y: 0)
    with pytest.raises(ValueError):
        multi_dijkstra([m], [(0, 0)], target=-1, exit_cost=lambda y: 0)


def test_blocked_vertex_exit_never_used():
    # 1 is failed: it settles but neither its arc to 2 nor its exit is used
    m = dense([0, 1, 2], {(0, 1): 1, (1, 2): 1, (0, 2): 9})
    calls = []

    def exit_cost(y):
        calls.append(y)
        return 0 if y == 1 else MATRIX_SENTINEL

    res = multi_dijkstra([m], [(0, 0)], forbidden=[1], target=2, exit_cost=exit_cost)
    assert res.label(2) == 9
    assert calls == [0]
    free = multi_dijkstra([m], [(0, 0)], target=2, exit_cost=exit_cost)
    assert free.label(2) == 1


def test_target_outside_union_labelled_through_exit():
    m = dense([0, 1], {(0, 1): 2})
    exits = {1: 3}
    res = multi_dijkstra(
        [m], [(0, 0)], target=5, exit_cost=lambda y: exits.get(y, MATRIX_SENTINEL)
    )
    assert res.label(5) == 5
    assert res.settled == 3
    # without an exit it stays unreachable
    none = multi_dijkstra([m], [(0, 0)], target=5, exit_cost=lambda y: MATRIX_SENTINEL)
    assert none.label(5) == UNREACHABLE


def test_exit_cost_called_once_per_settled_vertex():
    rng = random.Random(67)
    for _ in range(30):
        members = random_members(rng, n_ids=20, n_members=6)
        ids = sorted({v for m in members for v in m.nodes})
        t = rng.choice(ids)
        forb = set(rng.sample(ids, 2))
        calls = []

        def exit_cost(y):
            calls.append(y)
            return rng.randrange(0, 60) if rng.random() < 0.3 else MATRIX_SENTINEL

        src = rng.choice(ids)
        res = multi_dijkstra(members, [(src, 0)], forbidden=forb, target=t, exit_cost=exit_cost)
        assert len(calls) == len(set(calls)) <= res.settled
        assert t not in calls
        assert not (set(calls) & (forb - {src}))


def test_multi_source():
    m = dense([0, 1, 2], {(0, 2): 10, (1, 2): 1})
    res = multi_dijkstra([m], [(0, 0), (1, 3)])
    assert res.label(2) == 4


def test_forbidden_blocks_through_traffic():
    m = dense([0, 1, 2], {(0, 1): 1, (1, 2): 1, (0, 2): 9})
    free = multi_dijkstra([m], [(0, 0)])
    assert free.label(2) == 2
    walled = multi_dijkstra([m], [(0, 0)], forbidden=[1])
    assert walled.label(2) == 9
    # the forbidden vertex is still reached, just never left
    assert walled.label(1) == 1


def test_source_overrides_forbidden():
    m = dense([0, 1], {(0, 1): 2})
    res = multi_dijkstra([m], [(0, 0)], forbidden=[0])
    assert res.label(1) == 2


def cone_members(g, u):
    """Home leaf of u (with u as a node) plus every root-path sibling."""
    return FailureOracle(g, leaf_size=8, r_base=4).assemble(u, u).members


def test_forbidden_monotone(grid8):
    members = cone_members(grid8, 0)
    base = multi_dijkstra(members, [(0, 0)])
    walled = multi_dijkstra(members, [(0, 0)], forbidden=[9, 18])
    for v in union_vertex_ids(base.union):
        assert walled.label(v) >= base.label(v)


def test_cone_equals_global_sssp(grid8, tri60):
    for g in (grid8, tri60):
        for u in (0, g.n // 3, g.n - 1):
            ref = sssp(g, u)
            members = cone_members(g, u)
            res = multi_dijkstra(members, [(u, 0)])
            for v in union_vertex_ids(res.union):
                assert res.label(v) == ref[v], (u, v)


def test_cone_structure(grid8):
    tree = build_decomposition(grid8, leaf_size=8, r_base=4)
    members = cone_members(grid8, 5)
    # last member is the home leaf, holding the vertex as a node
    assert 5 in members[-1].nodes
    # one member per root-path sibling
    leaf = tree.leaf_of[5]
    assert len(members) == 1 + len(tree.cover([leaf]))


def test_error_cases():
    m = dense([0, 1], {(0, 1): 1})
    with pytest.raises(ValueError):
        multi_dijkstra([m], [(7, 0)])
    with pytest.raises(ValueError):
        multi_dijkstra([m], [(0, -1)])
    with pytest.raises(ValueError):
        dense([0, 1], {(0, 1): -3})
    with pytest.raises(ValueError):
        DdgUnion([SparseMember((0, 1), [(0, 1, -2)])])
    # raw arcs in the strict kernel's lists are checked as a SparseMember's
    with pytest.raises(ValueError):
        LocalMember((0, 1), [(0, 1, -5)], (0, 1))
    with pytest.raises(ValueError):
        LocalMember((0, 1), [(0, 7, 5)], (0, 1))


def test_counters_and_metadata():
    rng = random.Random(31)
    members = random_members(rng)
    res = multi_dijkstra(members, [(members[0].nodes[0], 0)])
    assert 0 < res.settled <= len(union_vertex_ids(res.union))
    assert res.relaxations >= 0
    assert res.union_vertices == sum(len(m.nodes) for m in members)
    for v in union_vertex_ids(res.union):
        assert res.raw(v) == res.dist[v]
    # absent vertex
    assert res.raw(999) == MATRIX_SENTINEL
    assert res.label(999) == UNREACHABLE


def test_relaxations_count_every_pair_examined():
    # each settled vertex that is relaxed out of examines its whole row in
    # every matrix member, every one of its sparse arcs and its exit, and
    # counts each of them, finite or not
    rng = random.Random(41)
    for trial in range(30):
        matrices = random_members(rng, n_ids=30, n_members=8)
        ids = sorted({v for m in matrices for v in m.nodes})
        arcs = [(rng.choice(ids), rng.choice(ids), rng.randrange(0, 30)) for _ in range(20)]
        union = DdgUnion(matrices + [SparseMember(ids, arcs)])

        def pairs(y):
            row_lengths = sum(len(m.nodes) for m in matrices if y in m.nodes)
            return row_lengths + sum(1 for t, _, _ in arcs if t == y)

        src = rng.choice(ids)
        forb = rng.sample(ids, 3)
        if trial % 2:
            res = multi_dijkstra(union, [(src, 0)], forbidden=forb)
            reached = [y for y in union_vertex_ids(union) if res.raw(y) < MATRIX_SENTINEL]
            relaxed = [y for y in reached if y == src or y not in forb]
            assert res.relaxations == sum(pairs(y) for y in relaxed)
        else:
            # exit_cost is read once for each settled, unblocked vertex
            # other than the target, which is exactly the set relaxed out of
            read = []

            def exit_cost(y):
                read.append(y)
                return rng.choice((rng.randrange(0, 60), MATRIX_SENTINEL))

            target = rng.choice([v for v in ids if v != src])
            res = multi_dijkstra(
                union, [(src, 0)], forbidden=forb, target=target, exit_cost=exit_cost
            )
            assert len(set(read)) == len(read) and target not in read
            assert res.relaxations == sum(pairs(y) + 1 for y in read)


def test_labels_outside_the_union():
    # labels are indexed by vertex id: ids 0..6, with 2 and 5 in no member
    a = dense([0, 1, 3], {(0, 1): 2, (1, 3): 4})
    b = SparseMember((3, 4, 6), [(3, 6, 1), (6, 4, 5)])
    res = multi_dijkstra([a, b], [(0, 0)])
    assert union_vertex_ids(res.union) == (0, 1, 3, 4, 6)
    assert [res.raw(v) for v in union_vertex_ids(res.union)] == [0, 2, 6, 12, 7]
    assert res.raw(6) == 7  # what a bare dist[-1] would read
    for v in (-1, -7, 7, 10**9, 2, 5):
        assert res.raw(v) == MATRIX_SENTINEL, v
        assert res.label(v) == UNREACHABLE, v


def test_forbidden_ids_outside_the_union_are_ignored():
    a = dense([0, 1, 3], {(0, 1): 2, (1, 3): 4})
    free = multi_dijkstra([a], [(0, 0)])
    walled = multi_dijkstra([a], [(0, 0)], forbidden=[-1, 2, 4, 10**9])
    assert [walled.raw(v) for v in range(-1, 5)] == [free.raw(v) for v in range(-1, 5)]
    assert walled.settled == free.settled == 3


def test_source_outside_the_union_raises():
    a = dense([0, 1, 3], {(0, 1): 2})
    for v in (-1, 2, 4, 10**9):
        with pytest.raises(ValueError):
            multi_dijkstra([a], [(v, 0)])


def test_held_result_keeps_its_labels():
    # each run owns its label list, so a later run on the same union leaves
    # an earlier result untouched
    rng = random.Random(43)
    union = DdgUnion(random_members(rng, n_ids=20, n_members=5))
    runs = []
    verts = union_vertex_ids(union)
    for v in verts:
        res = multi_dijkstra(union, [(v, 0)], forbidden=verts[:2])
        runs.append((res, [res.raw(v) for v in verts]))
    for res, labels in runs:
        assert [res.raw(v) for v in verts] == labels
    assert len({tuple(labels) for _, labels in runs}) > 1


def _sparse(rng, ids, count):
    """``count`` seeded raw members over some of ``ids``."""
    members = []
    for _ in range(count):
        nodes = sorted(rng.sample(ids, rng.randrange(1, 6)))
        arcs = [(rng.choice(nodes), rng.choice(nodes), rng.randrange(0, 30)) for _ in range(6)]
        members.append(SparseMember(nodes, arcs))
    return members


def _view_case(rng, n_ids=24):
    """A base union of seeded random matrices and raw members over ids
    that may lie only in dead slots, and some of its slots."""
    members = random_members(rng, n_ids=n_ids, n_members=8)
    members += _sparse(rng, range(n_ids), rng.randrange(0, 3))
    rng.shuffle(members)
    base = DdgUnion(members)
    live = sorted(rng.sample(range(len(base.slots)), rng.randrange(1, 6)))
    return base, live


def _same_run(got, want, ids):
    assert [got.raw(v) for v in ids] == [want.raw(v) for v in ids]
    assert (got.settled, got.relaxations) == (want.settled, want.relaxations)
    assert got.union_vertices == want.union_vertices
    assert union_vertex_ids(got.union) == union_vertex_ids(want.union)


def test_view_matches_a_union_of_its_members():
    # a view scans like a union built afresh from its live members, matrix
    # and raw alike; ids held only by dead slots are not in it
    rng = random.Random(47)
    ids = range(-2, 30)
    dead_only = 0
    for _ in range(60):
        base, live = _view_case(rng)
        view = base.view(live)
        fresh = DdgUnion([base.slots[mi] for mi in live])
        assert view.members == fresh.members
        assert view.union_vertices == fresh.union_vertices
        assert union_vertex_ids(view) == union_vertex_ids(fresh)
        assert [v in view for v in ids] == [v in fresh for v in ids]
        for v in ids:
            if v in base and v not in view:
                dead_only += 1
                with pytest.raises(ValueError):
                    multi_dijkstra(view, [(v, 0)])
        verts = union_vertex_ids(fresh)
        src = rng.choice(verts)
        forb = rng.sample(verts, min(2, len(verts)))
        _same_run(
            multi_dijkstra(view, [(src, 0)], forbidden=forb),
            multi_dijkstra(fresh, [(src, 0)], forbidden=forb),
            ids,
        )
        target = rng.choice(verts)
        _same_run(
            multi_dijkstra(view, [(src, 0)], target=target),
            multi_dijkstra(fresh, [(src, 0)], target=target),
            ids,
        )
    assert dead_only > 0


def test_view_source_in_a_dead_slot_raises():
    a = dense([0, 1], {(0, 1): 2})
    b = dense([1, 2], {(1, 2): 3})
    c = SparseMember((2, 3), [(2, 3, 1)])
    view = DdgUnion([a, b, c]).view([0])
    assert 2 not in view and 3 not in view and 1 in view
    assert multi_dijkstra(view, [(0, 0)]).label(2) == UNREACHABLE
    for v in (2, 3):
        with pytest.raises(ValueError):
            multi_dijkstra(view, [(v, 0)])


def _union_state(union):
    return (
        union.slots,
        bytes(union.live),
        union.members,
        {v: list(rows) for v, rows in union.rows.items()},
        union.size,
        union.union_vertices,
    )


def test_views_leave_each_other_and_the_base_unchanged():
    rng = random.Random(53)
    for _ in range(20):
        base, live = _view_case(rng)
        before = _union_state(base)
        first = base.view(live)
        first_state = _union_state(first)
        verts = union_vertex_ids(first)
        labels = [multi_dijkstra(first, [(v, 0)]).dist for v in verts]
        second = base.view(rng.sample(range(len(base.slots)), rng.randrange(1, 6)))
        multi_dijkstra(second, [(union_vertex_ids(second)[0], 0)])
        assert _union_state(base) == before
        assert _union_state(first) == first_state
        assert second.rows is base.rows and second.slots is base.slots
        assert [multi_dijkstra(first, [(v, 0)]).dist for v in verts] == labels


def test_replace_updates_the_indexed_slot():
    # the new member serves the base and later views
    a = dense([0, 1], {(0, 1): 5})
    b = dense([1, 2], {(1, 2): 3})
    base = DdgUnion([a, b])
    cheaper = dense([0, 1], {(0, 1): 1})
    base.replace(0, cheaper)
    assert base.slots == base.members == (cheaper, b)
    new_view = base.view([0])
    assert new_view.members == (cheaper,)
    assert multi_dijkstra(base, [(0, 0)]).label(2) == 4
    assert multi_dijkstra(new_view, [(0, 0)]).label(1) == 1
    # a new node list, a raw member and a new slot re-index as well
    base.replace(1, SparseMember((1, 3), [(1, 3, 2)]))
    assert 2 not in base and multi_dijkstra(base, [(0, 0)]).label(3) == 3
    base.replace(2, dense([3, 4], {(3, 4): 6}))
    assert bytes(base.live) == b"\x01\x01\x01" and base.size == 5
    assert multi_dijkstra(base, [(0, 0)]).label(4) == 9
    for mi in (-1, 4):
        with pytest.raises(IndexError):
            base.replace(mi, a)


def test_replace_rejects_a_negative_matrix():
    # a negative matrix is refused when it is made, so no replace, in an
    # existing slot or a new one, can put one in; the union is left as it was
    base = DdgUnion([dense([0, 1], {(0, 1): 5}), SparseMember((1, 2), [(1, 2, 3)])])
    before = _union_state(base)
    for mi in (0, 1, 2):
        with pytest.raises(ValueError):
            base.replace(mi, dense([0, 2], {(0, 2): -1}))
        assert _union_state(base) == before


def test_replace_matches_a_fresh_index():
    # any sequence of swaps, matrix or raw, on any node lists, and of new
    # slots leaves the rows a union built afresh from the slots would have
    rng = random.Random(59)
    ids = range(-2, 32)
    for _ in range(20):
        base, _ = _view_case(rng)
        for _ in range(8):
            mi = rng.randrange(len(base.slots) + 1)
            if rng.random() < 0.5:
                (m,) = random_members(rng, n_ids=28, n_members=1)
            else:
                (m,) = _sparse(rng, range(28), 1)
            base.replace(mi, m)
            fresh = DdgUnion(base.slots)
            assert base.members == fresh.members
            assert rows_by_slot(base) == rows_by_slot(fresh)
            assert base.union_vertices == fresh.union_vertices
            assert union_vertex_ids(base) == union_vertex_ids(fresh)
            src = rng.choice(union_vertex_ids(fresh))
            _same_run(
                multi_dijkstra(base, [(src, 0)]), multi_dijkstra(fresh, [(src, 0)]), ids
            )
