"""Acceptance sweep: one test per shipped guarantee, one verdict line each.

Every test prints ``criterion N: PASS/FAIL (...)`` on the live terminal so
a quiet pytest run doubles as a release checklist.  Reference values are
recomputed from scratch here with plain Dijkstra variants, fresh rebuilds,
and byte comparisons; nothing is trusted from the structures under test.
"""

import hashlib
import heapq
import itertools
import math
import random
import time

import pytest

from planar_oracle.baseline import distance_avoiding, sssp
from planar_oracle.ddg import DdgStore, strict_matrix
from planar_oracle.decomposition import build_decomposition
from planar_oracle.dynamic_oracle import DynamicOracle
from planar_oracle.external import ExternalDdgBuilder
from planar_oracle.failure_oracle import FailureOracle
from planar_oracle.frdijkstra import SparseMember, multi_dijkstra
from planar_oracle.generate import generate_grid, generate_random_triangulation
from planar_oracle.graph import MATRIX_SENTINEL, UNREACHABLE, EmbeddingError
from planar_oracle.oraclefile import save_oracle
from planar_oracle.tradeoff_oracle import TradeoffOracle

from conftest import compute_ddg, explicit_dijkstra, minplus_closure


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _loglog_slope(xs, ys):
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return num / sum((a - mx) ** 2 for a in lx)


def _avoiding_rows(adj, n, banned, src):
    """Distances from src with the banned vertices removed, all targets."""
    dist = [MATRIX_SENTINEL] * n
    if src in banned:
        return dist
    dist[src] = 0
    heap = [(0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for h, w in adj[u]:
            if h in banned:
                continue
            if d + w < dist[h]:
                dist[h] = d + w
                heapq.heappush(heap, (d + w, h))
    return dist


def _adjacency(g):
    adj = [[] for _ in range(g.n)]
    for t, h, w in g.arcs:
        adj[t].append((h, w))
    return adj


_SUITE1 = (
    ("grid16", lambda: generate_grid(16, 16, max_weight=13, seed=2), 8),
    ("grid32", lambda: generate_grid(32, 32, max_weight=15, seed=3), 16),
    ("tri2000", lambda: generate_random_triangulation(2000, max_weight=12, seed=9), 32),
)


@pytest.fixture(scope="module")
def suite1():
    """Failure oracles shared by criteria 1, 7 and 8, with build seconds."""
    out = []
    for name, make, leaf in _SUITE1:
        g = make()
        t0 = time.monotonic()
        fo = FailureOracle(g, leaf_size=leaf, r_base=4)
        out.append((name, g, fo, leaf, time.monotonic() - t0))
    return out


def _suite1_queries(name, n):
    rng = random.Random(f"accept1:{name}")
    queries = []
    for i in range(500):
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        failed = set()
        while len(failed) < i % 5:
            c = rng.randrange(n)
            if c != u and c != v:
                failed.add(c)
        queries.append((u, v, frozenset(failed)))
    return queries


@pytest.fixture(scope="module")
def trade_small():
    g = generate_grid(8, 8, max_weight=9, seed=1)
    t0 = time.monotonic()
    oracle = TradeoffOracle(g, r=8, k=1, leaf_size=4, r_base=2)
    return g, oracle, time.monotonic() - t0


@pytest.fixture(scope="module")
def trade_wide():
    g = generate_grid(16, 16, max_weight=13, seed=2)
    t0 = time.monotonic()
    oracle = TradeoffOracle(g, r=64, k=2, leaf_size=16, r_base=2)
    return g, oracle, time.monotonic() - t0


def test_criterion_1_failure_oracle_exactness(suite1, capsys):
    t0 = time.monotonic()
    checked = bad = 0
    for name, g, fo, _leaf, _secs in suite1:
        for u, v, failed in _suite1_queries(name, g.n):
            want = distance_avoiding(g, u, v, failed)
            got = fo.distance(u, v, failed)
            checked += 1
            bad += got != want
    elapsed = time.monotonic() - t0 + sum(row[-1] for row in suite1)
    ok = bad == 0 and elapsed < 120.0
    _report(
        capsys, 1, ok, f"{checked} queries, {bad} mismatches, {elapsed:.1f}s / 120s"
    )


def test_criterion_2_tradeoff_oracle_exactness(trade_small, trade_wide, capsys):
    t0 = time.monotonic()
    g8, small, small_secs = trade_small
    home = small._home
    adj8 = _adjacency(g8)
    rows = {}
    checked = exhaustive = bad = spot_bad = 0
    for u, v, x in itertools.permutations(range(g8.n), 3):
        if len({home[u], home[v], home[x]}) != 3:
            continue
        key = (u, x)
        if key not in rows:
            rows[key] = _avoiding_rows(adj8, g8.n, (x,), u)
        want = rows[key][v]
        if want >= MATRIX_SENTINEL:
            want = UNREACHABLE
        got = small.distance(u, v, (x,))
        checked += 1
        exhaustive += 1
        bad += got != want
        if exhaustive % 9973 == 0:
            # tie the batched reference rows back to the one-shot baseline
            spot_bad += want != distance_avoiding(g8, u, v, (x,))

    g16, wide, wide_secs = trade_wide
    rng = random.Random("accept2:grid16")
    for _ in range(200):
        u = rng.randrange(g16.n)
        v = rng.randrange(g16.n)
        while v == u:
            v = rng.randrange(g16.n)
        failed = set()
        while len(failed) < 2:
            c = rng.randrange(g16.n)
            if c not in (u, v):
                failed.add(c)
        want = distance_avoiding(g16, u, v, failed)
        got = wide.distance(u, v, failed)
        checked += 1
        bad += got != want

    elapsed = time.monotonic() - t0 + small_secs + wide_secs
    ok = bad == 0 and spot_bad == 0 and elapsed < 300.0
    _report(
        capsys,
        2,
        ok,
        f"{checked} queries ({exhaustive} exhaustive), {bad} mismatches, "
        f"{elapsed:.1f}s / 300s",
    )


def test_criterion_3_closure_identity_per_piece(zoo, capsys):
    t0 = time.monotonic()
    pieces = bad = 0
    for _name, g in sorted(zoo.items()):
        leaf = 8 if g.n > 100 else 6
        tree = build_decomposition(g, leaf_size=leaf, r_base=4)
        store = DdgStore(g, tree)
        for p in tree.pieces:
            base = store.strict(p.id)
            # every piece's matrix, a leaf's from its arcs and an internal
            # piece's from its children's, is the strict matrix over its
            # sorted boundary and its own arcs, byte for byte
            nodes = tuple(sorted(p.boundary))
            own = SparseMember(p.vertices, [g.arcs[a] for a in p.arcs])
            assert base.nodes == nodes
            assert base.matrix.tobytes() == strict_matrix([own], nodes).tobytes()
            bad += minplus_closure(base).matrix != compute_ddg(g, p).matrix
            pieces += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 60.0
    _report(
        capsys,
        3,
        ok,
        f"{pieces} pieces over {len(zoo)} graphs, {bad} mismatches, "
        f"{elapsed:.1f}s / 60s",
    )


def _strict_avoiding_rows(g, banned_arcs, bset, src):
    """Distances from src in g minus the banned arcs, where no path may pass
    through another bset vertex: those vertices keep their labels but their
    out-arcs are never relaxed."""
    dist = [MATRIX_SENTINEL] * g.n
    dist[src] = 0
    heap = [(0, src)]
    adj = [[] for _ in range(g.n)]
    for a, (t, h, w) in enumerate(g.arcs):
        if a not in banned_arcs:
            adj[t].append((h, w))
    sealed = set(bset)
    sealed.discard(src)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u in sealed:
            continue
        for h, w in adj[u]:
            if d + w < dist[h]:
                dist[h] = d + w
                heapq.heappush(heap, (d + w, h))
    return dist


def _exit_family(tree, ids):
    """Siblings of every node on the tuple pieces' root paths that hold no
    tuple piece."""
    fam = set()
    for pid in ids:
        node = pid
        while tree.pieces[node].parent is not None:
            a, b = tree.pieces[tree.pieces[node].parent].children
            fam.add(b if node == a else a)
            node = tree.pieces[node].parent
    return tuple(sorted(q for q in fam if not any(tree.is_ancestor(q, pid) for pid in ids)))


def test_criterion_4_external_tables_match_direct_computation(zoo, capsys):
    t0 = time.monotonic()
    graphs = tuples = entries = bad = vor_entries = vor_bad = 0
    for _name, g in sorted(zoo.items()):
        if g.n > 400:
            continue
        graphs += 1
        leaf = 8 if g.n > 100 else 6
        tree = build_decomposition(g, leaf_size=leaf, r_base=4)
        if not tree.r_sequence:
            continue
        builder = ExternalDdgBuilder(tree, DdgStore(g, tree))
        r = tree.r_sequence[0]
        rdiv = tree.r_division(r)
        for size in (1, 2, 3):
            for ids in itertools.combinations(rdiv, size):
                exits = _exit_family(tree, ids)
                ext, vor = builder.ext(ids, exits)
                banned = set()
                for pid in ids:
                    banned.update(tree.pieces[pid].arcs)
                bset = ext.nodes
                width = len(bset)
                vor_bad += len(vor) != width * len(exits)
                for i, src in enumerate(bset):
                    ref = _strict_avoiding_rows(g, banned, bset, src)
                    for j, dst in enumerate(bset):
                        raw = ext.matrix[i * width + j]
                        want = ref[dst]
                        entries += 1
                        if raw >= MATRIX_SENTINEL:
                            bad += want < MATRIX_SENTINEL
                        else:
                            bad += raw != want
                    for q in exits:
                        row = vor.get((ids, q, src))
                        qb = tree.pieces[q].boundary
                        if row is None or len(row) != len(qb):
                            vor_bad += 1
                            continue
                        for raw, dst in zip(row, qb):
                            want = ref[dst]
                            vor_entries += 1
                            if raw >= MATRIX_SENTINEL:
                                vor_bad += want < MATRIX_SENTINEL
                            else:
                                vor_bad += raw != want
                tuples += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and vor_bad == 0 and elapsed < 300.0
    _report(
        capsys,
        4,
        ok,
        f"{tuples} tuples / {entries} entries over {graphs} graphs, "
        f"{bad} bad entries; {vor_entries} vor entries, {vor_bad} bad; "
        f"{elapsed:.1f}s / 300s",
    )


def test_criterion_5_dynamic_matches_fresh_rebuild(capsys):
    t0 = time.monotonic()
    queries = bad = 0
    kinds_missing = []
    for seed in range(5):
        g = generate_grid(12, 12, max_weight=9, seed=seed)
        dyn = DynamicOracle(g, r=16)
        rng = random.Random(f"accept5:{seed}")
        seen = set()
        fresh = pend = None
        for step in range(50):
            # scripted opening covers all five kinds, then random mixing
            if step == 0:
                alive = [a for a in range(len(dyn.arc_alive)) if dyn.arc_alive[a]]
                dyn.set_weight(alive[0], 5)
                seen.add("set_weight")
            elif step == 1:
                fresh = dyn.insert_vertex()
                seen.add("insert_vertex")
            elif step == 2:
                pend = dyn.insert_edge(0, fresh, 3)
                seen.add("insert_edge")
            elif step == 3:
                dyn.delete_edge(pend)
                seen.add("delete_edge")
            elif step == 4:
                dyn.delete_vertex(fresh)
                seen.add("delete_vertex")
            else:
                kind = rng.choice(["w", "w", "de", "iv", "dv", "ie"])
                try:
                    if kind == "w":
                        alive = [
                            a for a in range(len(dyn.arc_alive)) if dyn.arc_alive[a]
                        ]
                        dyn.set_weight(rng.choice(alive), rng.randrange(0, 12))
                        seen.add("set_weight")
                    elif kind == "de":
                        alive = [
                            a for a in range(len(dyn.arc_alive)) if dyn.arc_alive[a]
                        ]
                        dyn.delete_edge(rng.choice(alive))
                        seen.add("delete_edge")
                    elif kind == "iv":
                        dyn.insert_vertex()
                        seen.add("insert_vertex")
                    elif kind == "dv":
                        alive_v = [
                            v for v in range(len(dyn.v_alive)) if dyn.v_alive[v]
                        ]
                        dyn.delete_vertex(rng.choice(alive_v))
                        seen.add("delete_vertex")
                    else:
                        alive_v = [
                            v for v in range(len(dyn.v_alive)) if dyn.v_alive[v]
                        ]
                        t, h = rng.sample(alive_v, 2)
                        dyn.insert_edge(
                            t,
                            h,
                            rng.randrange(0, 9),
                            tail_pos=rng.randrange(len(dyn.rot[t]) + 1),
                            head_pos=rng.randrange(len(dyn.rot[h]) + 1),
                        )
                        seen.add("insert_edge")
                except (ValueError, EmbeddingError):
                    pass
            snap, vmap, _ = dyn.export_graph()
            idx = {p: i for i, p in enumerate(vmap)}
            alive_v = [v for v in range(len(dyn.v_alive)) if dyn.v_alive[v]]
            for _ in range(20):
                a = rng.choice(alive_v)
                b = rng.choice(alive_v)
                want = sssp(snap, idx[a])[idx[b]]
                got = dyn.distance(a, b)
                queries += 1
                bad += got != want
        if len(seen) != 5:
            kinds_missing.append(seed)
    elapsed = time.monotonic() - t0
    ok = bad == 0 and not kinds_missing and elapsed < 180.0
    _report(
        capsys,
        5,
        ok,
        f"5 seeds x 50 ops, {queries} queries, {bad} mismatches, "
        f"{elapsed:.1f}s / 180s",
    )


def test_criterion_6_structural_scaling(tmp_path, capsys):
    t0 = time.monotonic()
    sides = (16, 32, 64, 128)

    # (a) total boundary mass per vertex stays bounded as the graph grows
    mass = []
    for side in sides:
        g = generate_grid(side, side, max_weight=9, seed=0)
        tree = build_decomposition(g, leaf_size=32, r_base=4)
        mass.append(sum(len(p.boundary) for p in tree.pieces) / g.n)
    a_ok = max(mass) <= 4.0

    # (b) mean queried-union size scales like sqrt(n) at a fixed failure count
    multi_means = []
    distinct_means = []
    for side in sides:
        n = side * side
        g = generate_grid(side, side, max_weight=9, seed=0)
        fo = FailureOracle(g, leaf_size=8, r_base=4)
        rng = random.Random(f"scaling:{n}")
        multi = distinct = 0
        for _ in range(60):
            u = rng.randrange(n)
            v = rng.randrange(n)
            while v == u:
                v = rng.randrange(n)
            failed = set()
            while len(failed) < 2:
                c = rng.randrange(n)
                if c not in (u, v):
                    failed.add(c)
            res = fo.query_result(u, v, failed)
            multi += res.union_vertices
            distinct += len(res.vertices)
        multi_means.append(multi / 60)
        distinct_means.append(distinct / 60)
    ns = [s * s for s in sides]
    slope_multi = _loglog_slope(ns, multi_means)
    slope_distinct = _loglog_slope(ns, distinct_means)
    b_ok = 0.4 <= slope_multi <= 0.6 and 0.4 <= slope_distinct <= 0.6

    # (c) stored bytes track the pieces-choose-tuples table count as n grows
    # at fixed r: the bytes/model ratio must stay within a 4x band
    ratios = []
    for side in (16, 24, 32):
        g = generate_grid(side, side, max_weight=9, seed=0)
        oracle = TradeoffOracle(g, r=64, k=1, leaf_size=16, r_base=4)
        path = tmp_path / f"trade{side}.bin"
        save_oracle(oracle, str(path))
        model = math.comb(len(oracle.rdiv), 2) * 1 * math.sqrt(64)
        ratios.append(path.stat().st_size / model)
    c_ok = max(ratios) / min(ratios) <= 4.0

    elapsed = time.monotonic() - t0
    ok = a_ok and b_ok and c_ok and elapsed < 600.0
    _report(
        capsys,
        6,
        ok,
        f"a: max mass {max(mass):.2f} <= 4; "
        f"b: slopes {slope_multi:.2f}/{slope_distinct:.2f} in [0.4,0.6]; "
        f"c: byte-ratio spread {max(ratios) / min(ratios):.2f} <= 4; "
        f"{elapsed:.1f}s / 600s",
    )


def test_criterion_7_union_scan_matches_explicit_arcs(suite1, capsys):
    t0 = time.monotonic()
    compared = bad = 0
    for name, g, fo, _leaf, _secs in suite1:
        for u, v, failed in _suite1_queries(name, g.n):
            union = fo.assemble(u, v, failed)
            res = multi_dijkstra(union, [(u, 0)], forbidden=failed)
            want = explicit_dijkstra(union.members, [(u, 0)], failed)
            same = res.vertices == tuple(sorted(want)) and all(
                res.raw(w) == want[w] for w in res.vertices
            )
            compared += 1
            bad += not same
    elapsed = time.monotonic() - t0
    _report(
        capsys,
        7,
        bad == 0,
        f"{compared} full label maps compared with an explicit-arc Dijkstra, "
        f"{bad} diverging, {elapsed:.1f}s",
    )


def test_criterion_8_build_determinism(suite1, trade_small, trade_wide, tmp_path, capsys):
    t0 = time.monotonic()

    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    configs = []
    for name, g, fo, leaf, _secs in suite1:
        configs.append(
            (name, fo, lambda g=g, leaf=leaf: FailureOracle(g, leaf_size=leaf, r_base=4))
        )
    g8, small, _ = trade_small
    configs.append(
        ("trade8", small, lambda: TradeoffOracle(g8, r=8, k=1, leaf_size=4, r_base=2))
    )
    g16, wide, _ = trade_wide
    configs.append(
        ("trade16", wide, lambda: TradeoffOracle(g16, r=64, k=2, leaf_size=16, r_base=2))
    )

    diverging = []
    for name, first, rebuild in configs:
        # the first build has served queries by now; bytes must not care
        p1 = tmp_path / f"{name}.a.bin"
        p2 = tmp_path / f"{name}.b.bin"
        save_oracle(first, str(p1))
        save_oracle(rebuild(), str(p2))
        if sha(p1) != sha(p2):
            diverging.append(name)
    elapsed = time.monotonic() - t0
    ok = not diverging
    detail = "all byte-identical" if ok else "diverging: " + ",".join(diverging)
    _report(
        capsys, 8, ok, f"{len(configs)} configurations built twice, {detail}, {elapsed:.1f}s"
    )
