"""The union scan's work, pinned query by query.

For 200 seeded queries on each of three small oracles, the tuple
(settled, relaxations, union_vertices, members) of every scan is hashed
and compared with a digest recorded before static leaves and dynamic
regions became slots of their oracle's union.  A fourth pin runs the
dynamic oracle's queries two after each of 100 seeded updates, so each
scans a union the update has just edited in place; its digest was
recorded while updates still indexed a fresh copy of the union's rows.
How members are laid out must not change what a scan settles, relaxes
or joins.  A change that
alters the scan's work on purpose updates the digests and says so in
CHANGES.md.
"""

import hashlib
import random

import pytest

from planar_oracle import dynamic_oracle
from planar_oracle.bench import random_query
from planar_oracle.dynamic_oracle import DynamicOracle
from planar_oracle.failure_oracle import FailureOracle
from planar_oracle.generate import generate_grid
from planar_oracle.tradeoff_oracle import TradeoffOracle

QUERIES = 200

# name -> (sha256 of repr of the per-query counter tuples, their column sums)
PINNED = {
    "failure": (
        "3e8259c0ab8d977e722042f5cebd112121b71535a48013ab8802653daae7fe46",
        (1500, 15517, 14786, 2090),
    ),
    "tradeoff": (
        "ef09544b6d6727da099880bee63258e98b44fc0e0c2eabf3c4234e346eea2e9e",
        (1262, 17045, 12783, 1659),
    ),
    "dynamic": (
        "90f3a2c483f384450ac4596d14cc08994a455fb7e09f2fc4d55299a4245548d7",
        (1304, 17424, 17748, 2575),
    ),
    "dynamic-interleaved": (
        "2a5c5cd55a6a7aa4d90257fc70e5306d443ed6538c0ef2036423f4cd0f7f4d5d",
        (1550, 19105, 17383, 2590),
    ),
}


def _counters(res):
    return res.settled, res.relaxations, res.union_vertices, len(res.union.members)


def _static_counters(oracle, failures):
    rng = random.Random("scan-counters")
    return [
        _counters(oracle.query_result(*random_query(rng, oracle.graph.n, failures(qi))))
        for qi in range(QUERIES)
    ]


def _updated_dynamic(updates=50, after=None, drop_vertices=False):
    """An 8x8 dynamic oracle after ``updates`` seeded updates: weight
    changes, arc delete/re-insert pairs, new vertices joined both ways,
    arcs between fresh vertices, which start new regions, and with
    ``drop_vertices`` vertex deletions in place of some of those arcs.
    ``after(dyn)`` runs after each update."""
    dyn = DynamicOracle(generate_grid(8, 8, max_weight=9, seed=1), r=16)
    rng = random.Random("scan-counters-updates")
    for _ in range(updates):
        alive = [a for a in range(len(dyn.arc_alive)) if dyn.arc_alive[a]]
        a = rng.choice(alive)
        roll = rng.random()
        if roll < 0.4:
            dyn.set_weight(a, rng.randrange(0, 20))
        elif roll < 0.8:
            t, h = dyn.arc_tail[a], dyn.arc_head[a]
            where = (dyn.rot[t].index(a), dyn.rot[h].index(a))
            dyn.delete_edge(a)
            dyn.insert_edge(t, h, rng.randrange(0, 20), *where)
        elif roll < 0.9:
            x = dyn.insert_vertex()
            dyn.insert_edge(dyn.arc_tail[a], x, rng.randrange(1, 9))
            dyn.insert_edge(x, dyn.arc_tail[a], rng.randrange(1, 9))
        elif roll < 0.95 or not drop_vertices:
            dyn.insert_edge(dyn.insert_vertex(), dyn.insert_vertex(), rng.randrange(1, 9))
        else:
            dyn.delete_vertex(dyn.arc_tail[a])
        if after is not None:
            after(dyn)
    return dyn


def _spy_scans(monkeypatch):
    """The counters of every scan ``DynamicOracle.distance`` runs from now on."""
    scans = []
    real = dynamic_oracle.multi_dijkstra

    def spy(*args, **kwargs):
        res = real(*args, **kwargs)
        scans.append(_counters(res))
        return res

    monkeypatch.setattr(dynamic_oracle, "multi_dijkstra", spy)
    return scans


def _random_distances(dyn, rng, queries):
    alive = [v for v in range(len(dyn.v_alive)) if dyn.v_alive[v]]
    for _ in range(queries):
        dyn.distance(*rng.sample(alive, 2))


def _dynamic_counters(monkeypatch):
    dyn = _updated_dynamic()
    scans = _spy_scans(monkeypatch)
    _random_distances(dyn, random.Random("scan-counters"), QUERIES)
    return scans


def _interleaved_counters(monkeypatch):
    # two queries after each update, each scanning a union the update
    # edited in place
    scans = _spy_scans(monkeypatch)
    rng = random.Random("scan-counters")
    _updated_dynamic(QUERIES // 2, lambda dyn: _random_distances(dyn, rng, 2), True)
    return scans


@pytest.mark.parametrize("name", sorted(PINNED))
def test_scan_counters_pinned(name, monkeypatch):
    g = generate_grid(8, 8, max_weight=9, seed=1)
    if name == "failure":
        got = _static_counters(FailureOracle(g, leaf_size=8), lambda qi: qi % 5)
    elif name == "tradeoff":
        got = _static_counters(TradeoffOracle(g, r=32, k=1, leaf_size=8), lambda qi: qi % 2)
    elif name == "dynamic":
        got = _dynamic_counters(monkeypatch)
    else:
        got = _interleaved_counters(monkeypatch)
    assert len(got) == QUERIES
    sums = tuple(map(sum, zip(*got)))
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert (digest, sums) == PINNED[name]
