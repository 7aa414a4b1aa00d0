"""The union scan's work, pinned query by query.

For 200 seeded queries on each of three small oracles, the tuple
(settled, relaxations, union_vertices, members) of every scan is hashed
and compared with a digest recorded before static leaves and dynamic
regions became slots of their oracle's union.  How members are laid out
must not change what a scan settles, relaxes or joins.  A change that
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
}


def _counters(res):
    return res.settled, res.relaxations, res.union_vertices, len(res.union.members)


def _static_counters(oracle, failures):
    rng = random.Random("scan-counters")
    return [
        _counters(oracle.query_result(*random_query(rng, oracle.graph.n, failures(qi))))
        for qi in range(QUERIES)
    ]


def _updated_dynamic():
    """An 8x8 dynamic oracle after 50 seeded updates: weight changes,
    arc delete/re-insert pairs, new vertices joined both ways, and arcs
    between fresh vertices, which start new regions."""
    dyn = DynamicOracle(generate_grid(8, 8, max_weight=9, seed=1), r=16)
    rng = random.Random("scan-counters-updates")
    for _ in range(50):
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
        else:
            dyn.insert_edge(dyn.insert_vertex(), dyn.insert_vertex(), rng.randrange(1, 9))
    return dyn


def _dynamic_counters(monkeypatch):
    dyn = _updated_dynamic()
    scans = []
    real = dynamic_oracle.multi_dijkstra

    def spy(*args, **kwargs):
        res = real(*args, **kwargs)
        scans.append(_counters(res))
        return res

    monkeypatch.setattr(dynamic_oracle, "multi_dijkstra", spy)
    alive = [v for v in range(len(dyn.v_alive)) if dyn.v_alive[v]]
    rng = random.Random("scan-counters")
    for _ in range(QUERIES):
        dyn.distance(*rng.sample(alive, 2))
    return scans


@pytest.mark.parametrize("name", sorted(PINNED))
def test_scan_counters_pinned(name, monkeypatch):
    g = generate_grid(8, 8, max_weight=9, seed=1)
    if name == "failure":
        got = _static_counters(FailureOracle(g, leaf_size=8), lambda qi: qi % 5)
    elif name == "tradeoff":
        got = _static_counters(TradeoffOracle(g, r=32, k=1, leaf_size=8), lambda qi: qi % 2)
    else:
        got = _dynamic_counters(monkeypatch)
    assert len(got) == QUERIES
    sums = tuple(map(sum, zip(*got)))
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert (digest, sums) == PINNED[name]
