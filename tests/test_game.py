"""Maze-game simulator: scripted/random policies, event extraction,
determinism, and seeded corruption.

Claims covered:
- the seven scripted routes produce exactly the published winning-type
  event sequences (three door orders in v1, plus four coin orders in v2);
- scripted-mixed rotation covers every distinct winning type;
- random play under the step cap wins or loses cleanly: winners carry a
  win marker and restrict to known types, losers end in the timeout
  marker with uncollected-item markers before it;
- every winning episode restricted to the analysis labels is simple and
  consistent with one of the two winning-strategy graphs;
- simulate is deterministic and episode streams are independent of the
  episode count;
- extract_events maps raw moves to event codes and drops non-events, and
  a game logs no move that it would drop;
- scripted play builds one game per route of the rotation and repeats its
  episode, random play one game per episode;
- a grid with no wall border plays as before, pinned by its own digest,
  and the breadth-first walker never paths through the door, goes round
  a rock where it can, and bumps one only when no way goes round;
- corrupt mutates exactly ceil(fraction * n) episodes (one swap, delete,
  or insert each), preserves the rest bit for bit, and is seeded; a
  sequence no op can change comes back as it was;
- relevance scores from a simulated v1 mix assign infinite scores to the
  win-prerequisite pairs;
- every episode of both versions under every policy, several step caps
  and seeds, with and without corruption, is pinned by one digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random

import pytest

from hassemine import (
    Digraph,
    EventSequence,
    InvalidPolicy,
    LabelTable,
    hasse_cluster,
    is_consistent,
    relevance_scores,
    restrict_sequence,
)
from hassemine.game import (
    Episode,
    GameConfig,
    V1_EVENTS,
    V2_EVENTS,
    _EVENT_CODES,
    _Game,
    _run_random,
    corrupt,
    corrupt_sequences,
    extract_events,
    simulate,
    v1_config,
    v2_config,
)

J4 = ("e1", "e2", "e5", "e6")
J5 = ("e1", "e2", "e5", "e6", "e11")

V1_TYPES = {
    ("e1", "e2", "e5", "e6"),
    ("e2", "e1", "e5", "e6"),
    ("e2", "e5", "e1", "e6"),
}
COIN_TYPES = {
    ("e2", "e5", "e11"),
    ("e1", "e2", "e5", "e11"),
    ("e2", "e1", "e5", "e11"),
    ("e2", "e5", "e1", "e11"),
}
V2_TYPES = V1_TYPES | COIN_TYPES

DOOR_GRAPH = Digraph.from_arrows(
    LabelTable(J4), [("e1", "e6"), ("e2", "e5"), ("e5", "e6")]
)
COIN_GRAPH = Digraph.from_arrows(
    LabelTable(("e2", "e5", "e11")), [("e2", "e5"), ("e5", "e11")]
)


def test_scripted_route_sequences_v1():
    expected = {
        "scripted-door-1": ("e1", "e2", "e5", "e6", "e9"),
        "scripted-door-2": ("e2", "e1", "e5", "e6", "e9"),
        "scripted-door-3": ("e2", "e5", "e1", "e6", "e9"),
    }
    for policy, events in expected.items():
        (ep,) = simulate(v1_config(seed=0), 1, policy)
        assert ep.events.events == events
        assert ep.label == 1 and ep.win_route == "door"
        assert ep.policy == policy


def test_scripted_route_sequences_v2():
    expected = {
        "scripted-coin-1": ("e2", "e5", "e11", "e3", "e12"),
        "scripted-coin-2": ("e1", "e2", "e5", "e11", "e12"),
        "scripted-coin-3": ("e2", "e1", "e5", "e11", "e12"),
        "scripted-coin-4": ("e2", "e5", "e1", "e11", "e12"),
    }
    for policy, events in expected.items():
        (ep,) = simulate(v2_config(seed=0), 1, policy)
        assert ep.events.events == events
        assert ep.label == 1 and ep.win_route == "coin"
    (door,) = simulate(v2_config(seed=0), 1, "scripted-door-1")
    assert door.events.events == ("e1", "e2", "e5", "e6", "e9")
    assert door.events.universe is V2_EVENTS


def test_scripted_mixed_covers_all_types():
    v1 = simulate(v1_config(seed=5), 80, "scripted-mixed")
    assert {restrict_sequence(ep.events, J4).events for ep in v1} == V1_TYPES
    assert all(ep.label == 1 for ep in v1)

    v2 = simulate(v2_config(seed=5), 125, "scripted-mixed")
    assert {restrict_sequence(ep.events, J5).events for ep in v2} == V2_TYPES
    assert all(ep.label == 1 for ep in v2)


def test_invalid_policies():
    with pytest.raises(InvalidPolicy):
        simulate(v1_config(), 1, "scripted-coin-1")
    with pytest.raises(InvalidPolicy):
        simulate(v1_config(), 1, "scripted-nonsense")
    with pytest.raises(InvalidPolicy):
        simulate(v2_config(), 1, "greedy")
    with pytest.raises(ValueError):
        simulate(v1_config(), 0, "random")


def test_simulate_deterministic_and_prefix_stable():
    cfg = v2_config(seed=11)
    a = simulate(cfg, 20, "random")
    b = simulate(cfg, 20, "random")
    assert a == b
    assert simulate(cfg, 8, "random") == a[:8]
    assert simulate(v2_config(seed=12), 20, "random") != a


def test_tiny_step_cap_forces_loss():
    cfg = dataclasses.replace(v1_config(seed=0), step_cap=3)
    episodes = simulate(cfg, 10, "random")
    for ep in episodes:
        assert ep.label == 0 and ep.win_route == "none"
        events = ep.events.events
        assert events[-1] == "e10"
        assert ("e3" in events) == ("e1" not in events)
        assert ("e4" in events) == ("e2" not in events)


def test_episode_markers_and_tail_order():
    for version, cfg in ((1, v1_config(seed=2)), (2, v2_config(seed=2))):
        for ep in simulate(cfg, 60, "random"):
            events = ep.events.events
            if ep.label == 1:
                assert events[-1] == ("e9" if ep.win_route == "door" else "e12")
                assert "e10" not in events
            else:
                assert events[-1] == "e10"
                assert "e9" not in events and "e12" not in events
            # uncollected-item markers sit in the tail, after gameplay
            for marker, item_event in (("e3", "e1"), ("e4", "e2")):
                if marker in events:
                    assert item_event not in events


def test_winning_restrictions_simple_and_typed():
    v1 = [ep for ep in simulate(v1_config(seed=9), 150, "random") if ep.label]
    assert v1
    for ep in v1:
        r = restrict_sequence(ep.events, J4)
        assert r.is_simple and r.events in V1_TYPES
        assert is_consistent(ep.events, DOOR_GRAPH)

    v2 = [ep for ep in simulate(v2_config(seed=9), 200, "random") if ep.label]
    assert any(ep.win_route == "door" for ep in v2)
    assert any(ep.win_route == "coin" for ep in v2)
    for ep in v2:
        r = restrict_sequence(ep.events, J5)
        assert r.is_simple and r.events in V2_TYPES
        assert is_consistent(ep.events, DOOR_GRAPH) or is_consistent(
            ep.events, COIN_GRAPH
        )


def test_extract_events_worked_example():
    moves = [
        ("move", "north"),
        ("collect", "key"),
        ("blocked", "wall"),
        ("fail_use", "explosive"),
        ("collect", "explosive"),
        ("use_explosive", "rock"),
        ("end", "lose"),
    ]
    seq = extract_events(moves, 1)
    assert seq.universe is V1_EVENTS
    assert seq.events == ("e1", "e7", "e2", "e5", "e10")
    assert extract_events([("end", "key_missing")], 2).events == ("e3",)
    with pytest.raises(ValueError):
        extract_events(moves, 3)


def _open_cells(cfg):
    return {(x, y) for x in range(cfg.width) for y in range(cfg.height)} - cfg.walls


def test_game_logs_only_events():
    for cfg in (v1_config(), v2_config()):
        for seed in range(40):
            game = _Game(cfg, _open_cells(cfg))
            _run_random(game, random.Random(seed))
            game.finish()
            assert all(move in _EVENT_CODES for move in game.moves)


def test_scripted_routes_are_played_once(monkeypatch):
    # scripted play draws no randomness: one game per route of the
    # rotation, its episode repeated; random play is one game per episode
    built = []

    class CountingGame(_Game):
        def __init__(self, config, cells):
            built.append(config)
            super().__init__(config, cells)

    monkeypatch.setattr("hassemine.game._Game", CountingGame)
    for cfg, n, policy, games in (
        (v2_config(), 700, "scripted-mixed", 7),
        (v1_config(), 2, "scripted-mixed", 2),
        (v1_config(), 50, "random", 50),
    ):
        built.clear()
        episodes = simulate(cfg, n, policy)
        assert len(episodes) == n and len(built) == games, policy
    mixed = simulate(v2_config(), 700, "scripted-mixed")
    assert all(ep is mixed[i % 7] for i, ep in enumerate(mixed))


def test_open_border_grid_digest():
    # No wall border: the open-cell set alone keeps the player and the
    # breadth-first walker inside the grid. The digest was taken from the
    # simulator that tested the bounds and the walls on every move.
    cfg = GameConfig.from_grid(1, (".K.E", "DRS.", "...."), 40, 0)
    episodes = simulate(cfg, 300, "random") + simulate(cfg, 6, "scripted-mixed")
    records = [(ep.events.events, ep.label, ep.policy) for ep in episodes]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == (
        "f500b5db683f67ef698b71b100a920b6dd87de7ea93f2a2170ad2b4f77268948"
    )


def test_walker_never_paths_through_the_door():
    # Through the door the key is 4 steps from the start, around it 6. A
    # walker that took the door as a passage would head for the rock from
    # the first step and bump it empty-handed until the step cap.
    cfg = GameConfig.from_grid(1, ("......", "KDR.SE"), 40, 0)
    assert [ep.events.events for ep in simulate(cfg, 3, "scripted-mixed")] == [
        # door-1 reaches the key round the top, and goes round the rock
        # on to the explosive too
        ("e1", "e2", "e5", "e6", "e9"),
        ("e2", "e1", "e5", "e6", "e9"),
        ("e2", "e5", "e1", "e6", "e9"),
    ]


def test_walker_bumps_a_rock_only_when_no_way_goes_round():
    # The rock is the key's only way to the start: door-1, which wants
    # the key first, bumps it empty-handed until the cap; the other routes
    # blast it first.
    cfg = GameConfig.from_grid(1, ("KR.SE", "#D###"), 40, 0)
    assert [ep.events.events for ep in simulate(cfg, 3, "scripted-mixed")] == [
        ("e7",) * 39 + ("e3", "e4", "e10"),
        ("e2", "e5", "e1", "e6", "e9"),
        ("e2", "e5", "e1", "e6", "e9"),
    ]
    # a waypoint walled off from the start is refused
    walled = GameConfig.from_grid(1, ("K#.SE", "D#R..", "#####"), 40, 0)
    with pytest.raises(ValueError, match=r"waypoint \(0, 0\) unreachable"):
        simulate(walled, 1, "scripted-door-1")


def test_config_validation():
    with pytest.raises(ValueError):
        GameConfig.from_grid(1, ("###", "#K#", "###"), 10, 0)
    with pytest.raises(ValueError):
        GameConfig.from_grid(1, ("####", "#KK#", "####"), 10, 0)
    with pytest.raises(ValueError):
        GameConfig.from_grid(1, ("####", "#K?#", "####"), 10, 0)
    # a short row's missing cells are not floor, and a grid has rows
    with pytest.raises(ValueError, match="ragged grid"):
        GameConfig.from_grid(1, ("######", "#.#.K#", "#DR.S", "#.#.E#", "######"), 10, 0)
    with pytest.raises(ValueError, match="empty grid"):
        GameConfig.from_grid(1, (), 10, 0)
    # coin/rock counts are tied to the version
    with pytest.raises(ValueError):
        dataclasses.replace(v1_config(), coin=(3, 1))
    with pytest.raises(ValueError):
        dataclasses.replace(v2_config(), coin=None)
    with pytest.raises(ValueError):
        dataclasses.replace(v1_config(), step_cap=0)
    with pytest.raises(ValueError):
        dataclasses.replace(v1_config(), key=v1_config().door)
    with pytest.raises(ValueError, match="unknown game version 3"):
        dataclasses.replace(v1_config(), version=3)
    with pytest.raises(ValueError, match=r"feature at \(99, 0\) is outside the grid"):
        dataclasses.replace(v1_config(), key=(99, 0))


def test_episode_validation():
    seq = EventSequence(V1_EVENTS, ("e9",))
    Episode(seq, 1, "door", 0, "scripted-door-1")
    with pytest.raises(ValueError):
        Episode(seq, 2, "door", 0, "p")
    with pytest.raises(ValueError):
        Episode(seq, 1, "hatch", 0, "p")
    with pytest.raises(ValueError):
        Episode(seq, 1, "none", 0, "p")
    with pytest.raises(ValueError):
        Episode(seq, 0, "door", 0, "p")


def test_mixed_types_mine_to_two_strategies():
    from hassemine import BoolMatrix

    episodes = simulate(v2_config(seed=1), 14, "scripted-mixed")
    out = hasse_cluster([ep.events for ep in episodes], J5, t=100, r=2)
    assert len(out.clusters) == 1
    table = LabelTable(J5)
    coin_chain = BoolMatrix.from_entries(
        table,
        [
            [0, 0, 0, 0, 0],
            [0, 0, 1, 0, 1],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ],
    )
    door_order = BoolMatrix.from_entries(
        table,
        [
            [0, 0, 0, 1, 0],
            [0, 0, 1, 1, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ],
    )
    assert set(out.clusters[0]) == {coin_chain, door_order}


def test_corrupt_counts_and_determinism():
    episodes = simulate(v2_config(seed=3), 125, "scripted-mixed")
    out = corrupt(episodes, 0.10, seed=0)
    assert len(out) == 125
    changed = [i for i in range(125) if out[i] != episodes[i]]
    assert len(changed) == math.ceil(0.10 * 125) == 13
    for i in set(range(125)) - set(changed):
        assert out[i] is episodes[i]
    for i in changed:
        assert out[i].events.events != episodes[i].events.events
        assert out[i].label == episodes[i].label
        assert out[i].win_route == episodes[i].win_route
        assert out[i].policy == episodes[i].policy
    assert corrupt(episodes, 0.10, seed=0) == out
    other = corrupt(episodes, 0.10, seed=1)
    assert [i for i in range(125) if other[i] != episodes[i]] != changed


def test_corrupt_fraction_edges():
    episodes = simulate(v1_config(seed=4), 10, "scripted-mixed")
    assert corrupt(episodes, 0, seed=0) == episodes
    everything = corrupt(episodes, 1, seed=0)
    assert all(a != b for a, b in zip(everything, episodes))
    with pytest.raises(ValueError):
        corrupt(episodes, 1.5, seed=0)
    with pytest.raises(ValueError):
        corrupt(episodes, -0.1, seed=0)
    # a bool is not a fraction, though Fraction would read True as 1
    for flag in (True, False):
        with pytest.raises(TypeError):
            corrupt(episodes, flag, seed=0)
    with pytest.raises(ValueError):
        corrupt(episodes, 0.5, seed=0, ops=("scramble",))
    with pytest.raises(ValueError):
        corrupt(episodes, 0.5, seed=0, ops=())


def test_corrupt_single_ops():
    table = LabelTable(("a", "b", "c"))
    base = [EventSequence(table, ("a", "b", "c"))]
    for seed in range(6):
        (swapped,) = corrupt_sequences(base, 1, seed, ops=("swap",))
        assert sorted(swapped.events) == ["a", "b", "c"]
        assert swapped.events != ("a", "b", "c")
        (shorter,) = corrupt_sequences(base, 1, seed, ops=("delete",))
        assert len(shorter.events) == 2
        (longer,) = corrupt_sequences(base, 1, seed, ops=("insert",))
        assert len(longer.events) == 4
        assert set(longer.events) <= {"a", "b", "c"}
    # a swap-only mutation of an all-equal sequence cannot change it;
    # the bounded retry gives up and returns it unchanged
    twins = [EventSequence(table, ("a", "a"))]
    (same,) = corrupt_sequences(twins, 1, 0, ops=("swap",))
    assert same.events == ("a", "a")
    # an empty sequence has nothing to swap or delete: it comes back as is
    empty = EventSequence(table, ())
    (kept,) = corrupt_sequences([empty], 1, 0, ops=("swap", "delete"))
    assert kept is empty


def test_relevance_on_simulated_v1_mix():
    winners = simulate(v1_config(seed=21), 30, "scripted-mixed")
    randoms = simulate(v1_config(seed=22), 120, "random")
    episodes = [(ep.events, ep.label) for ep in winners + randoms]
    assert any(label == 0 for _, label in episodes)
    table = relevance_scores(episodes)
    for a, b in (
        ("e1", "e9"),
        ("e1", "e6"),
        ("e6", "e9"),
        ("e2", "e9"),
        ("e2", "e6"),
        ("e5", "e6"),
        ("e5", "e9"),
    ):
        assert table.score(a, b) == math.inf, (a, b)
    # a pair unrelated to winning stays finite: losers interleave it freely
    assert table.score("e7", "e10") != math.inf


def test_simulator_output_digest():
    # Episodes of both versions under every policy, at step caps 1, 5 and
    # 12 plus the default, on seeds 0-2, each as played and half corrupted.
    # The digest was taken from the simulator whose log also held plain
    # steps and wall bumps.
    policies = {
        1: ("random", "scripted-mixed", "scripted-door-1", "scripted-door-2", "scripted-door-3"),
        2: (
            "random",
            "scripted-mixed",
            *(f"scripted-door-{i}" for i in (1, 2, 3)),
            *(f"scripted-coin-{i}" for i in (1, 2, 3, 4)),
        ),
    }
    digest = hashlib.sha256()
    for version, make in ((1, v1_config), (2, v2_config)):
        for step_cap in (1, 5, 12, None):
            for seed in range(3):
                cfg = make(seed) if step_cap is None else make(seed, step_cap)
                for policy in policies[version]:
                    episodes = simulate(cfg, 24 if policy == "random" else 8, policy)
                    for ep in episodes + corrupt(episodes, 0.5, seed):
                        record = (ep.events.events, ep.label, ep.win_route, ep.seed, ep.policy)
                        digest.update(repr(record).encode())
    assert digest.hexdigest() == "e5e93fe591d308b69dfe0c3b0264e85e7c0bd1acc6c6b8d7bf9619c83903d0f9"
