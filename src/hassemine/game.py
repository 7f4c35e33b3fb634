"""Maze-game episode simulator with scripted and random agents.

Both game versions put the player in a small grid maze holding a key and
a single-use explosive.  In version 1 the only way to win is to blast
the rock blocking the door chamber and open the door with the key.
Version 2 adds a coin chamber behind a second rock, so the single-use
explosive forces a choice between winning by door or by coin.

An episode logs only the moves that are events (a plain step or a bump
into a wall leaves no entry) and is reduced to an event sequence over
e1..e10 (version 1) or e1..e12 (version 2):

    e1  collect key          e7   failed explosive use (bump rock empty-handed)
    e2  collect explosive    e8   failed key use (bump door without key)
    e3  key never collected  e9   win by opening door
    e4  explosive never collected   e10  episode lost (step cap)
    e5  blast rock           e11  collect coin (version 2)
    e6  open door            e12  win by coin (version 2)

e3/e4 and the outcome marker are appended at episode end, outcome last.
Random play draws a seeded stream per episode. Scripted play draws no
randomness, so simulate() plays each route once per call and repeats its
episode wherever the rotation returns to that route.
corrupt() mutates a seeded fraction of recorded episodes (one swap,
delete, or insert each) for robustness experiments.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .errors import InvalidPolicy
from .exact import exact_fraction, is_class_label, is_count
from .sequences import EventSequence
from .graphs import LabelTable

V1_EVENTS = LabelTable(tuple(f"e{i}" for i in range(1, 11)))
V2_EVENTS = LabelTable(tuple(f"e{i}" for i in range(1, 13)))


def _version_events(version) -> LabelTable:
    """The event universe of game version 1 or 2, an int (not True or 1.0)."""
    if type(version) is not int or version not in (1, 2):
        raise ValueError(f"unknown game version {version!r}")
    return V1_EVENTS if version == 1 else V2_EVENTS


# Map legend: '#' wall, '.' floor, 'R' rock, 'K' key, 'E' explosive,
# 'D' door, 'C' coin, 'S' start.
V1_GRID = (
    "######",
    "#.#.K#",
    "#DR.S#",
    "#.#.E#",
    "######",
)

V2_GRID = (
    "#########",
    "#.#.K.#.#",
    "#DR.S.RC#",
    "#.#.E.#.#",
    "#########",
)

# Fixed scan order keeps breadth-first paths deterministic.
DIRECTIONS = ((0, -1), (0, 1), (-1, 0), (1, 0))

_EVENT_CODES = {
    ("collect", "key"): "e1",
    ("collect", "explosive"): "e2",
    ("end", "key_missing"): "e3",
    ("end", "explosive_missing"): "e4",
    ("use_explosive", "rock"): "e5",
    ("use_key", "door"): "e6",
    ("fail_use", "explosive"): "e7",
    ("fail_use", "key"): "e8",
    ("end", "win_door"): "e9",
    ("end", "lose"): "e10",
    ("collect", "coin"): "e11",
    ("end", "win_coin"): "e12",
}

_V1_ROUTES = {
    "door-1": ("key", "explosive", "rock-door", "door"),
    "door-2": ("explosive", "key", "rock-door", "door"),
    "door-3": ("explosive", "rock-door", "key", "door"),
}

_V2_ROUTES = {
    **_V1_ROUTES,
    "coin-1": ("explosive", "rock-coin", "coin"),
    "coin-2": ("key", "explosive", "rock-coin", "coin"),
    "coin-3": ("explosive", "key", "rock-coin", "coin"),
    "coin-4": ("explosive", "rock-coin", "key", "coin"),
}


@dataclass(frozen=True)
class GameConfig:
    """A maze layout plus run parameters for one game version."""

    version: int
    width: int
    height: int
    walls: frozenset
    rocks: frozenset
    key: tuple
    explosive: tuple
    door: tuple
    coin: tuple | None
    start: tuple
    step_cap: int
    seed: int

    def __post_init__(self):
        _version_events(self.version)  # refuses any other version
        if self.version == 1 and (len(self.rocks) != 1 or self.coin is not None):
            raise ValueError("version 1 needs exactly one rock and no coin")
        if self.version == 2 and (len(self.rocks) != 2 or self.coin is None):
            raise ValueError("version 2 needs two rocks and a coin")
        if not is_count(self.step_cap):
            raise ValueError("step cap must be at least 1")
        markers = [self.key, self.explosive, self.door, self.start]
        if self.coin is not None:
            markers.append(self.coin)
        occupied = list(self.walls) + list(self.rocks) + markers
        if len(set(occupied)) != len(occupied):
            raise ValueError("overlapping grid features")
        for x, y in occupied:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"feature at {(x, y)} is outside the grid")

    @classmethod
    def from_grid(cls, version, rows, step_cap, seed):
        """Parse an ASCII map (see the legend above the presets)."""
        if not rows:
            raise ValueError("empty grid: no rows")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged grid: rows differ in length")
        walls, rocks = set(), set()
        features = {}
        for y, row in enumerate(rows):
            for x, cell in enumerate(row):
                if cell == "#":
                    walls.add((x, y))
                elif cell == "R":
                    rocks.add((x, y))
                elif cell in "KEDCS":
                    if cell in features:
                        raise ValueError(f"duplicate {cell!r} marker in grid")
                    features[cell] = (x, y)
                elif cell != ".":
                    raise ValueError(f"unknown grid cell {cell!r}")
        missing = {"K", "E", "D", "S"} - set(features)
        if missing:
            raise ValueError(f"grid lacks markers {sorted(missing)}")
        return cls(
            version=version,
            width=len(rows[0]),
            height=len(rows),
            walls=frozenset(walls),
            rocks=frozenset(rocks),
            key=features["K"],
            explosive=features["E"],
            door=features["D"],
            coin=features.get("C"),
            start=features["S"],
            step_cap=step_cap,
            seed=seed,
        )


# Default step caps leave every scripted route ample room (all finish in
# under 16 steps) while keeping random play losing roughly 3 times in 4.
def v1_config(seed=0, step_cap=40):
    return GameConfig.from_grid(1, V1_GRID, step_cap, seed)


def v2_config(seed=0, step_cap=60):
    return GameConfig.from_grid(2, V2_GRID, step_cap, seed)


@dataclass(frozen=True)
class Episode:
    """One recorded playthrough: its event sequence plus bookkeeping."""

    events: EventSequence
    label: int
    win_route: str
    seed: int
    policy: str

    def __post_init__(self):
        if not is_class_label(self.label):
            raise ValueError(f"episode label must be 0 or 1, got {self.label!r}")
        if self.win_route not in ("door", "coin", "none"):
            raise ValueError(f"unknown win route {self.win_route!r}")
        if (self.label == 1) != (self.win_route != "none"):
            raise ValueError("win route and label disagree")


def _derive_seed(seed, tag) -> int:
    """Independent per-episode RNG stream, stable under parallel generation."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _Game:
    """Mutable game state; logs the moves that are events.

    `cells` is the set of open cells: every cell in bounds and off the
    walls, rocks, items and the door included.
    """

    def __init__(self, config: GameConfig, cells):
        self.config = config
        self.cells = cells
        self.pos = config.start
        self.rocks = set(config.rocks)
        # the items still on the map, by cell; version 1's coin cell is
        # None, which no cell equals
        self.items = {config.key: "key", config.explosive: "explosive", config.coin: "coin"}
        self.carried = set()
        self.outcome = None
        self.steps = 0
        self.moves: list[tuple[str, str]] = []

    def step(self, direction) -> None:
        """Attempt one move; bumps resolve to item use or failure."""
        self.steps += 1
        target = (self.pos[0] + direction[0], self.pos[1] + direction[1])
        if target not in self.cells:
            return
        if target in self.rocks:
            if "explosive" in self.carried:
                self.moves.append(("use_explosive", "rock"))
                self.rocks.discard(target)
                self.carried.discard("explosive")
            else:
                self.moves.append(("fail_use", "explosive"))
            return
        if target == self.config.door:
            if "key" in self.carried:
                self.moves.append(("use_key", "door"))
                self.outcome = "door"
            else:
                self.moves.append(("fail_use", "key"))
            return
        self.pos = target
        item = self.items.pop(target, None)
        if item is not None:
            self.carried.add(item)
            self.moves.append(("collect", item))
            if item == "coin":
                self.outcome = "coin"

    def finish(self) -> None:
        """Append end-of-episode markers; the outcome marker goes last."""
        left = self.items.values()
        for item in ("key", "explosive"):
            if item in left:
                self.moves.append(("end", f"{item}_missing"))
        self.moves.append(("end", f"win_{self.outcome}" if self.outcome else "lose"))


def extract_events(moves, version) -> EventSequence:
    """Reduce a move log to its event sequence.

    A full raw log is accepted too: moves that are not events, such as
    ("move", "north") or ("blocked", "wall"), are dropped.
    """
    universe = _version_events(version)
    labels = []
    for move in moves:
        code = _EVENT_CODES.get(tuple(move))
        if code is not None:
            labels.append(code)
    return EventSequence(universe, tuple(labels))


def _spot(config, name):
    """A waypoint's cell: the config field `name`, or for "rock-<field>"
    the rock nearest that field's cell by Manhattan distance."""
    if not name.startswith("rock-"):
        return getattr(config, name)
    target = getattr(config, name[len("rock-"):])
    return min(
        config.rocks,
        key=lambda r: (abs(r[0] - target[0]) + abs(r[1] - target[1]), r),
    )


def _bfs_step(game, target):
    """First step of a shortest path to `target` through the open cells,
    `game.cells` (every cell in bounds and off the walls).

    The search first keeps every rock but the target closed, so the walker
    goes round a rock where it can; only when no such path exists does it
    search again with rocks passable, and the walker bumps the first rock
    on its way (blasting it if it carries the explosive). The door is
    passable only as the target itself.
    """
    start, door = game.pos, game.config.door
    for cells in (game.cells - (game.rocks - {target}), game.cells):
        prev = {start: None}
        queue = deque([start])
        while queue:
            cell = queue.popleft()
            if cell == target:
                while prev[cell] != start and prev[cell] is not None:
                    cell = prev[cell]
                return (cell[0] - start[0], cell[1] - start[1])
            for dx, dy in DIRECTIONS:
                nxt = (cell[0] + dx, cell[1] + dy)
                if nxt in cells and nxt not in prev and (nxt != door or nxt == target):
                    prev[nxt] = cell
                    queue.append(nxt)
    raise ValueError(f"waypoint {target} unreachable from {start}")


def _run_scripted(game, waypoints) -> None:
    # once the game has an outcome, no later waypoint is walked to
    for target in waypoints:
        while game.outcome is None and game.pos != target and game.steps < game.config.step_cap:
            game.step(_bfs_step(game, target))


def _run_random(game, rng) -> None:
    while game.outcome is None and game.steps < game.config.step_cap:
        game.step(DIRECTIONS[rng.randrange(4)])


def _route_plan(config, policy):
    """Resolve a policy name to a rotation of (route, waypoints) pairs;
    None means random play."""
    if policy == "random":
        return None
    routes = _V2_ROUTES if config.version == 2 else _V1_ROUTES
    prefix = "scripted-"
    route = policy[len(prefix):] if policy.startswith(prefix) else None
    if policy == "scripted-mixed":
        names = sorted(routes, key=lambda name: (name.split("-")[0] == "coin", name))
    elif route in routes:
        names = (route,)
    elif route in _V2_ROUTES:
        raise InvalidPolicy(f"route {route!r} needs game version 2")
    else:
        raise InvalidPolicy(f"unknown policy {policy!r}")
    return tuple(
        (name, tuple(_spot(config, spot) for spot in routes[name])) for name in names
    )


def _play(config, cells, policy_id, run, arg) -> Episode:
    """One game on the open cells `cells`, driven by run(game, arg)."""
    game = _Game(config, cells)
    run(game, arg)
    game.finish()
    return Episode(
        events=extract_events(game.moves, config.version),
        label=1 if game.outcome else 0,
        win_route=game.outcome or "none",
        seed=config.seed,
        policy=policy_id,
    )


def simulate(config: GameConfig, n_episodes: int, policy: str) -> list[Episode]:
    """Play `n_episodes` under `policy` and return their event records.

    Deterministic given (config, policy): random episode i draws from an
    RNG stream derived from (config.seed, i), so episodes are independent
    of n_episodes and of generation order. Scripted play draws no
    randomness, so each route of the rotation is played once per call and
    its (frozen) episode repeats wherever the rotation returns to it.
    """
    if not is_count(n_episodes):
        raise ValueError("need at least one episode")
    plan = _route_plan(config, policy)
    cells = {(x, y) for x in range(config.width) for y in range(config.height)} - config.walls
    if plan is None:
        rngs = (random.Random(_derive_seed(config.seed, i)) for i in range(n_episodes))
        return [_play(config, cells, "random", _run_random, rng) for rng in rngs]
    played = [
        _play(config, cells, f"scripted-{route}", _run_scripted, waypoints)
        for route, waypoints in plan[:n_episodes]
    ]
    return [played[i % len(played)] for i in range(n_episodes)]


def _apply_op(events, op, rng, table):
    """One mutation attempt; None when the op cannot apply at this length."""
    n = len(events)
    if op == "swap":
        if n < 2:
            return None
        i, j = rng.sample(range(n), 2)
        out = list(events)
        out[i], out[j] = out[j], out[i]
        return tuple(out)
    if op == "delete":
        if n < 1:
            return None
        i = rng.randrange(n)
        return events[:i] + events[i + 1:]
    i = rng.randrange(n + 1)
    label = rng.choice(table.labels)
    return events[:i] + (label,) + events[i:]


def _mutate(s: EventSequence, rng, ops) -> EventSequence:
    # retry identity results (e.g. swapping equal events) a bounded number
    # of times so a "mutated" episode almost surely differs from the input
    for _ in range(256):
        out = _apply_op(s.events, rng.choice(ops), rng, s.universe)
        if out is not None and out != s.events:
            return EventSequence(s.universe, out)
    return s


def corrupt_sequences(
    sequences: Sequence[EventSequence],
    fraction,
    seed: int,
    ops: Iterable[str] = ("swap", "delete", "insert"),
) -> list[EventSequence]:
    """Mutate ceil(fraction * n) of the sequences, one op each, seeded."""
    frac = exact_fraction(fraction)
    if not 0 <= frac <= 1:
        raise ValueError(f"corruption fraction {fraction!r} outside [0, 1]")
    opset = tuple(sorted(set(ops)))
    bad = [op for op in opset if op not in ("swap", "delete", "insert")]
    if bad or not opset:
        raise ValueError(f"corruption ops must be among swap/delete/insert, got {list(ops)!r}")
    out = list(sequences)
    k = math.ceil(frac * len(out))
    if k == 0:
        return out
    selector = random.Random(_derive_seed(seed, "select"))
    for index in sorted(selector.sample(range(len(out)), k)):
        rng = random.Random(_derive_seed(seed, f"mutate:{index}"))
        out[index] = _mutate(out[index], rng, opset)
    return out


def corrupt(
    episodes: Sequence[Episode],
    fraction,
    seed: int,
    ops: Iterable[str] = ("swap", "delete", "insert"),
) -> list[Episode]:
    """corrupt_sequences over episode events; labels and bookkeeping kept."""
    mutated = corrupt_sequences([ep.events for ep in episodes], fraction, seed, ops)
    return [
        ep if seq is ep.events else replace(ep, events=seq)
        for ep, seq in zip(episodes, mutated)
    ]
