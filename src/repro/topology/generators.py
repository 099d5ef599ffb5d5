"""Deterministic overlay-graph generators behind a string-keyed registry.

The paper's informed-collaboration story sharpens on structured graphs:
scale-free overlays concentrate traffic on hubs (the congestion that
informed rewiring should route around), CDN tiers order peers into
origin / regional / edge roles, and clustered graphs model regional
peerings with thin bridges.  This module provides those shapes — plus
``random`` and ``ring`` baselines — as pure, deterministic functions of
``(kind, n, seed, params)``.

Every generator draws from ``random.Random(derive_seed(seed,
"topology", kind))``, so the same spec replays the same graph on any
platform, and distinct generators never share a stream.  Graphs are
returned as a frozen :class:`GeneratedTopology`: normalised undirected
edges plus optional per-node ``tier`` / ``community`` labels that the
structured scenarios use to assign roles.

Generators register through :func:`register_generator`, which records
the accepted parameter names and a declared degree-distribution shape
(``uniform`` / ``constant`` / ``heavy_tail`` / ``tree``) that the
conformance suite checks against the realised graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

from repro.seeding import derive_seed

__all__ = [
    "GeneratedTopology",
    "GeneratorEntry",
    "TopologyError",
    "generate",
    "generator_entry",
    "generator_names",
    "register_generator",
]


class TopologyError(ValueError):
    """Raised for unknown generators or invalid generator parameters."""


@dataclass(frozen=True)
class GeneratedTopology:
    """An undirected overlay graph with optional node annotations.

    ``edges`` are normalised ``(i, j)`` pairs with ``i < j``, sorted and
    de-duplicated.  ``tier`` and ``community`` carry per-node labels for
    generators that produce them (CDN levels, cluster ids); generators
    without a natural notion leave them all-zero.
    """

    kind: str
    n: int
    edges: Tuple[Tuple[int, int], ...]
    tier: Tuple[int, ...] = ()
    community: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.tier:
            object.__setattr__(self, "tier", (0,) * self.n)
        if not self.community:
            object.__setattr__(self, "community", (0,) * self.n)

    def neighbors(self) -> List[List[int]]:
        """Adjacency lists, one per node."""
        adj: List[List[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degrees(self) -> List[int]:
        return [len(peers) for peers in self.neighbors()]

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        adj = self.neighbors()
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for peer in adj[node]:
                if peer not in seen:
                    seen.add(peer)
                    frontier.append(peer)
        return len(seen) == self.n

    def hubs(self, count: int = 3) -> List[int]:
        """The ``count`` highest-degree nodes, ties broken by node id."""
        degs = self.degrees()
        order = sorted(range(self.n), key=lambda i: (-degs[i], i))
        return order[: max(0, count)]


@dataclass(frozen=True)
class GeneratorEntry:
    """Registry record: the function plus its declared contract."""

    name: str
    fn: Callable[..., GeneratedTopology]
    params: FrozenSet[str]
    degree_shape: str
    description: str
    defaults: Tuple[Tuple[str, object], ...] = field(default=())


_GENERATORS: Dict[str, GeneratorEntry] = {}


def register_generator(
    name: str,
    *,
    params: Sequence[str] = (),
    degree_shape: str,
    description: str,
):
    """Class the decorated function as the generator for ``name``."""

    def wrap(fn: Callable[..., GeneratedTopology]):
        if name in _GENERATORS:
            raise TopologyError(f"generator {name!r} registered twice")
        defaults = tuple(
            (key, fn.__kwdefaults__[key]) for key in (fn.__kwdefaults__ or {})
        )
        _GENERATORS[name] = GeneratorEntry(
            name=name,
            fn=fn,
            params=frozenset(params),
            degree_shape=degree_shape,
            description=description,
            defaults=defaults,
        )
        return fn

    return wrap


def generator_names() -> List[str]:
    return sorted(_GENERATORS)


def generator_entry(name: str) -> GeneratorEntry:
    try:
        return _GENERATORS[name]
    except KeyError:
        raise TopologyError(
            f"unknown topology generator {name!r} "
            f"(choose from: {', '.join(generator_names())})"
        ) from None


def generate(kind: str, n: int, seed: int, **params) -> GeneratedTopology:
    """Build the ``kind`` graph on ``n`` nodes, deterministic in ``seed``."""
    entry = generator_entry(kind)
    if not isinstance(n, int) or n < 1:
        raise TopologyError(f"topology needs n >= 1 node, got {n!r}")
    unknown = sorted(set(params) - entry.params)
    if unknown:
        raise TopologyError(
            f"generator {kind!r} does not accept parameter(s) "
            f"{', '.join(unknown)} (accepts: "
            f"{', '.join(sorted(entry.params)) or 'none'})"
        )
    rng = random.Random(derive_seed(seed, "topology", kind))
    return entry.fn(n, rng, **params)


def _normalize(
    kind: str,
    n: int,
    edges,
    *,
    tier: Sequence[int] = (),
    community: Sequence[int] = (),
) -> GeneratedTopology:
    unique = sorted(
        {(min(u, v), max(u, v)) for u, v in edges if u != v}
    )
    return GeneratedTopology(
        kind=kind,
        n=n,
        edges=tuple(unique),
        tier=tuple(tier),
        community=tuple(community),
    )


def _require_count(kind: str, name: str, value: object) -> None:
    """A generator's integer parameter must be an int >= 1.

    Bools, floats and strings (a mistyped CLI value) are rejected here
    as :class:`TopologyError` rather than failing later inside the
    generator's arithmetic with a bare ``TypeError``.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise TopologyError(
            f"{kind} topology needs an integer {name} >= 1, got {value!r}"
        )


def _attachment_tree(n: int, rng: random.Random) -> List[Tuple[int, int]]:
    """A random recursive tree: node ``i`` attaches to a prior node."""
    return [(rng.randrange(i), i) for i in range(1, n)]


@register_generator(
    "random",
    params=("degree",),
    degree_shape="uniform",
    description="connected Erdos-Renyi-style graph around a random tree",
)
def _random_graph(n: int, rng: random.Random, *, degree: int = 4):
    _require_count("random", "degree", degree)
    edges = _attachment_tree(n, rng)
    # Top the spanning tree up to roughly n*degree/2 edges total.
    extra = max(0, n * degree // 2 - len(edges))
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return _normalize("random", n, edges)


@register_generator(
    "ring",
    params=(),
    degree_shape="constant",
    description="cycle over the nodes (degree 2 everywhere)",
)
def _ring_graph(n: int, rng: random.Random):
    if n < 3:
        edges = [(i, i + 1) for i in range(n - 1)]
    else:
        edges = [(i, (i + 1) % n) for i in range(n)]
    return _normalize("ring", n, edges)


@register_generator(
    "scale_free",
    params=("attach",),
    degree_shape="heavy_tail",
    description="Barabasi-Albert preferential attachment (power-law hubs)",
)
def _scale_free_graph(n: int, rng: random.Random, *, attach: int = 2):
    _require_count("scale_free", "attach", attach)
    core = min(attach + 1, n)
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    # Endpoint multiset: each edge contributes both ends, so a draw is
    # proportional to degree — the preferential-attachment kernel.
    endpoints: List[int] = [node for edge in edges for node in edge]
    if not endpoints:
        endpoints = [0]
    for new in range(core, n):
        targets = set()
        want = min(attach, new)
        while len(targets) < want:
            targets.add(endpoints[rng.randrange(len(endpoints))])
        for target in targets:
            edges.append((target, new))
            endpoints.append(target)
            endpoints.append(new)
    return _normalize("scale_free", n, edges)


@register_generator(
    "clustered",
    params=("clusters", "degree"),
    degree_shape="uniform",
    description="dense regional clusters joined by thin bridges",
)
def _clustered_graph(
    n: int, rng: random.Random, *, clusters: int = 3, degree: int = 4
):
    _require_count("clustered", "clusters", clusters)
    _require_count("clustered", "degree", degree)
    clusters = min(clusters, n)
    community = [i * clusters // n for i in range(n)]
    members: List[List[int]] = [[] for _ in range(clusters)]
    for node, home in enumerate(community):
        members[home].append(node)
    edges: List[Tuple[int, int]] = []
    for group in members:
        # Intra-cluster recursive tree plus densifying extras.
        for pos in range(1, len(group)):
            edges.append((group[rng.randrange(pos)], group[pos]))
        extra = max(0, len(group) * degree // 2 - max(0, len(group) - 1))
        for _ in range(extra):
            u = group[rng.randrange(len(group))]
            v = group[rng.randrange(len(group))]
            if u != v:
                edges.append((u, v))
    # One bridge between each pair of adjacent clusters keeps the graph
    # connected while leaving inter-cluster capacity thin.
    for left in range(clusters - 1):
        if members[left] and members[left + 1]:
            u = members[left][rng.randrange(len(members[left]))]
            v = members[left + 1][rng.randrange(len(members[left + 1]))]
            edges.append((u, v))
    return _normalize("clustered", n, edges, community=community)


@register_generator(
    "cdn_tiers",
    params=("tiers", "fanout"),
    degree_shape="tree",
    description="hierarchical CDN: origin, regional tiers, edge leaves",
)
def _cdn_tiers_graph(
    n: int, rng: random.Random, *, tiers: int = 3, fanout: int = 3
):
    _require_count("cdn_tiers", "tiers", tiers)
    _require_count("cdn_tiers", "fanout", fanout)
    tier = [0]
    edges: List[Tuple[int, int]] = []
    level_nodes = [0]
    next_node = 1
    for level in range(1, tiers):
        if next_node >= n:
            break
        new_level = []
        for parent in level_nodes:
            for _ in range(fanout):
                if next_node >= n:
                    break
                edges.append((parent, next_node))
                tier.append(level)
                new_level.append(next_node)
                next_node += 1
        if not new_level:
            break
        level_nodes = new_level
    # Leftover nodes become extra leaves on the deepest tier, attached
    # round-robin to that tier's parents so no parent is overloaded.
    deepest = max(tier)
    leaf_level = min(deepest + 1, tiers - 1)
    parent_level = max(0, leaf_level - 1)
    parents = [
        node for node, lvl in enumerate(tier) if lvl == parent_level
    ] or [0]
    slot = 0
    while next_node < n:
        edges.append((parents[slot % len(parents)], next_node))
        tier.append(leaf_level)
        next_node += 1
        slot += 1
    return _normalize("cdn_tiers", n, edges, tier=tier)
