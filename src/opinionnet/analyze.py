"""Component structure, edge betweenness, communities, and the profile census.

Conventions used throughout:

* Components and paths are computed over positive edges only; negative
  edges express disagreement, not connection.
* Node ids are compared lexicographically wherever a deterministic order or
  tie-break is needed.
* Edge betweenness counts each unordered node pair once, splitting equally
  among all shortest paths. The default engine is a source-blocked Brandes
  pass over a CSR index in float64. Its error is relative: each value is
  within K * 2**-53 of itself (to first order), K = n + 2 + (L - 1)(D + 2)
  for n nodes, BFS depth at most L and degree at most D, while path counts
  stay below 2**53. Its summation order is fixed, so its results are
  identical bit for bit on every run and machine, and equal to those of a
  plain per-source Brandes pass. exact=True switches to Fraction arithmetic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .normalize import SignMatrix
from .project import ProjectionGraph, _component_roots
from .rational import as_fraction, format_fraction


BETWEENNESS_BLOCK_BYTES = 3 * 2**20  # working set of one block of BFS sources
# 8-byte words per (source, node): sigma, delta, slot, the stored frontiers, a
# dense level's sums and heads; and per (source, edge): its contribution, its
# DAG entry (head, tail sigma, contribution slot, tail code), and a level's
# candidates (CSR position, head, the head's sigma)
_NODE_WORDS = 6
_EDGE_WORDS = 8
# a level whose DAG entries number at least this share of the block's
# (source, node) keys sums over the whole block; a sparser one over its heads
_DENSE_LEVEL_SHARE = 0.25


@dataclass
class ComponentReport:
    """Partition of the node set, largest component first."""

    components: list
    giant_fraction: Fraction
    n_nodes: int


def _grouped_components(nodes, us, vs):
    """Components of the edges (us, vs): members in id order, largest first, then by first id."""
    root = _component_roots(len(nodes), us, vs)
    groups: dict[int, list] = {}
    root = root.tolist()
    for i in sorted(range(len(nodes)), key=nodes.__getitem__):
        groups.setdefault(root[i], []).append(nodes[i])
    return sorted(groups.values(), key=lambda c: (-len(c), c[0]))


def _component_sizes(n_nodes, us, vs) -> list:
    """Component sizes over the edges (us, vs), largest first."""
    sizes = np.bincount(_component_roots(n_nodes, us, vs))
    return np.sort(sizes[sizes > 0])[::-1].tolist()


def connected_components(graph: ProjectionGraph) -> ComponentReport:
    """Connected components over the positive edges; isolated nodes count.

    Components are ordered by size descending, then by smallest member id;
    members are sorted lexicographically.
    """
    positive = graph.positive_mask()
    comps = _grouped_components(graph.nodes, graph.us[positive], graph.vs[positive])
    n = graph.n_nodes
    giant = Fraction(len(comps[0]), n) if comps else Fraction(0)
    return ComponentReport(components=comps, giant_fraction=giant, n_nodes=n)


def _betweenness_fast(n_nodes: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Float64 edge betweenness over unweighted shortest paths (Brandes).

    Directed edge i < E runs us[i] -> vs[i] and E + i runs back. A CSR
    index, built once per call, lists each node's out-edges in directed-edge
    index order. BFS sources run in blocks of as many as fit a working set
    of BETWEENNESS_BLOCK_BYTES; the block's state lives on flat
    (source, node) keys. Each level expands only the frontier's out-edges,
    and a source stops once it has reached its whole component, so the
    edge work per source is O(E) (Brandes 2001; the edge variant, Brandes
    2008). A level costs what it touches: a dense one sums over the whole
    block, a sparse one over compact codes of its own heads (_brandes_block).

    The summation order is that of a plain per-source pass, so the result
    equals it bit for bit: sigma[w] and delta[u] add their DAG edges in
    directed-edge index order (sigma sums of integers below 2**53 are exact
    in any order; larger ones are added in that order explicitly), and
    bet[e] adds the sources in ascending order. No BLAS call and no pairwise
    reduction touches these sums.
    """
    n_edges = len(us)
    bet = np.zeros(n_edges)
    if n_edges == 0 or n_nodes == 0:
        return bet
    tails = np.concatenate([us, vs]).astype(np.int64)
    heads = np.concatenate([vs, us]).astype(np.int64)
    out_edges = np.argsort(tails, kind="stable")  # directed ids by tail, index order within
    degree = np.bincount(tails, minlength=n_nodes)
    first_out = np.cumsum(degree) - degree
    csr = (first_out, degree,
           heads[out_edges] - tails[out_edges],  # head key minus tail key
           out_edges % n_edges,  # the undirected edge
           out_edges)
    root = _component_roots(n_nodes, us, vs)
    reach = np.bincount(root, minlength=n_nodes)[root]  # component size of each source
    per_source = 8 * (_NODE_WORDS * n_nodes + _EDGE_WORDS * n_edges)
    block = min(n_nodes, max(1, BETWEENNESS_BLOCK_BYTES // per_source))
    rows = np.empty((block + 1, n_edges))  # row 0 holds the running sums
    for s0 in range(0, n_nodes, block):
        s1 = min(s0 + block, n_nodes)
        part = rows[:s1 - s0 + 1]
        part[0] = bet
        part[1:] = 0.0
        _brandes_block(s0, s1, reach[s0:s1] - 1, n_nodes, csr, part[1:].reshape(-1))
        # row by row along axis 0, so each edge adds the sources in ascending
        # order (with a single edge numpy may sum pairwise, but its values are
        # then exact)
        np.add.reduce(part, axis=0, out=bet)
    return bet / 2.0


def _dense_level(entries: int, keys: int) -> bool:
    """Whether a level of this many DAG entries sums over all of its block's keys."""
    return entries >= _DENSE_LEVEL_SHARE * keys


def _brandes_block(s0: int, s1: int, unreached: np.ndarray, n_nodes: int, csr: tuple,
                   contrib: np.ndarray) -> None:
    """Write the edge contributions of sources s0..s1-1 into contrib, a zeroed
    flat array of one row of n_edges per source.

    csr holds, per node, its first CSR position and its degree, and per CSR
    position the head key minus the tail key, the undirected edge and the
    directed edge. unreached[r] counts the nodes source s0 + r still has to
    reach; a row stops expanding once it reaches its whole component.

    A level whose DAG entries number at least _DENSE_LEVEL_SHARE of the
    block's keys sums its path counts over the whole block; a sparser one
    gives each distinct head a slot (the entry a scatter kept for it) and
    sums over those slots. Either way each head adds its entries in the order
    they come, grouped by tail in CSR order; only the order of the tails
    differs, which no sum sees (see _betweenness_fast).
    """
    first_out, degree, out_step, out_eid, out_edges = csr
    n_edges = len(out_eid) // 2
    size = (s1 - s0) * n_nodes  # key = row * n_nodes + node
    sigma = np.zeros(size)  # 0 until reached
    slot = np.empty(size, dtype=np.int64)  # code of each tail, then of each new head
    row = np.flatnonzero(unreached > 0)
    node = row + s0
    frontier = row * n_nodes + node
    front_sigma = np.ones(row.size)
    sigma[frontier] = front_sigma
    levels = []  # per depth: (heads, tail sigmas, contribution slots, tail codes, tails)
    while frontier.size:
        first, deg = first_out[node], degree[node]
        slot[frontier] = np.arange(frontier.size)  # tails and new heads are distinct keys
        pos = (first + deg - deg.cumsum()).repeat(deg)
        pos += np.arange(pos.size)  # the frontier's out-edges, grouped by tail
        wkey = frontier.repeat(deg)
        wkey += out_step[pos]
        dag = (sigma[wkey] == 0).nonzero()[0]  # heads not reached before this depth
        wkey, pos = wkey[dag], pos[dag]
        tail = slot[wkey - out_step[pos]]
        su = front_sigma[tail]
        dense = _dense_level(wkey.size, size)
        if dense:
            code = wkey
        else:
            slot[wkey] = np.arange(wkey.size)  # one representative entry per head
            code = slot[wkey]
        sums = np.bincount(code, weights=su, minlength=size if dense else wkey.size)
        if sums.max() >= 2.0**53:
            # sums of integers below 2**53 are exact in any order; above, add
            # each head's terms in directed-edge index order
            order = np.argsort(code * (2 * n_edges) + out_edges[pos])
            sums = np.bincount(code[order], weights=su[order], minlength=sums.size)
        reps = (sums > 0).nonzero()[0]  # a bool mask: nonzero() on floats is far slower
        heads = reps if dense else wkey[reps]
        front_sigma = sums[reps]
        sigma[heads] = front_sigma
        levels.append((wkey, su, (row * n_edges)[tail] + out_eid[pos], tail, frontier))
        row = heads // n_nodes
        node = heads - row * n_nodes
        unreached -= np.bincount(row, minlength=s1 - s0)
        going = unreached[row] > 0
        frontier = heads
        if not going.all():
            frontier, row, node, front_sigma = (a[going] for a in (heads, row, node, front_sigma))

    delta = np.zeros(size)
    for wkey, su, cslot, tail, tails in reversed(levels):
        c = su / sigma[wkey] * (1.0 + delta[wkey])
        contrib[cslot] = c
        delta[tails] = np.bincount(tail, weights=c, minlength=tails.size)  # each tail in index order


def _betweenness_exact(n_nodes: int, us, vs) -> list:
    """Fraction-valued edge betweenness (pure-Python Brandes)."""
    n_edges = len(us)
    adjacency: list[list] = [[] for _ in range(n_nodes)]
    for e, (a, b) in enumerate(zip(us, vs)):
        adjacency[int(a)].append((int(b), e))
        adjacency[int(b)].append((int(a), e))
    bet = [Fraction(0)] * n_edges
    for s in range(n_nodes):
        dist = [-1] * n_nodes
        sigma = [0] * n_nodes
        preds: list[list] = [[] for _ in range(n_nodes)]
        order = []
        dist[s] = 0
        sigma[s] = 1
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w, e in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append((v, e))
        delta = [Fraction(0)] * n_nodes
        for w in reversed(order):
            dw = delta[w]
            for v, e in preds[w]:
                contrib = Fraction(sigma[v], sigma[w]) * (1 + dw)
                bet[e] += contrib
                delta[v] += contrib
    return [b / 2 for b in bet]


def edge_betweenness(graph: ProjectionGraph, *, exact: bool = False) -> dict:
    """Edge betweenness of the positive subgraph, keyed by (u, v).

    Each unordered node pair contributes once, split equally among its
    shortest paths. Float64 by default; exact=True returns Fractions.
    """
    positive = graph.positive_mask()
    us, vs = graph.us[positive], graph.vs[positive]
    if exact:
        values = _betweenness_exact(graph.n_nodes, us, vs)
    else:
        values = _betweenness_fast(graph.n_nodes, us, vs).tolist()
    nodes = graph.nodes
    return {(nodes[a], nodes[b]): value for a, b, value in zip(us.tolist(), vs.tolist(), values)}


@dataclass
class RemovalStep:
    edge: tuple
    betweenness: float
    component_sizes: list

    def to_dict(self) -> dict:
        return {
            "edge": list(self.edge),
            "betweenness": self.betweenness,
            "component_sizes": self.component_sizes,
        }


@dataclass
class CommunityReport:
    """Outcome of iterative highest-betweenness edge removal."""

    removed_edges: list
    removed_fraction: Fraction
    final_components: list
    history: list = field(default_factory=list)
    status: str = "split"
    original_edge_count: int = 0

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "original_edge_count": self.original_edge_count,
            "removed_count": len(self.removed_edges),
            "removed_fraction": format_fraction(self.removed_fraction),
            "removed_fraction_decimal": float(self.removed_fraction),
            "removed_edges": [list(e) for e in self.removed_edges],
            "component_sizes": [len(c) for c in self.final_components],
            "final_components": [list(c) for c in self.final_components],
            "history": [h.to_dict() for h in self.history],
        }


def girvan_newman(graph: ProjectionGraph, target_components: int = 2,
                  max_removed_fraction=Fraction(1)) -> CommunityReport:
    """Split the positive subgraph by repeated highest-betweenness removal.

    Each iteration recomputes betweenness on the current graph and removes
    the single highest-betweenness edge; ties (values within an absolute
    1e-9 of the maximum) break to the lexicographically smallest (u, v).
    The float engine's error is relative (see the module docstring), so on
    large graphs it can exceed that tolerance. Stops once the component
    count reaches the target or the removal budget (a fraction of the
    original edge count) is exhausted, in which case the partial history is
    returned with status budget_exhausted.
    A target above the node count can never be reached and is refused.
    Every component counts, isolated nodes included: on a projection that
    leaves a participant isolated, a target of 2 is met before any removal,
    so pass the giant component's subgraph to split the giant.
    """
    if target_components < 1:
        raise ValidationError("target component count must be at least 1")
    budget_fraction = as_fraction(max_removed_fraction)
    if not (0 <= budget_fraction <= 1):
        raise ValidationError("max removed fraction must lie in [0, 1]")

    n = graph.n_nodes
    if target_components > n:  # removing every edge leaves n components, and no more
        raise ValidationError(f"target component count {target_components} exceeds the "
                              f"graph's {n} nodes, so no split can reach it")
    positive = graph.positive_mask()  # canonical (u, v) order
    us, vs = graph.us[positive], graph.vs[positive]
    original_count = len(us)

    budget = (budget_fraction.numerator * original_count) // budget_fraction.denominator
    removed: list[tuple] = []
    history: list[RemovalStep] = []
    satisfied = len(_component_sizes(n, us, vs)) >= target_components
    status = "already_satisfied" if satisfied else "budget_exhausted"
    while status == "budget_exhausted" and len(removed) < budget:
        bet = _betweenness_fast(n, us, vs)
        # values within an absolute 1e-9 of the maximum are ties (the float
        # error is relative and can exceed it on large graphs); the first of
        # them is the lexicographically smallest edge
        k = int(np.flatnonzero(bet >= bet.max() - 1e-9)[0])
        removed.append((graph.nodes[us[k]], graph.nodes[vs[k]]))
        value = float(bet[k])
        us = np.delete(us, k)
        vs = np.delete(vs, k)
        sizes = _component_sizes(n, us, vs)
        history.append(RemovalStep(removed[-1], value, sizes))
        if len(sizes) >= target_components:
            status = "split"

    fraction = Fraction(len(removed), original_count) if original_count else Fraction(0)
    return CommunityReport(
        removed_edges=removed,
        removed_fraction=fraction,
        final_components=_grouped_components(graph.nodes, us, vs),
        history=history,
        status=status,
        original_edge_count=original_count,
    )


@dataclass
class ProfileCensus:
    """Tally of distinct sign profiles against the space of possible ones."""

    m_binary: int
    n_participants: int
    profiles: dict

    @property
    def realized_profiles(self) -> int:
        return len(self.profiles)

    @property
    def fraction_of_binary_space(self) -> Fraction:
        return Fraction(self.realized_profiles, 2**self.m_binary)

    @property
    def fraction_of_ternary_space(self) -> Fraction:
        return Fraction(self.realized_profiles, 3**self.m_binary)

    @property
    def has_neutral_or_missing(self) -> bool:
        return bool(set().union(*self.profiles) & {"0", "?"})

    @property
    def space(self) -> int:
        """k^m, k the symbols in use: + and -, 0 if any is neutral, ? if any is missing."""
        symbols = set().union(*self.profiles)
        return (2 + ("0" in symbols) + ("?" in symbols)) ** self.m_binary

    @property
    def realized_fraction(self) -> Fraction:
        """Against the space of possible profiles, k^m."""
        return Fraction(self.realized_profiles, self.space)

    def to_dict(self) -> dict:
        return {
            "m_binary": self.m_binary,
            "n_participants": self.n_participants,
            "realized_profiles": self.realized_profiles,
            "has_neutral_or_missing": self.has_neutral_or_missing,
            "realized_fraction": format_fraction(self.realized_fraction),
            "realized_fraction_decimal": float(self.realized_fraction),
            "fraction_of_binary_space": format_fraction(self.fraction_of_binary_space),
            "fraction_of_ternary_space": format_fraction(self.fraction_of_ternary_space),
            "profiles": {k: self.profiles[k] for k in sorted(self.profiles)},
        }


def profile_census(signs: SignMatrix) -> ProfileCensus:
    """Count each distinct full sign profile ('+', '-', '0', '?' for missing)."""
    lut = np.array([ord("-"), ord("0"), ord("+")], dtype=np.uint8)
    chars = lut[signs.signs.astype(np.int64) + 1].astype(np.uint8)
    chars[~signs.mask] = ord("?")
    counts: dict[str, int] = {}
    for row in chars:
        profile = row.tobytes().decode("ascii")
        counts[profile] = counts.get(profile, 0) + 1
    return ProfileCensus(m_binary=signs.n_items, n_participants=signs.n_participants,
                         profiles=counts)
