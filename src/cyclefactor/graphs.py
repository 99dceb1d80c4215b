"""Vertex-indexed digraphs and undirected graphs with exact structural helpers.

Directed graphs are finite, may carry loops and 2-cycles, and never have
parallel arcs.  Vertices are the dense integers 0..n-1.  Graphs are immutable
after construction and therefore safe to share freely.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Arc = tuple[int, int]


class DiGraph:
    """Immutable digraph stored as per-vertex sorted out-neighbor tuples.

    A loop is the vertex itself appearing in its own out-set.  Membership
    tests go through per-vertex bitmasks (Python ints, so any n works).
    """

    __slots__ = ("n", "out", "labels", "_in", "_masks")

    def __init__(
        self,
        n: int,
        out_adj: Sequence[Iterable[int]],
        labels: tuple[str, ...] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(out_adj) != n:
            raise ValueError(f"expected {n} out-neighbor rows, got {len(out_adj)}")
        rows = []
        for v, ws in enumerate(out_adj):
            row = tuple(sorted(ws))
            for w in row:
                if not 0 <= w < n:
                    raise ValueError(f"out-neighbor {w} of {v} out of range 0..{n - 1}")
            if len(set(row)) != len(row):
                raise ValueError(f"parallel arcs at vertex {v}")
            rows.append(row)
        if labels is not None and len(labels) != n:
            raise ValueError("labels must cover every vertex")
        self.n = n
        self.out = tuple(rows)
        self.labels = labels
        self._in: tuple[tuple[int, ...], ...] | None = None
        self._masks: tuple[int, ...] | None = None

    @property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        if self._in is None:
            preds: list[list[int]] = [[] for _ in range(self.n)]
            for u in range(self.n):
                for w in self.out[u]:
                    preds[w].append(u)
            self._in = tuple(tuple(p) for p in preds)  # already sorted by u
        return self._in

    @property
    def out_masks(self) -> tuple[int, ...]:
        if self._masks is None:
            self._masks = tuple(
                sum(1 << w for w in row) for row in self.out
            )
        return self._masks

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out_masks[u] >> v & 1)

    def arcs(self) -> Iterator[Arc]:
        for u in range(self.n):
            for w in self.out[u]:
                yield (u, w)

    @property
    def num_arcs(self) -> int:
        return sum(len(row) for row in self.out)

    @property
    def loop_count(self) -> int:
        return sum(1 for v in range(self.n) if self.has_arc(v, v))

    def out_degree(self, v: int) -> int:
        return len(self.out[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_adj[v])

    def relabel(self, perm: Sequence[int]) -> "DiGraph":
        """Image under the vertex bijection v -> perm[v]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        rows: list[list[int]] = [[] for _ in range(self.n)]
        for u in range(self.n):
            rows[perm[u]] = [perm[w] for w in self.out[u]]
        labels = None
        if self.labels is not None:
            relab = [""] * self.n
            for v in range(self.n):
                relab[perm[v]] = self.labels[v]
            labels = tuple(relab)
        return DiGraph(self.n, rows, labels)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiGraph)
            and self.n == other.n
            and self.out == other.out
        )

    def __hash__(self) -> int:
        return hash((self.n, self.out))

    def __repr__(self) -> str:
        return f"DiGraph(n={self.n}, arcs={self.num_arcs})"


class UGraph:
    """Immutable simple loopless undirected graph (symmetric sorted adjacency)."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"loop at {u} not allowed in an undirected graph")
            rows[u].add(v)
            rows[v].add(u)
        self.n = n
        self.adj = tuple(tuple(sorted(r)) for r in rows)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def num_edges(self) -> int:
        return sum(len(r) for r in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def is_regular(self, d: int) -> bool:
        return all(len(r) == d for r in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UGraph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"UGraph(n={self.n}, edges={self.num_edges})"


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph on left vertices 0..n_left-1 and right vertices 0..n_right-1."""

    n_left: int
    n_right: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n_left and 0 <= v < self.n_right):
                raise ValueError(f"edge ({u},{v}) out of range")

    def is_regular(self, d: int) -> bool:
        left = Counter(u for u, _ in self.edges)
        right = Counter(v for _, v in self.edges)
        return all(left[u] == d for u in range(self.n_left)) and all(
            right[v] == d for v in range(self.n_right)
        )

    def biadjacency_rows(self) -> list[list[int]]:
        """0/1 matrix rows; entry [u][v] = 1 iff (u,v) is an edge."""
        rows = [[0] * self.n_right for _ in range(self.n_left)]
        for u, v in self.edges:
            rows[u][v] = 1
        return rows


def is_d_regular(g: DiGraph, d: int) -> bool:
    """True iff every vertex has out-degree d and in-degree d."""
    return all(len(row) == d for row in g.out) and all(
        len(row) == d for row in g.in_adj
    )


def disjoint_union(gs: Sequence[DiGraph]) -> DiGraph:
    """Block-diagonal union; vertex indices are offset by cumulative sizes."""
    rows: list[list[int]] = []
    labels: list[str] = []
    any_labels = any(g.labels is not None for g in gs)
    offset = 0
    for g in gs:
        for v in range(g.n):
            rows.append([w + offset for w in g.out[v]])
        if any_labels:
            labels.extend(g.labels if g.labels is not None else ("",) * g.n)
        offset += g.n
    return DiGraph(offset, rows, tuple(labels) if any_labels else None)


def u_disjoint_union(gs: Sequence[UGraph]) -> UGraph:
    edges: list[tuple[int, int]] = []
    offset = 0
    for g in gs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return UGraph(offset, edges)


def double_cover(g: DiGraph) -> BipartiteGraph:
    """Bipartite double cover: left/right copies of V, edge (u_L, v_R) iff u -> v.

    Perfect matchings of the result correspond bijectively to cycle-factors
    of g, so the permanent of its biadjacency matrix counts them.
    """
    return BipartiteGraph(
        g.n, g.n, frozenset((u, w) for u in range(g.n) for w in g.out[u])
    )


# ---------------------------------------------------------------------------
# Relabeling-insensitive fingerprint
# ---------------------------------------------------------------------------

_EMPTY_SENTINEL = int.from_bytes(
    hashlib.blake2b(b"digraph:empty", digest_size=8).digest(), "big"
)


def _rank(signatures: list) -> list[int]:
    order = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    return [order[sig] for sig in signatures]


def fingerprint(g: DiGraph) -> int:
    """Deterministic 64-bit hash, invariant under vertex relabeling.

    Built from iterated neighborhood refinement seeded with degree and
    out/in neighborhood-overlap profiles.  Refinement stops at the first
    round that splits no class, and after n rounds at most: each signature
    leads with the old rank, so such a round returns the ranks unchanged.
    Distinct fingerprints imply non-isomorphic graphs; equal fingerprints
    imply nothing, so this is a dedup heuristic, not a canonical form.
    """
    n = g.n
    if n == 0:
        return _EMPTY_SENTINEL
    out_sets = [set(row) for row in g.out]
    in_sets = [set(row) for row in g.in_adj]
    base = []
    for v in range(n):
        over_out = tuple(sorted(len(out_sets[v] & out_sets[w]) for w in g.out[v]))
        over_in = tuple(sorted(len(in_sets[v] & in_sets[w]) for w in g.in_adj[v]))
        base.append(
            (len(g.out[v]), len(g.in_adj[v]), g.has_arc(v, v), over_out, over_in)
        )
    ranks = _rank(base)
    for _ in range(n):
        sigs = [
            (
                ranks[v],
                tuple(sorted(ranks[w] for w in g.out[v])),
                tuple(sorted(ranks[u] for u in g.in_adj[v])),
            )
            for v in range(n)
        ]
        refined = _rank(sigs)
        if refined == ranks:  # a fixed point: every later round returns it too
            break
        ranks = refined
    payload = (
        n,
        tuple(sorted(Counter(ranks).items())),
        tuple(sorted((ranks[u], ranks[w]) for u, w in g.arcs())),
    )
    digest = hashlib.blake2b(repr(payload).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# ---------------------------------------------------------------------------
# Line-based text format
# ---------------------------------------------------------------------------
#
#   n d_hint
#   v: w1 w2 ... wk        (one line per vertex, neighbors increasing)
#
# d_hint is -1 when the degree is unknown.  to_text(from_text(s)) == s for
# any canonically formatted s.


def to_text(g: DiGraph, d_hint: int = -1) -> str:
    lines = [f"{g.n} {d_hint}"]
    for v in range(g.n):
        lines.append(f"{v}:" + "".join(f" {w}" for w in g.out[v]))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> tuple[DiGraph, int]:
    """Parse the text graph format; returns (graph, d_hint)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header {lines[0]!r}: expected 'n d_hint'")
    n, d_hint = int(head[0]), int(head[1])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} vertex lines, got {len(lines) - 1}")
    rows = []
    for v, line in enumerate(lines[1:]):
        label, _, rest = line.partition(":")
        if not _ or int(label) != v:
            raise ValueError(f"line {v + 2}: expected '{v}: ...', got {line!r}")
        ws = [int(tok) for tok in rest.split()]
        if ws != sorted(set(ws)):
            raise ValueError(f"line {v + 2}: out-neighbors must be strictly increasing")
        rows.append(ws)
    return DiGraph(n, rows), d_hint


def ugraph_to_digraph(g: UGraph) -> DiGraph:
    """Symmetric digraph encoding of an undirected graph (for the text format)."""
    return DiGraph(g.n, [list(row) for row in g.adj])


def digraph_to_ugraph(g: DiGraph) -> UGraph:
    """Inverse of ugraph_to_digraph; rejects loops and one-way arcs."""
    for u, w in g.arcs():
        if u == w:
            raise ValueError(f"loop at {u}: not an undirected graph encoding")
        if not g.has_arc(w, u):
            raise ValueError(f"arc {u}->{w} lacks its reverse")
    return UGraph(g.n, [(u, w) for u, w in g.arcs() if u < w])
