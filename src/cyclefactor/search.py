"""Seeded local search for d-regular digraphs with large certified excess.

A generate-score-prune-mutate beam: random regular digraphs from the
permutation-superposition model, exact scoring through certify, fingerprint
dedup, 2-swap mutations, and restarts for stagnant lineages.  Every random
draw descends from one 64-bit master seed through splitmix64-derived
per-lineage streams, so runs are bit-reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import GenerationError
from .graphs import Arc, DiGraph, fingerprint
from .verify import Certificate, certify

_MASK64 = (1 << 64) - 1

DEFAULT_SEED = 2026
# swap moves from a parent to its child in one iteration
MOVES_PER_STEP = 1
# iterations without a new lineage best before the lineage restarts
RESTART_AFTER = 25


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: (state, output), both 64-bit."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


class SeedStream:
    """Deterministic stream of child seeds drawn from one master seed.

    Each lineage gets its own random.Random built from the next splitmix64
    output, so draws inside one lineage never depend on the others.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_seed(self) -> int:
        self._state, out = splitmix64(self._state)
        return out

    def next_rng(self) -> random.Random:
        return random.Random(self.next_seed())


@dataclass(frozen=True)
class SearchConfig:
    n: int
    d: int
    seed: int = DEFAULT_SEED
    population: int = 32
    iterations: int = 200

    def __post_init__(self):
        if self.d < 2 or self.n < self.d:
            raise ValueError("need d >= 2 and n >= d")
        if self.n % self.d != 0:
            raise ValueError("the benchmark needs d | n")
        if self.population < 1 or self.iterations < 0:
            raise ValueError("need population >= 1 and iterations >= 0")


@dataclass(frozen=True)
class SearchRecord:
    """One leaderboard entry; the certificate re-verifies from its graph."""

    certificate: Certificate
    iteration: int
    fingerprint: int
    lineage: str  # "random" or the parent graph's fingerprint in hex


def random_regular_digraph(
    n: int, d: int, rng: random.Random, max_tries: int = 2000
) -> DiGraph:
    """Sample a d-regular digraph as a union of d random permutations.

    Each layer is drawn uniformly among permutations arc-disjoint from the
    layers already placed, by rejection with max_tries shuffles per layer;
    loops and 2-cycles are admissible outcomes.  n == d short-circuits to
    the complete looped digraph, the only d-regular digraph on d vertices.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    if n == d:
        return DiGraph(n, [range(n)] * n)
    base = list(range(n))
    rows: list[set[int]] = [set() for _ in range(n)]
    for _ in range(d):
        for _ in range(max_tries):
            perm = base[:]
            rng.shuffle(perm)
            if all(w not in rows[v] for v, w in enumerate(perm)):
                for v, w in enumerate(perm):
                    rows[v].add(w)
                break
        else:
            raise GenerationError(
                f"no permutation disjoint from the placed layers in {max_tries} tries"
            )
    return DiGraph(n, [sorted(r) for r in rows])


def apply_swap(g: DiGraph, first: Arc, second: Arc) -> DiGraph:
    """Rewire arcs u->v, x->y into u->y, x->v; degrees are preserved.

    Applying the same pair to the result restores the original arc set.
    """
    (u, v), (x, y) = first, second
    if u == x or v == y:
        raise ValueError("swap needs distinct tails and distinct heads")
    if not (g.has_arc(u, v) and g.has_arc(x, y)):
        raise ValueError("both arcs must be present")
    if g.has_arc(u, y) or g.has_arc(x, v):
        raise ValueError("swap would create a parallel arc")
    rows = [list(row) for row in g.out]
    rows[u].remove(v)
    rows[u].append(y)
    rows[x].remove(y)
    rows[x].append(v)
    return DiGraph(g.n, rows, g.labels)


def swap_move(g: DiGraph, rng: random.Random, tries: int = 64) -> DiGraph:
    """One random degree-preserving 2-swap; g unchanged if none is found."""
    arcs = list(g.arcs())
    m = len(arcs)
    if m < 2:
        return g
    for _ in range(tries):
        u, v = arcs[rng.randrange(m)]
        x, y = arcs[rng.randrange(m)]
        if u != x and v != y and not g.has_arc(u, y) and not g.has_arc(x, v):
            return apply_swap(g, (u, v), (x, y))
    return g


class _Lineage:
    __slots__ = ("graph", "rng", "origin", "best", "stale")

    def __init__(
        self, graph: DiGraph | None, rng: random.Random, origin: str, best: Fraction | None
    ):
        self.graph = graph
        self.rng = rng
        self.origin = origin
        self.best = best
        self.stale = 0


def run_search(config: SearchConfig, sink=None) -> list[SearchRecord]:
    """Beam search over d-regular digraphs maximizing certified excess.

    Per iteration every lineage proposes a mutated child; parents and
    children are ranked by exact excess with fingerprint dedup, the top
    `population` survive, and lineages that have not improved for
    RESTART_AFTER iterations restart from a fresh random graph.  Every
    graph here is d-regular, so it has a cycle-factor (its bipartite double
    cover is d-regular, and Hall's theorem gives a perfect matching) and
    certify never raises NoCycleFactorError.
    The returned leaderboard is sorted by descending excess and capped at
    `population` entries; `sink`, when given, receives each record the
    moment it first enters the leaderboard.
    """
    stream = SeedStream(config.seed)
    leaderboard: dict[int, SearchRecord] = {}
    evaluated: dict[DiGraph, tuple[Certificate, int]] = {}

    def evaluate(g: DiGraph, it: int, origin: str) -> tuple[Certificate, int]:
        # a graph is offered to the leaderboard once, when first evaluated;
        # offering it again cannot beat the record it already set or met
        if g not in evaluated:
            cert, fp = evaluated[g] = certify(g, config.d), fingerprint(g)
            held = leaderboard.get(fp)
            if held is None or cert.excess > held.certificate.excess:
                rec = leaderboard[fp] = SearchRecord(cert, it, fp, origin)
                if sink is not None:
                    sink(rec)
        return evaluated[g]

    def fresh(it: int) -> _Lineage:
        rng = stream.next_rng()
        try:
            g = random_regular_digraph(config.n, config.d, rng)
        except GenerationError:
            return _Lineage(None, rng, "random", None)  # dropped next iteration
        return _Lineage(g, rng, "random", evaluate(g, it, "random")[0].excess)

    pop = [fresh(0) for _ in range(config.population)]
    for it in range(1, config.iterations + 1):
        # rank parents and mutated children together
        ranked: list[tuple[Fraction, int, DiGraph, _Lineage, str]] = []
        seen_fps: set[int] = set()
        for member in pop:
            if member.graph is None:
                continue
            child = member.graph
            for _ in range(MOVES_PER_STEP):
                child = swap_move(child, member.rng)
            parent_tag = f"{evaluated[member.graph][1]:016x}"
            for g, origin in ((member.graph, member.origin), (child, parent_tag)):
                cert, fp = evaluate(g, it, origin)
                if fp not in seen_fps:
                    seen_fps.add(fp)
                    ranked.append((-cert.excess, fp, g, member, origin))
        ranked.sort(key=lambda e: (e[0], e[1]))
        survivors: list[_Lineage] = []
        used_members: set[int] = set()
        for neg_excess, fp, g, member, origin in ranked[: config.population]:
            if id(member) in used_members:
                # parent and child both survive: the child forks its own stream
                survivors.append(_Lineage(g, stream.next_rng(), origin, -neg_excess))
                continue
            used_members.add(id(member))
            member.graph, member.origin = g, origin
            if -neg_excess > member.best:
                member.best, member.stale = -neg_excess, 0
            else:
                member.stale += 1
            survivors.append(member)
        # restarts draw from the stream only after every fork above
        pop = [fresh(it) if m.stale >= RESTART_AFTER else m for m in survivors]
        pop += [fresh(it) for _ in range(config.population - len(pop))]

    final = sorted(
        leaderboard.values(),
        key=lambda r: (-r.certificate.excess, r.fingerprint, r.iteration),
    )
    return final[: config.population]
