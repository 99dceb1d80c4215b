"""Seeded local search for d-regular digraphs with large certified excess.

A generate-score-prune-mutate beam: random regular digraphs from the
permutation-superposition model, exact scoring through certify once per
isomorphism class, dedup by canonical form, 2-swap mutations, and restarts
for stagnant lineages.  Every random draw descends from one 64-bit master
seed through splitmix64-derived per-lineage streams, so runs are
bit-reproducible.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

# GenerationError stays importable from here: perfbench/workloads.py names
# search.GenerationError, though no sampler of this module raises it
from .errors import GenerationError, InternalCheckError  # noqa: F401
from .graphs import Arc, DiGraph, canonical_form, fingerprint
from .verify import Certificate, certify

_MASK64 = (1 << 64) - 1

DEFAULT_SEED = 2026
# iterations without a new lineage best before the lineage restarts
RESTART_AFTER = 25
# shuffles per permutation layer before random_regular_digraph completes
# the layer with a matching of the residual instead
MAX_LAYER_TRIES = 2000
# random arc pairs swap_move draws before it returns the graph unchanged
SWAP_TRIES = 64


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


def random_regular_digraph(n: int, d: int, rng: random.Random) -> DiGraph:
    """Sample a d-regular digraph as a union of d random permutations.

    Each layer is a permutation arc-disjoint from the layers already
    placed, drawn by rejection with MAX_LAYER_TRIES shuffles per layer, so
    a layer is uniform among such permutations while rejection succeeds.
    When every shuffle fails (often at dense sizes such as n = 2d), the
    layer is a random perfect matching of the residual instead
    (_residual_matching), so the sampler never fails.  Loops and 2-cycles
    are admissible outcomes.  n == d short-circuits to the complete looped
    digraph, the only d-regular digraph on d vertices.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    if n == d:
        return DiGraph(n, [range(n)] * n)
    base = list(range(n))
    rows: list[set[int]] = [set() for _ in range(n)]
    for _ in range(d):
        for _ in range(MAX_LAYER_TRIES):
            perm = base[:]
            rng.shuffle(perm)
            if all(w not in rows[v] for v, w in enumerate(perm)):
                break
        else:
            perm = _residual_matching(rows, rng)
        for v, w in enumerate(perm):
            rows[v].add(w)
    return DiGraph(n, [sorted(r) for r in rows])


def _residual_matching(rows: list[set[int]], rng: random.Random) -> list[int]:
    """A perfect matching of tails v to heads w not in rows[v], as a list.

    After k permutation layers the residual is (n - k)-regular bipartite,
    so by Hall's theorem the matching exists.  Each tail's candidates are
    shuffled with rng, and each tail in turn is matched along a shortest
    augmenting path, found breadth first so no recursion depth grows
    with n.
    """
    n = len(rows)
    candidates = []
    for row in rows:
        heads = [w for w in range(n) if w not in row]
        rng.shuffle(heads)
        candidates.append(heads)
    head_of = [-1] * n  # tail -> matched head
    tail_of = [-1] * n  # head -> matched tail
    for root in range(n):
        reached_from = {}  # head -> the tail whose candidates reached it first
        queue = [root]
        for t in queue:
            free = next((w for w in candidates[t] if tail_of[w] < 0), -1)
            if free >= 0:
                reached_from[free] = t
                break
            for w in candidates[t]:
                if w not in reached_from:
                    reached_from[w] = t
                    queue.append(tail_of[w])
        else:
            raise InternalCheckError("the residual of the placed layers has no perfect matching")
        w = free
        while w >= 0:  # each tail on the path takes the head that reached it
            t = reached_from[w]
            tail_of[w] = t
            head_of[t], w = w, head_of[t]
    return head_of


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
    # the checks above keep both new rows duplicate-free; the rest are shared
    rows = list(g.out)
    rows[u] = tuple(sorted([y if w == v else w for w in rows[u]]))
    rows[x] = tuple(sorted([v if w == y else w for w in rows[x]]))
    return DiGraph._of_rows(tuple(rows))


def swap_move(g: DiGraph, rng: random.Random) -> DiGraph:
    """One random degree-preserving 2-swap; g unchanged if none is found.

    Draws up to SWAP_TRIES random arc pairs and applies the first valid one.
    Every out-degree must be the same d, as in every search graph, so the
    k-th arc of g.arcs() is read in place as out[k // d][k % d].
    """
    out = g.out
    if len(set(map(len, out))) > 1:
        raise ValueError("swap_move needs equal out-degrees")
    d = len(out[0]) if out else 0
    m = g.n * d
    if m < 2:
        return g
    for _ in range(SWAP_TRIES):
        u, i = divmod(rng.randrange(m), d)
        x, j = divmod(rng.randrange(m), d)
        v, y = out[u][i], out[x][j]
        if u != x and v != y and y not in out[u] and v not in out[x]:
            return apply_swap(g, (u, v), (x, y))
    return g


_Rank = tuple[float, Fraction, int]


def _rank_key(rec: SearchRecord) -> _Rank:
    """Sort key ranking records by descending exact excess, then fingerprint.

    The excess leads as a float: float() is monotone, so two keys whose
    floats differ are in the order of their Fractions, and two whose floats
    are equal fall through to the exact Fraction.  The order is that of
    (-excess, fingerprint), with a Fraction compared only on a float tie.
    """
    neg = -rec.certificate.excess
    return float(neg), neg, rec.fingerprint


def _row_key(rows: tuple[tuple[int, ...], ...]) -> int:
    """The adjacency matrix of rows, a digraph on n = len(rows) vertices, as
    one n*n-bit integer, row 0 in the highest n bits.

    Injective for a fixed n: arc u->w sets bit (n-1-u)*n + w alone, as
    0 <= w < n, so the rows read back from the bits, and every graph of
    one search has the same n.  Exact for every n, where a byte per entry
    stops at 256; at n = 8 the key is a 64-bit int of 36 bytes.
    """
    n = len(rows)
    key = 0
    for row in rows:
        mask = 0
        for w in row:
            mask |= 1 << w
        key = key << n | mask
    return key


def _final_key(rec: SearchRecord) -> tuple[Fraction, int, int]:
    return -rec.certificate.excess, rec.fingerprint, rec.iteration


def _admit(top: list[SearchRecord], rec: SearchRecord, size: int) -> None:
    """Admit rec to top, a leaderboard of at most `size` records.

    Fed the records one at a time, top stays sorted(records so far,
    key=_final_key)[:size], equal keys in arrival order as the stable sort
    leaves them; a record whose excess is below the last kept one's when
    top is full cannot enter and is passed over without a key.
    """
    if len(top) < size or rec.certificate.excess >= top[-1].certificate.excess:
        insort(top, rec, key=_final_key)
        del top[size:]


class _Lineage:
    """One population member: its graph, the _row_key of its class and the
    class's _rank_key, its own random stream, its best excess so far and
    the iterations since that best."""

    __slots__ = ("graph", "key", "rank", "rng", "best", "stale")

    def __init__(self, graph: DiGraph, key: int, rank: _Rank, rng: random.Random):
        self.graph = graph
        self.key = key
        self.rank = rank
        self.rng = rng
        self.best = -rank[1]
        self.stale = 0


def run_search(config: SearchConfig, sink=None) -> list[SearchRecord]:
    """Beam search over d-regular digraphs maximizing certified excess.

    Per iteration every lineage proposes a mutated child; parents and
    children are ranked by exact excess, one graph per isomorphism class,
    the top `population` survive, and lineages that have not improved for
    RESTART_AFTER iterations restart from a fresh random graph.  Every
    graph drawn or mutated is put in canonical form, which is exact, and
    its class is looked up in the one cache, keyed by _row_key of the
    form, the adjacency matrix as one integer, so no graph outlives its
    lineage; a class met for the first time is certified and fingerprinted
    then, once.  The cache holds one int per class: the 64-bit fingerprint,
    with the bits above it indexing a table of the distinct excesses met,
    each as the leading (float, Fraction) pair of a _rank_key.  Far fewer
    excesses than classes occur, so the class's rank tuple is rebuilt from
    the int whenever the class is met, and the lineages and the
    per-iteration dedup tell classes apart by their _row_key, which a
    fingerprint collision cannot merge.  The full record of a class lives
    only while it is on the leaderboard.  The cache grows with classes, not
    with labeled graphs: at (8, 4) with population 64, seed 2026, the
    search's traced allocations peak at about 1.3 MiB after 200 iterations
    (6,316 classes, 1,173 excesses) and 1.55 MiB after 500 (9,032 and
    1,430), in a process whose tuple free lists an earlier search filled,
    and the CLI process at about 18.2 and 18.5 MiB RSS.  The
    fingerprint digests the canonical form already in hand, and is the
    printed identity, the lineage tag and the tie-break.  The ranking
    compares excesses as floats first and as Fractions only on a float tie
    (_rank_key), which gives the exact order.  Every graph here is
    d-regular, so it has a cycle-factor (its bipartite double cover is
    d-regular, and Hall's theorem gives a perfect matching) and certify
    never raises NoCycleFactorError.
    The returned leaderboard holds one record per class certified, sorted
    by descending excess and capped at `population` entries, kept up to
    date by _admit as each class is certified; `sink`, when given,
    receives each record the moment its class is certified.
    """
    stream = SeedStream(config.seed)
    # every class met, by its canonical rows, to its fingerprint plus, from
    # bit 64 up, the index of its excess pair in `excesses`
    classes: dict[int, int] = {}
    excesses: list[tuple[float, Fraction]] = []
    excess_index: dict[tuple[float, Fraction], int] = {}
    top: list[SearchRecord] = []

    def evaluate(g: DiGraph, it: int, origin: str) -> tuple[int, _Rank]:
        """The _row_key and the _rank_key of g's class."""
        form = canonical_form(g)[0]
        key = _row_key(form)
        packed = classes.get(key)
        if packed is None:
            rec = SearchRecord(certify(g, config.d), it, fingerprint(g, form), origin)
            pair = _rank_key(rec)[:2]
            index = excess_index.get(pair)
            if index is None:
                index = excess_index[pair] = len(excesses)
                excesses.append(pair)
            packed = classes[key] = index << 64 | rec.fingerprint
            _admit(top, rec, config.population)
            if sink is not None:
                sink(rec)
        return key, (*excesses[packed >> 64], packed & _MASK64)

    def fresh(it: int) -> _Lineage:
        rng = stream.next_rng()
        g = random_regular_digraph(config.n, config.d, rng)
        return _Lineage(g, *evaluate(g, it, "random"), rng)

    pop = [fresh(0) for _ in range(config.population)]
    for it in range(1, config.iterations + 1):
        # rank parents and mutated children together, one entry per class
        ranked: list[tuple[_Rank, int, DiGraph, _Lineage]] = []
        seen: set[int] = set()  # the _row_keys of the classes ranked
        for member in pop:
            child = swap_move(member.graph, member.rng)
            if member.key not in seen:
                seen.add(member.key)
                ranked.append((member.rank, member.key, member.graph, member))
            key, rank = evaluate(child, it, f"{member.rank[2]:016x}")
            if key not in seen:
                seen.add(key)
                ranked.append((rank, key, child, member))
        ranked.sort(key=itemgetter(0))
        survivors: list[_Lineage] = []
        used_members: set[int] = set()
        for rank, key, g, member in ranked[: config.population]:
            if id(member) in used_members:
                # parent and child both survive: the child forks its own stream
                survivors.append(_Lineage(g, key, rank, stream.next_rng()))
                continue
            used_members.add(id(member))
            member.graph, member.key, member.rank = g, key, rank
            excess = -rank[1]
            if excess > member.best:
                member.best, member.stale = excess, 0
            else:
                member.stale += 1
            survivors.append(member)
        # restarts draw from the stream only after every fork above
        pop = [fresh(it) if m.stale >= RESTART_AFTER else m for m in survivors]
        pop += [fresh(it) for _ in range(config.population - len(pop))]

    return top
