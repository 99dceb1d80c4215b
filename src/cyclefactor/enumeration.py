"""Exact brute-force engines for factor statistics.

Directed side: cycle-factor counts, cycle-count histograms, per-arc
usage, and the crossing-pattern table of the gadget.  The factors that
use some arcs and avoid others are the factors of a subgraph: keep only
the required arc at its tail, and drop the forbidden arcs and the
required heads from every other row.  Undirected side:
spanning partitions into cycles (optionally also single matched edges),
matchings of cycles, and a Ryser permanent used as an independent
counting oracle.

Every directed statistic comes from one table: the cycle-factors of each
key by cycle count, where a factor's key sums integer arc weights along
it.  cycle_factor_stats and cycle_factor_totals weight no arc, so their
table has the one key 0; classify_crossing_patterns weights each crossing
arc by its pattern bit, so the key is the crossing pattern.  One exact
engine, _frontier_table, builds that table.  It assigns successors tail
by tail, forward over its frontiers (Knuth's SIMPATH): before tail i is
assigned, the rest of the search depends only on where the open paths
ending at tails i..n-1 start, and those starts are exactly the heads
still free.  So each level is one dict from a tuple of starts, as bytes,
to the packed table of the partial factors reaching it, and partial
factors with equal starts merge.  The forward pass is a loop over one level step, _advance, which
states the move rule and the forward check that cuts dead frontiers.
Per-arc usage, when wanted, comes from a backward pass over the levels
the forward pass kept: it regenerates each frontier's moves, and an
arc's usage sums, over its moves, the partial factors reaching the
frontier times the completions of the target.

Two heads are twins when they have the same column in the rows run: the
same candidate tails, each with equal arc weights into both, as the
members of a complete looped class (the gadget's C classes, every vertex
of K_d°).  Swapping two twins in every completion of a frontier maps its
completions one to one onto those of the frontier with the twins
swapped, with the same cycle count and key, so frontiers that differ
only by a permutation of twins have the same future and their tables
add.  So the keys name each group of twins by one token, and a choice
of a token, whose arc is None, stands for one arc per member: the one
level step, _advance, moves it onto each free member.  The merge runs,
as a cost gate, where the Bregman bound below exceeds n^4, for the
table and the usage alike.  The answer, one packed table, is read one
key block at a time.

Its cost is set by how many frontiers a level holds, which the tail
order decides.  _orient alone picks the order and the direction.  The
order places next the tail that leaves the least width: open heads, and
paths with a sure end or a sure start (_width_order), ties by vertex
index.  Where every vertex has a loop, only open heads count, and this
is the fail-first order, which also brings the deadlines early.  Where
the Bregman bound on the factor count is at most n^2 the order costs
more than it saves and the identity is used.  sigma -> sigma^-1 maps the
factors of g one to one onto those of its transpose, with equal cycle
counts, so above a bound of n^4 a non-symmetric input runs in the
direction whose order has the lower summed width.  The engine enforces
its own order limit, MAX_FAST_VERTICES, so positions fit in key bytes.

A table packs one block per key into one int (Kronecker substitution),
and holds each key's factors by cycle count, a polynomial p(x), in one of
two rings.  The histogram ring keeps p whole, n + 1 coefficients a block,
so adding an arc weight or closing a cycle is a shift and merging two
frontiers an addition; only cycle_factor_stats, for its histogram, runs
it.  The mean ring keeps p modulo (x - 1)^2, the count p(1) and the cycle
sum p'(1), two fields a block, which roughly halves the tables' memory:
closing a cycle maps (a, b) to (a, a + b), a mask, a shift and an
addition.  certify (and so the search), expected_cycles, the 2-regular
suite's usage and the crossing classifier read no more than that.

The undirected side covers vertex sets by cycles instead.  _cycle_sets
counts the directed cycles on each vertex set, packed by cycle count,
and _cover_all covers a vertex set by them, one cycle through the
smallest uncovered vertex at a time (Held-Karp / Bjorklund style).
two_factor_stats reads the graph as a symmetric digraph, halves its
cycle counts (each undirected cycle is found in both directions), keeps
the 2-cycles only as matched edges, and covers the graph by them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lgamma, log, log2, prod
from operator import mul
from typing import Sequence

from .errors import InternalCheckError, NoCycleFactorError
from .exact import CROSSING_ARC_ORDER, ROW_GROUPS, ROW_OF_MASK, TableRow
from .families import crossing_gadget
from .graphs import Arc, DiGraph, UGraph

MAX_FAST_VERTICES = 64
# bytes((v,)) for every position the engine runs, made once
_BYTES = [bytes((v,)) for v in range(MAX_FAST_VERTICES)]


@dataclass(frozen=True)
class FactorStats:
    """Exact aggregate statistics over a set of factors.

    histogram maps a cycle count to the number of factors attaining it,
    or is None where only the count and the cycle sum were tabulated
    (cycle_factor_totals).  edge_usage, when requested, maps each arc to
    the number of factors containing it; arcs in no factor are omitted.
    """

    count: int
    cycle_sum: int
    histogram: dict[int, int] | None
    edge_usage: dict[Arc, int] | None = None

    @classmethod
    def of_row(cls, by_cycles: Sequence[int], usage: dict[Arc, int] | None = None) -> FactorStats:
        """The statistics of the factors that by_cycles counts by cycle count."""
        cycle_sum = sum(map(mul, range(len(by_cycles)), by_cycles))
        hist = {c: h for c, h in enumerate(by_cycles) if h}
        return cls(sum(by_cycles), cycle_sum, hist, usage)

    def mean(self) -> Fraction:
        if self.count == 0:
            raise NoCycleFactorError("no cycle-factor")
        return Fraction(self.cycle_sum, self.count)


def _log2_bregman(rows: Sequence[Sequence[int]]) -> float:
    """log2 of Bregman's bound prod_v (|row_v|!)^(1/|row_v|) on the factor count.

    A row without candidates admits no factor at all, so the bound is 0.
    """
    if not all(rows):
        return float("-inf")
    return sum(lgamma(len(row) + 1) / len(row) for row in rows) / log(2)


def _width_order(rows: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """The greedy tail order of _orient, and its summed cost.

    Vertex x's head is untouched, open (some but not all of its candidate
    tails placed) or closed, and its tail is placed or not.  It weighs
    W(x) = 3 while its head is open, 1 while its head is closed and it is
    unplaced (a sure path end) or it is placed and its head untouched (a
    sure path start), and 0 otherwise.  Each next tail is the one whose
    placing leaves the least sum of W, ties by vertex index; the cost is
    that sum added over the steps.
    """
    n = len(rows)
    into: list[list[int]] = [[] for _ in range(n)]  # each head's tails but itself
    for v, row in enumerate(rows):
        for w in row:
            if w != v:
                into[w].append(v)
    loop = [v in row for v, row in enumerate(rows)]
    indeg = [len(tails) + lp for tails, lp in zip(into, loop)]
    placed = [0] * n  # of each head's candidate tails
    done = [False] * n  # placed tails
    # head[w]: the change of W(w) when one more tail of head w is placed;
    # own[x]: the change of W(x) when tail x is placed, which along a loop
    # also moves head x; score[u]: the change of the sum of W when tail u
    # is placed, kept up to date as the gains it adds change
    head = [1 if k == 1 else 3 for k in indeg]
    own = [(0 if k == 1 else 3) if lp else (1 if k else -1) for k, lp in zip(indeg, loop)]
    score = own[:]
    for w in range(n):
        for u in into[w]:
            score[u] += head[w]
    total = indeg.count(0)  # closed heads of unplaced tails
    cost = 0
    left = list(range(n))
    order = []
    while left:
        v = min(left, key=score.__getitem__)
        total += score[v]
        cost += total
        left.remove(v)
        order.append(v)
        done[v] = True
        for w in rows[v]:
            k = placed[w] = placed[w] + 1
            if k == indeg[w]:
                gain, mine = 0, -1
            elif k + 1 == indeg[w]:
                gain, mine = -2 - done[w], -3 if loop[w] else 0
            else:
                gain = mine = 0
            if gain != head[w]:
                delta = gain - head[w]
                head[w] = gain
                for u in into[w]:
                    score[u] += delta
            if not done[w]:
                score[w] += mine - own[w]
                own[w] = mine
        k = placed[v]
        if not loop[v] and k < indeg[v]:
            # head v's gain, now that tail v is placed
            gain = (0 if k + 1 == indeg[v] else 3) - (1 if k == 0 else 3)
            for u in into[v]:
                score[u] += gain - head[v]
            head[v] = gain
    return order, cost


def _orient(
    rows: Sequence[Sequence[int]],
) -> tuple[Sequence[Sequence[int]], list[int], float, bool]:
    """The direction the engine searches, its tail order and its bound.

    Where the Bregman bound on the factor count is at most n^2, the search
    is smaller than the O(n^2) cost of ordering and the order is the
    identity; above that it is _width_order's.  sigma -> sigma^-1 maps the
    cycle-factors of g one to one onto those of its transpose with equal
    cycle counts, so where the bound exceeds n^4 and the rows are not
    symmetric, both directions are ordered and the one of lower summed
    width cost runs; below n^4 a second order costs more than it saves.
    Returns the rows run, their order, their log2 Bregman bound and
    whether they are the transpose.
    """
    n = len(rows)
    log2_bound = _log2_bregman(rows)
    if n < 2 or log2_bound <= 2 * log2(n):
        return rows, list(range(n)), log2_bound, False
    order, cost = _width_order(rows)
    if log2_bound <= 4 * log2(n):
        return rows, order, log2_bound, False
    cols: list[list[int]] = [[] for _ in range(n)]
    for v, row in enumerate(rows):
        for w in row:
            cols[w].append(v)
    if all(sorted(row) == col for row, col in zip(rows, cols)):
        return rows, order, log2_bound, False
    col_order, col_cost = _width_order(cols)
    if col_cost < cost:
        return cols, col_order, _log2_bregman(cols), True
    return rows, order, log2_bound, False


def _search_space(
    rows: Sequence[Sequence[int]], weights: dict[Arc, int], histogram: bool
) -> tuple[list[list[tuple]], list[list[tuple]], int, int, bytes, list[dict] | None] | None:
    """The search the frontier engine runs, or None if a tail or head has no candidate.

    The search runs in the direction and tail order of _orient, and
    vertices are relabeled by their position in that order, so it runs
    over positions 0..n-1.  Returns cand, due, slot, width and start.
    slot, the bits of one packed count, is two more than log2 of the
    Bregman bound of the rows run, and width the bits of one key's block
    in the ring of _frontier_table: (n + 1) * slot in the histogram ring,
    2 * slot + n.bit_length() in the mean ring.  cand[i] lists tail i's
    choices as (head, shift, shift + slot, original arc): shift, weight *
    width, moves a table along a join, and shift + slot is the closing's
    shift.  In the transpose, choice v -> w is g's arc (w, v), so weights
    and usage stay keyed by g's arcs.  due[i] lists the heads whose last
    candidate tail is position i, each with tail i's one choice of it as
    a 1-tuple: at position i a head of due[i] still free must be taken
    now.  More than MAX_FAST_VERTICES rows raise ValueError, so positions
    fit in bytes.

    Where the bound exceeds n^4, heads with the same column (the same
    candidate tails, each with the same shift) are twins, and each group
    of two or more twins is named by its first member, its token: cand
    and due keep the token's choices only, each standing for one arc per
    member of the group, so its arc is None.  start is the full frontier,
    every position's start replaced by its token, and members[i] maps a
    token to tail i's arcs into its group.  Where no head is grouped,
    members is None and every choice has its arc.
    """
    n = len(rows)
    if n > MAX_FAST_VERTICES:
        raise ValueError(f"graph order {n} exceeds the fast-path limit {MAX_FAST_VERTICES}")
    rows, order, log2_bound, transposed = _orient(rows)
    slot = int(max(log2_bound, 0)) + 2  # -inf with an empty row
    width = (n + 1) * slot if histogram else 2 * slot + n.bit_length()
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    cand = []
    last: list[tuple] = [()] * n  # each head's last candidate tail and its choice
    for i, v in enumerate(order):
        row = []
        for w in rows[v]:
            h = pos[w]
            arc = (w, v) if transposed else (v, w)
            shift = weights.get(arc, 0) * width
            choice = (h, shift, shift + slot, arc)
            row.append(choice)
            last[h] = (i, choice)
        cand.append(row)
    if not all(cand) or () in last:
        return None
    token = list(range(n))
    members = None
    if n > 1 and log2_bound > 4 * log2(n):
        columns: list[list[int]] = [[] for _ in range(n)]
        for i, row in enumerate(cand):
            for h, shift, _, _ in row:
                columns[h] += i, shift
        first: dict[tuple, int] = {}
        token = [first.setdefault(tuple(col), h) for h, col in enumerate(columns)]
        if len(first) < n:
            size = Counter(token)
            members = [{} for _ in cand]
            for i, row in enumerate(cand):
                for h, _, _, arc in row:
                    members[i].setdefault(token[h], []).append(arc)
                cand[i] = row = [
                    c if size[c[0]] == 1 else (*c[:3], None) for c in row if token[c[0]] == c[0]
                ]
                for c in row:  # due takes a token's choice with no arc
                    last[c[0]] = (i, c)
    due: list[list[tuple]] = [[] for _ in range(n)]
    for h, (i, choice) in enumerate(last):
        if token[h] == h:
            due[i].append((h, (choice,)))
    return cand, due, slot, width, bytes(token), members


def _advance(
    level: dict[bytes, int], choices: list[tuple], pending: list[tuple], low: int | None
) -> dict[bytes, int]:
    """The level step of the frontier engine: level i to level i + 1.

    level maps the starts of the open paths, as bytes indexed by tail - i,
    to the packed table of the partial factors reaching them; choices and
    pending are cand[i] and due[i] of _search_space, and low is None in
    the histogram ring and the mask of every key's count in the mean ring
    (see _frontier_table).  Tail i's path starts at s, the first start:
    its choice of head s closes a cycle, multiplies the table by x and
    drops s; its choice of another free head h, one of the rest, joins the
    path that starts at h, shifts the table by the arc's shift and
    replaces h by s; any other head is used.  A closing shifts the table
    by its closing shift in the histogram ring; in the mean ring it adds
    each key's count, shifted by the closing shift, to its table shifted
    by the arc's shift: (a, b) becomes (a, a + b).  A head due at tail i
    that is still a start is pending: two prune the frontier, since no
    later tail can take either, and one forces tail i's choice onto it.
    Moves reaching equal starts merge by addition.  Only the arguments
    and the constant _BYTES are read, so any level dict may be advanced,
    and the step is linear in either ring: the level after a sum of
    levels is the sum of the levels after them.

    A choice whose arc is None has a twin group's token for its head,
    and as many members are free as the token occurs among the starts.
    Only such a choice counts them: it moves onto each free member.  A
    closing onto s also joins each twin of s in the rest, which keeps the
    rest as it is and so adds to the closing's key, and a join puts s in
    the place of each free member in turn.  A due token is forced like a
    due head, and where two of its members are free the forced move adds
    nothing: one of them would stay free past its deadline.
    """
    byte = _BYTES  # a local, read in the loop below
    nxt: dict[bytes, int] = {}
    for starts, table in level.items():
        moves = choices
        for h, forced in pending:
            if h in starts:
                if moves is not choices:
                    break
                moves = forced
        else:
            s = starts[0]
            rest = starts[1:]
            for h, shift, closing, arc in moves:
                if h == s:
                    key = rest
                    if low is None:
                        part = table << closing
                    else:
                        part = (table << shift if shift else table) + ((table & low) << closing)
                    if arc is None and h in rest:
                        if moves is not choices:
                            continue
                        part += (table << shift if shift else table) * rest.count(h)
                elif h in rest:
                    # most joins weigh 0, and a shift by 0 still costs a call
                    part = table << shift if shift else table
                    if arc is None:
                        if moves is not choices and rest.count(h) > 1:
                            continue
                        j = rest.find(h)
                        while j >= 0:
                            key = rest[:j] + byte[s] + rest[j + 1 :]
                            old = nxt.get(key)
                            nxt[key] = part if old is None else old + part
                            j = rest.find(h, j + 1)
                        continue
                    key = rest.replace(byte[h], byte[s])
                else:
                    continue
                old = nxt.get(key)
                nxt[key] = part if old is None else old + part
    return nxt


def _frontier_table(
    rows: Sequence[Sequence[int]],
    weights: dict[Arc, int],
    usage: dict[Arc, int] | None = None,
    histogram: bool = False,
) -> list[list[int]]:
    """Tabulate every cycle-factor whose arcs come from the candidate rows.

    Each arc weighs weights.get(arc, 0) >= 0, and a factor's key is the sum
    of its arc weights, so no key exceeds sum(weights.values()).  Returns
    one list per key: with histogram, table[key][cycles] is the number of
    factors of that key and cycle count; without it, table[key] is
    [count, cycle sum] of the factors of that key.  usage, when given,
    receives the number of factors through each arc, keyed by the original
    arcs (arcs in no factor omitted).

    Each key's factors by cycle count are a polynomial p(x), and a table
    packs one block of width bits per key into one int.  An arc shifts a
    table by its shift, weight * width, which adds its weight to every
    key, and a closing also multiplies it by x.  The histogram ring keeps
    p whole, n + 1 slots of slot bits per key, so a closing shifts by slot
    more.  The mean ring keeps p modulo (x - 1)^2, that is a = p(1), the
    count, in the key's first slot bits and b = p'(1), the cycle sum, in
    the slot + n.bit_length() bits above; x * p has (a, a + b) there, so
    a closing is t + ((t & low) << slot), where low covers every key's
    count field.  Merges add in either ring, and twin tokens, forcing and
    pruning do not look at the table.  Only cycle_factor_stats, for its
    histogram, runs the histogram ring.

    The search of _search_space, run forward over its frontiers (Knuth's
    SIMPATH): level 0 is the full frontier, and one level step, _advance,
    maps each level to the next.  Level n holds one entry, the empty
    frontier, whose table is the answer; it is read one key block at a
    time, and in the histogram ring a block that is 0 is not unpacked.

    The partial factors reaching a level-i frontier are perfect matchings
    of tails 0..i-1 onto the heads it has used, so Bregman's bound on
    those rows, and with it the bound on all the rows searched (g's or its
    transpose's), caps their count; the slots, two bits wider than its
    log2 to absorb rounding, never overflow, even for frontiers with no
    completion.  Each of them has closed at most i <= n cycles, so a
    key's cycle sum is at most n times its count, below 2^(slot +
    n.bit_length()): the mean ring's cycle-sum field does not overflow
    either.  A frontier of merged twins adds the tables of several such
    frontiers.  Where it has a completion, each partial factor reaching it
    joins one completion into a distinct factor, so the factor count,
    below the bound, still caps it; where it has none, a carry between
    slots stays in tables that never reach the answer, since frontiers
    merge only with equal completions.  The mean ring holds 2 * slot +
    n.bit_length() bits a key against (n + 1) * slot: at the widest level
    of K_{4,4}'s truncation (32 vertices, d = 5, 72,424 frontiers) the
    tables' ints hold 2.24 MiB against 4.48 MiB (sys.getsizeof), and
    certify on C_10(1, 3)'s truncation (40 vertices) peaks at about 35.6
    MiB of RSS against 43.7 MiB (CPython 3.11.7).

    With usage wanted, the forward pass keeps every level, and a backward
    pass walks them back from the empty frontier, which completes once.
    It regenerates each frontier's moves from cand[i] by _advance's rule,
    without the deadlines, and looks up B, the completions of the target,
    in the level after, which it has already turned into completions.  A
    move the forward pass pruned or forced away leaves a due head free
    that no later tail can take, so its target is in no level and adds 0.
    F, the number of partial factors reaching a frontier, is the sum of
    its table's counts.  In the histogram ring that is the table modulo
    2^slot - 1: every shift is a multiple of slot and 2^slot = 1 modulo
    2^slot - 1, so that is the coefficient sum, which the bound above
    keeps below the modulus.  In the mean ring it is table & low, the
    counts, taken modulo 2^width - 1, which adds the key blocks and leaves
    one key's count, below the modulus, as it is.  Each move adds F * B
    to its arc's usage, and the frontier's B is the sum of its moves' B.
    Each level's tables turn into completions as the pass goes, and a
    level is dropped once the one before it is done.  The kept levels
    hold one key and one table per frontier and nothing per move: on
    random_regular_digraph(16, 8, Random(0)) the process peaks at 118 MiB
    with usage, against 89 MiB for the table alone (histogram ring).

    A merged frontier's F sums its labelled frontiers', which share one B.
    A token choice takes _advance's moves: a closing onto s reaches rest
    1 + rest.count(s) times, and a join onto h reaches rest[:j] + s +
    rest[j + 1:] for each free member at j.  Its usage builds up under the
    token for the level and is then split evenly over members[i]; a
    remainder raises InternalCheckError.  Not the completion swap but
    another bijection makes the shares equal: for twins h and h', with
    tau their swap, sigma -> tau o sigma maps the factors with sigma(t) =
    h one to one onto those with sigma(t) = h', keys kept, cycle counts not.
    """
    n = len(rows)
    size = n + 1 if histogram else 2  # numbers read per key
    nkeys = 1 + sum(weights.values())
    search = _search_space(rows, weights, histogram)
    if search is None:
        return [[0] * size for _ in range(nkeys)]
    cand, due, slot, width, start, members = search
    full = (1 << slot) - 1
    mask = (1 << width) - 1  # one key's block
    low = None if histogram else sum(full << key * width for key in range(nkeys))
    byte = _BYTES
    levels: list[dict[bytes, int]] = []  # every level, when usage is wanted
    level = {start: 1}
    for choices, pending in zip(cand, due):
        if usage is not None:
            levels.append(level)
        level = _advance(level, choices, pending, low)
    packed = level.get(b"", 0)
    by_key = []
    for key in range(nkeys):
        row = packed >> key * width & mask
        if histogram:
            by_key.append(_unpack(row, slot, size) if row else [0] * size)
        else:
            by_key.append([row & full, row >> slot])
    if usage is not None and packed:
        after = {b"": 1}  # the empty frontier completes once
        for i in range(n - 1, -1, -1):
            choices = cand[i]
            level = levels.pop()
            for starts, table in level.items():
                reaching = table % full if low is None else (table & low) % mask  # F, as above
                s = starts[0]
                rest = starts[1:]
                total = 0
                for h, _, _, arc in choices:
                    if arc is None:  # a token: a move onto each free member
                        arc = h  # its bucket, split below
                        completions = after.get(rest, 0) if h == s else 0
                        for j, t in enumerate(rest):
                            if t == h:
                                completions += after.get(rest[:j] + byte[s] + rest[j + 1 :], 0)
                    elif h == s:
                        completions = after.get(rest)
                    elif h in rest:
                        completions = after.get(rest.replace(byte[h], byte[s]))
                    else:
                        continue
                    if completions:
                        usage[arc] = usage.get(arc, 0) + reaching * completions
                        total += completions
                level[starts] = total
            if members:
                for h, arcs in members[i].items():
                    share, left = divmod(usage.pop(h, 0), len(arcs))
                    if left:
                        raise InternalCheckError(f"usage of head {h}'s twins does not split evenly")
                    if share:
                        usage.update(dict.fromkeys(arcs, share))
            after = level
    return by_key


def _cycle_sets(rows: Sequence[Sequence[int]], slot: int) -> dict[int, int]:
    """Vertex set T -> packed count of the directed cycles on exactly T.

    A path DP starts each path at its minimum vertex s, extends it through
    larger vertices only, and closes it back to s, so each directed cycle
    is found once.  Counts are packed by cycle count with slot bits each,
    so closing a path into a cycle shifts its count by slot, and
    _cover_all joins cycles by multiplication.
    """
    n = len(rows)
    step = [[(w, 1 << w) for w in row] for row in rows]
    into: list[list[int]] = [[] for _ in range(n)]  # each vertex's tails
    for v, row in enumerate(rows):
        for w in row:
            into[w].append(v)
    cycles: dict[int, int] = {}
    for s in range(n):
        close = {v for v in into[s] if v >= s}
        # paths from s through larger vertices, by (vertex set, last vertex)
        paths = {(1 << s, s): 1}
        while paths:
            longer: dict[tuple[int, int], int] = {}
            for (mask, v), count in paths.items():
                if v in close:
                    cycles[mask] = cycles.get(mask, 0) + (count << slot)
                for w, bit in step[v]:
                    if w > s and not mask & bit:
                        key = (mask | bit, w)
                        longer[key] = longer.get(key, 0) + count
            paths = longer
    return cycles


def _unpack(packed: int, slot: int, size: int) -> list[int]:
    # the first size coefficients of a table packed with slot bits each
    full = (1 << slot) - 1
    return [packed >> (i * slot) & full for i in range(size)]


def _cover_all(n: int, cycles: dict[int, int]) -> int:
    """Packed table of the covers of vertices 0..n-1 by disjoint cycle sets.

    cycles[T] packs the parts allowed on exactly T.  Each step covers the
    least uncovered vertex by a set inside its reach, the union of the
    sets whose least vertex it is, so it never looks past its component.
    The steps run forward, with the partial covers grouped by how many
    vertices they leave, so a graph of many parts takes no deep stack.
    """
    reach = dict.fromkeys((1 << v for v in range(n)), 0)
    for vset in cycles:
        reach[vset & -vset] |= vset
    groups: list[dict[int, int]] = [{} for _ in range(n + 1)]
    groups[n][(1 << n) - 1] = 1
    for group in groups[:0:-1]:
        while group:
            rest, table = group.popitem()
            low = rest & -rest
            others = (rest ^ low) & reach[low]
            part = others
            while True:
                cyc = cycles.get(part | low)
                if cyc:
                    left = rest ^ low ^ part
                    after = groups[left.bit_count()]
                    after[left] = after.get(left, 0) + table * cyc
                if not part:
                    break
                part = (part - 1) & others
    return groups[0].get(0, 0)


def cycle_factor_stats(g: DiGraph, want_edge_usage: bool = False) -> FactorStats:
    """Exact statistics over every cycle-factor of g.

    A cycle-factor is a permutation sigma of the vertices with v -> sigma(v)
    an arc for every v.  One factor table with no arc weighted, so it is a
    single row by cycle count; count, cycle sum and histogram are all read
    off it.  With want_edge_usage the frontier engine also runs its
    backward pass over the same search, which keeps every level of the
    forward pass until the call returns; without it no level outlives the next.
    To count only the factors that use or avoid given arcs, pass the
    subgraph that keeps the arcs they may use.
    """
    usage: dict[Arc, int] | None = {} if want_edge_usage else None
    (by_cycles,) = _frontier_table(g.out, {}, usage, histogram=True)
    return FactorStats.of_row(by_cycles, usage)


def cycle_factor_totals(g: DiGraph, want_edge_usage: bool = False) -> FactorStats:
    """cycle_factor_stats without the histogram, which is None.

    The count and the cycle sum, and with want_edge_usage the usage, from
    one factor table in the mean ring of _frontier_table, which holds two
    fields per frontier instead of n + 1 slots.
    """
    usage: dict[Arc, int] | None = {} if want_edge_usage else None
    ((count, cycle_sum),) = _frontier_table(g.out, {}, usage)
    return FactorStats(count, cycle_sum, None, usage)


def expected_cycles(g: DiGraph) -> Fraction:
    """Mean cycle count over all cycle-factors, exact."""
    return cycle_factor_totals(g).mean()


def classify_crossing_patterns(d: int) -> list[TableRow]:
    """Bucket the crossing gadget's factors by which crossing arcs they use.

    One factor table with each crossing arc weighted by its pattern bit.
    The four crossing arcs have distinct tails, so a factor uses each at
    most once and its key is its 4-bit pattern.  The frontier engine
    merges the partial factors whose open paths start alike, so it never
    visits each factor, which is what makes d = 8 (about 10^9 factors)
    reachable; the gadget has 2d vertices, so the engine's order limit
    stops d at MAX_FAST_VERTICES // 2.  Degree balance between the two gadget halves permits only
    six patterns.  The table is in the mean ring, so each bucket is its
    count and cycle sum; one pass adds each nonzero bucket, in integers,
    to the row that ROW_OF_MASK gives its pattern, so the result is
    comparable to crossing_pattern_table; a pattern with no row, or a row
    with no factor, raises InternalCheckError.
    """
    g, crossing = crossing_gadget(d)
    weights = {crossing[nm]: 1 << i for i, nm in enumerate(CROSSING_ARC_ORDER)}
    counts, sums = [0] * len(ROW_GROUPS), [0] * len(ROW_GROUPS)
    for mask, (count, cycle_sum) in enumerate(_frontier_table(g.out, weights)):
        if not count:
            continue
        if mask not in ROW_OF_MASK:
            name = "".join(nm for i, nm in enumerate(CROSSING_ARC_ORDER) if mask >> i & 1)
            raise InternalCheckError(f"impossible crossing pattern {name} observed")
        row = ROW_OF_MASK[mask]
        counts[row] += count
        sums[row] += cycle_sum
    rows = []
    for group, cnt, tot in zip(ROW_GROUPS, counts, sums):
        if cnt == 0:
            raise InternalCheckError(f"crossing pattern row {group} is empty")
        rows.append(TableRow(group, cnt, tot))
    return rows


# ---------------------------------------------------------------------------
# Matchings of the n-cycle
# ---------------------------------------------------------------------------


def cycle_matching_counts(n: int) -> list[int]:
    """Matchings of the n-cycle counted by size, for sizes 0..n//2.

    The n-cycle has n/(n-k) * C(n-k, k) matchings of size k, the
    coefficients of the Lucas polynomial L_n.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    return [n * comb(n - k, k) // (n - k) for k in range(n // 2 + 1)]


# ---------------------------------------------------------------------------
# Undirected engine: partitions into cycles (and optionally single edges)
# ---------------------------------------------------------------------------


def two_factor_stats(g: UGraph, allow_edge_as_2cycle: bool = False) -> FactorStats:
    """Statistics of spanning partitions of g into cycles, scored by part count.

    With allow_edge_as_2cycle False the parts are cycles of length >= 3
    only, i.e. exactly the 2-factors of g.  With it True a part may also be
    a single matched edge, which counts as one cycle.  g is read as a
    symmetric digraph: _cycle_sets finds every undirected cycle once in
    each direction, so its count is halved, and a matched edge is the
    2-cycle on its two ends.  _cover_all then tabulates the partitions by
    part count; no part spans two components, so none needs a split.
    """
    n = g.n
    # a partition orients into at least one directed factor, so no count
    # here exceeds prod_v |row_v| either
    slot = prod(max(1, len(row)) for row in g.adj).bit_length()
    parts: dict[int, int] = {}  # vertex set -> packed count of its parts
    for vset, packed in _cycle_sets(g.adj, slot).items():
        if vset.bit_count() > 2:
            parts[vset] = packed // 2
        elif allow_edge_as_2cycle:
            parts[vset] = packed
    return FactorStats.of_row(_unpack(_cover_all(n, parts), slot, n + 1))


def ryser_permanent(matrix: Sequence[Sequence[int]]) -> int:
    """Permanent of a square nonnegative integer matrix by Ryser's formula.

    Exponential inclusion-exclusion over column subsets; independent of the
    factor enumeration, so the two can cross-check each other.
    """
    rows = [tuple(r) for r in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    total = 0
    for s in range(1, 1 << n):
        cols = [j for j in range(n) if s >> j & 1]
        prod = 1
        for r in rows:
            prod *= sum(r[j] for j in cols)
            if prod == 0:
                break
        if prod:
            total += prod if (n - len(cols)) % 2 == 0 else -prod
    return total
