"""Decision of the global trace condition for cyclic pre-proofs.

The trace automaton reads proof-node ids.  Each of its states follows one
fixed-point operator position of one formula occurrence, as the brute-force
oracle of :mod:`hflcyc.trace` does, and it accepts where the operator it
follows is unfolded as a left mu or a right nu.  Every cycle of the proof
graph passes a back edge, so every infinite path visits back-edge targets
(companions) infinitely often, and the automaton starts at the companions.
It starts only at their left mu and right nu operators: a rule keeps each
premise formula on its conclusion's side, and a transport maps an operator
to a copy of the same binder, so a run that follows a right mu or a left nu
never takes an accepting step.

The global trace condition holds when every infinite path of the proof has a
tail that some run of the trace automaton follows, accepting infinitely
often.  :func:`contains` decides it by the size-change principle: the paths
are cut at companions, the three-valued matrices of the trace automaton over
the segments between companions are closed under composition, and the
condition fails exactly when some idempotent loop at a companion has no
diagonal entry of value 2.  A failure is witnessed by an ultimately periodic
counterexample path.

The condition is a property of the proof's infinite unfolding, so
:func:`check_gtc` decides it on the coarsest bisimulation quotient of the
proof graph.  There a bud is transparent: it is identified with its
companion, so a closed node steps straight to the node its child lands on.
Two closed nodes are merged when they hold the same interned sequent and
rule and their successors, branch by branch, are merged too.  The quotient
is a pre-proof again, with new buds where its spanning tree meets a class
already placed, and it shares the proof's inferences and occurrence steps.
A counterexample of the quotient is lifted to the proof by taking the same
branches from the root until the walk repeats.  So a cycle unrolled m
times, whose laps repeat the same sequents and rules, is decided on the
classes of one lap, whatever m.

The symbol read on a transition is the *source* node of the path step.  The
path and trace automata are both :class:`BuchiAutomaton` values, which
:func:`trim` prunes and :func:`accepts_lasso` runs on one lasso.
"""

from __future__ import annotations

import heapq

from collections import deque
from typing import Mapping, Optional, Union

from .kernel import (
    LEFT,
    RIGHT,
    DerivTree,
    OccurrenceRef,
    PreProof,
    ValidationIssue,
    validate_preproof,
)
from .syntax import (
    Expr,
    HflError,
    Mu,
    Nu,
    Path,
    Record,
    Template,
    annotation_label,
    fill_template,
    print_template,
    sigma_paths,
    subexpr_at,
)
from .trace import (
    MAX_STATES,
    MU,
    NU,
    Lasso,
    node_steps,
    replay_annotations,
)

__all__ = [
    "Accepted",
    "BuchiAutomaton",
    "CheckResult",
    "GtcError",
    "GtcUnknown",
    "Rejected",
    "accepts_lasso",
    "build_gtc_automaton",
    "build_path_automaton",
    "check_cyclic_proof",
    "check_gtc",
    "contains",
    "counterexample_report",
    "render_lasso",
    "trim",
]

class GtcError(HflError):
    """The trace condition of a pre-proof could not be decided."""


class GtcUnknown(GtcError):
    """The condition could not be decided within the configured state caps.

    Raised instead of returning a possibly wrong boolean.
    """


# ---------------------------------------------------------------------------
# automata
# ---------------------------------------------------------------------------


class BuchiAutomaton(Record):
    """A nondeterministic Büchi automaton with transition-based acceptance.

    A run is accepting when it takes accepting transitions, ``(src, symbol,
    dst)`` triples, infinitely often.  The trace automaton numbers its states
    as ints and ``decode[i]`` is the ``(node, side, index, mark)`` key of
    state ``i``; the path automaton's states are node ids and it has no
    ``decode``; ``decode`` is not compared or printed.
    """

    __slots__ = ("states", "alphabet", "transitions", "initial", "accepting", "decode")
    _compared = ("states", "alphabet", "transitions", "initial", "accepting")
    states: frozenset
    alphabet: frozenset
    transitions: frozenset
    initial: frozenset
    accepting: frozenset
    decode: tuple

    def __init__(self, states: frozenset, alphabet: frozenset, transitions: frozenset,
                 initial: frozenset, accepting: frozenset, decode: tuple = ()) -> None:
        if not initial <= states:
            raise GtcError("initial states must be states")
        if not accepting <= transitions:
            raise GtcError("accepting transitions must be transitions")
        for src, sym, dst in transitions:
            if src not in states or dst not in states:
                raise GtcError("transition endpoint is not a state")
            if sym not in alphabet:
                raise GtcError("transition symbol is not in the alphabet")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "accepting", accepting)
        object.__setattr__(self, "decode", decode)

    def __reduce__(self):
        return BuchiAutomaton, (*self._values(), self.decode)


# ---------------------------------------------------------------------------
# the proof graph
# ---------------------------------------------------------------------------


def _require_back_edges(pp: PreProof) -> dict[str, tuple[str, ...]]:
    """The pre-proof's successor table, once every open leaf has a back edge
    to a node."""
    nodes = pp.nodes
    table = pp.successor_table
    for node_id, out in table.items():
        if out is None:
            raise GtcError(f"open leaf {node_id!r} has no back edge")
        # a child is always a node, so only a back edge can miss
        if out and out[0] not in nodes:
            raise GtcError(f"back edge {node_id!r} -> {out[0]!r} "
                           f"targets a missing node")
    return table


def _companions(pp: PreProof) -> list[str]:
    """The back-edge targets, sorted: every cycle of the proof graph passes one."""
    return sorted(set(pp.back_edges.values()))


# ---------------------------------------------------------------------------
# the bisimulation quotient
# ---------------------------------------------------------------------------


def _refine(succ: list[tuple[int, ...]], block: list[int], count: int) -> int:
    """Refine ``block``, in place, to the coarsest partition that is stable
    under ``succ``; returns its number of blocks.

    ``succ[s][a]`` is the successor of node ``s`` on branch ``a``, and
    ``block[s]`` numbers the initial block of ``s``, below ``count``.

    One round first splits each block by the blocks of its nodes'
    successors, so each block's nodes have one arity after it.  That
    settles most proofs in linear time: if the round splits nothing, the
    partition is stable, and if it leaves no two nodes together, nothing is
    left to split.  Otherwise Hopcroft's algorithm ("An n log n algorithm
    for minimizing states in a finite automaton", 1971) goes on from it,
    where rounds alone can take one per node: a splitter is a block and a
    branch; a split block queues the smaller half of itself, or both halves
    if it was queued already, so a node is in a queued splitter O(log n)
    times per branch.
    """
    arity = max(map(len, succ))
    columns = [[block[out[a]] if a < len(out) else -1 for out in succ] for a in range(arity)]
    signatures: dict[tuple[int, ...], int] = {}
    block[:] = [signatures.setdefault(key, len(signatures)) for key in zip(block, *columns)]
    if len(signatures) in (count, len(succ)):
        return len(signatures)
    count = len(signatures)
    into: list[dict[int, list[int]]] = [{} for _ in range(arity)]
    for s, out in enumerate(succ):
        for a, t in enumerate(out):
            into[a].setdefault(t, []).append(s)
    members: list[set[int]] = [set() for _ in range(count)]
    for s, b in enumerate(block):
        members[b].add(s)
    # splitting by every block splits nothing, so one block may stay out
    largest = max(range(count), key=lambda b: len(members[b]))
    work = [(b, a) for b in range(count) if b != largest for a in range(arity)]
    queued = set(work)
    while work:
        splitter = work.pop()
        queued.discard(splitter)
        b, a = splitter
        inv = into[a]
        hit: dict[int, list[int]] = {}
        for t in members[b]:
            for s in inv.get(t, ()):
                hit.setdefault(block[s], []).append(s)
        for x, movers in hit.items():
            if len(movers) == len(members[x]):
                continue
            y = len(members)
            moved = set(movers)
            members[x] -= moved
            members.append(moved)
            for s in movers:
                block[s] = y
            for a2 in range(arity):
                half = y if (x, a2) in queued or len(moved) <= len(members[x]) else x
                work.append((half, a2))
                queued.add((half, a2))
    return len(members)


def _quotient(pp: PreProof) -> Optional[PreProof]:
    """The pre-proof of the coarsest bisimulation of ``pp``'s proof graph,
    or None when it merges no two nodes.

    Buds are transparent: each closed node steps on branch ``i`` to its
    child, or, when the child is a bud, to the bud's target, as long as
    every bud has a back edge to a closed node with children (otherwise
    None: the proof is decided as it is presented, and the first stage
    raises the :class:`GtcError` of a missing back edge or target).  Two closed nodes are bisimilar when
    they have the same sequent object and the same rule object, so the same
    head step and occurrence steps, and bisimilar successors branch by
    branch; then every path from either reads the same labels and carries
    the same traces.  The initial partition keys the interned objects, so
    no formula is walked, and :func:`_refine` stabilises it.

    The quotient is a depth-first spanning tree of the classes from the
    root's.  A class node has the id, sequent and rule of its first member
    in preorder.  An edge to a class already placed is a new bud, with the
    target's sequent and a back edge to it, named after the child of the
    class's first member on that branch (with a ``'`` added while the name
    is taken).  The quotient shares ``pp``'s inferences and occurrence
    steps, so each distinct head step is still taken once.
    """
    nodes, table = pp.nodes, pp.successor_table
    closed = [n for n in nodes.values() if n.rule is not None]
    labels: dict[tuple, int] = {}
    block = [labels.setdefault((n.seq, n.rule), len(labels)) for n in closed]
    if len(labels) == len(closed):
        return None
    number = {n.id: i for i, n in enumerate(closed)}
    for leaf in pp.open_leaves():  # a bud lands on its target
        out = table[leaf.id]
        i = None if out is None else number.get(out[0])
        if i is None or not closed[i].children:
            return None
        number[leaf.id] = i
    land = number.__getitem__
    succ = [tuple(map(land, table[n.id])) for n in closed]
    count = _refine(succ, block, len(labels))
    if count == len(closed):
        return None

    first = [-1] * count
    for i in reversed(range(len(closed))):
        first[block[i]] = i
    taken = {closed[i].id for i in first}
    back: dict[str, str] = {}
    placed = {block[0]}
    stack: list[list] = [[0, 0, []]]  # [first member, next branch, kids]
    while True:
        frame = stack[-1]
        r, a, kids = frame
        if a < len(succ[r]):
            frame[1] = a + 1
            t = block[succ[r][a]]
            if t not in placed:
                placed.add(t)
                stack.append([first[t], 0, []])
                continue
            name = table[closed[r].id][a]
            while name in taken:
                name += "'"
            taken.add(name)
            target = closed[first[t]]
            back[name] = target.id
            kids.append(DerivTree(name, target.seq, None))
            continue
        stack.pop()
        n = closed[r]
        tree = DerivTree(n.id, n.seq, n.rule, tuple(kids))
        if not stack:
            break
        stack[-1][2].append(tree)
    quotient = PreProof(tree, back)
    object.__setattr__(quotient, "_inferences", pp._inferences)
    object.__setattr__(quotient, "step_table", pp.step_table)
    return quotient


def _lift(pp: PreProof, quotient: PreProof, lasso: Lasso) -> Lasso:
    """The path of ``pp`` that takes the branches ``lasso`` takes in
    ``quotient``, as a lasso.

    From the root of ``pp`` it takes, at each closed node, the branch the
    quotient path takes at its next closed node: a bud of the quotient is
    no step, and a bud of ``pp`` is a step the quotient path does not take.
    The walk is deterministic, so it stops when it is at the start of the
    quotient cycle at a node of ``pp`` where it was at a start before; the
    lasso is then rotated as :func:`contains` rotates its own, which also
    moves its cycle back to where it first began.
    """
    qnodes, qtable = quotient.nodes, quotient.successor_table
    spine = lasso.spine
    moves = [qtable[x].index(spine[lasso.successor_index(i)])
             for i, x in enumerate(spine) if qnodes[x].rule is not None]
    on_cycle = sum(qnodes[x].rule is not None for x in lasso.prefix)
    nodes, table = pp.nodes, pp.successor_table
    out: list[str] = []
    laps: dict[str, int] = {}  # where the walk was at each start of the cycle
    at, k = pp.tree.id, 0
    while True:
        if k == on_cycle:
            if at in laps:
                break
            laps[at] = len(out)
        out.append(at)
        at = table[at][moves[k]]
        if nodes[at].rule is None:
            out.append(at)
            at = table[at][0]
        k = k + 1 if k + 1 < len(moves) else on_cycle
    start = laps[at]
    return _rotated(tuple(out[:start]), tuple(out[start:]))


def build_path_automaton(pp: PreProof) -> BuchiAutomaton:
    """A Büchi automaton accepting exactly the infinite paths of the proof.

    States mirror the proof nodes, every transition reads its source node and
    is accepting, and runs start at the root; closed leaves have no outgoing
    transitions, so a closed proof tree yields the empty language.
    :func:`check_gtc` decides on the proof graph itself; it builds this
    automaton only as the stage that ``bench/worker.py`` times by name.
    Raises :class:`GtcError` when an open leaf has no back edge or a back
    edge targets a missing node.
    """
    table = _require_back_edges(pp)
    ids = frozenset(table)
    transitions = frozenset((n, n, m) for n, out in table.items() for m in out)
    return BuchiAutomaton(ids, ids, transitions, frozenset([pp.tree.id]), transitions)


# ---------------------------------------------------------------------------
# the trace automaton
# ---------------------------------------------------------------------------


_Key = tuple[str, str, int, Path]
"""A tracked state: node, side and index of an occurrence, and the operator
position (mark) of it that the state follows."""


def _good_unfold(side: str, sigma_kind: Optional[str]) -> bool:
    return ((sigma_kind == MU and side == LEFT)
            or (sigma_kind == NU and side == RIGHT))


def build_gtc_automaton(pp: PreProof) -> BuchiAutomaton:
    """The trace automaton over proof-node symbols.

    Its initial states follow the operator positions ``p`` of the
    occurrences of the companions where a good trace can start: the mu
    operators of the left formulas and the nu operators of the right ones.
    A state moves only on its own node's symbol: at a back edge to the same
    occurrence and position, and at a rule to every premise position ``q``
    that descends from ``p``, as the rule's
    :meth:`~hflcyc.kernel.Rule.sources` say.  When the rule unfolds ``p``
    itself, these ``q`` are the substituted copies, and the transition is
    accepting exactly when it unfolds a left mu or a right nu; every other
    transition is not accepting.  An infinite path passes companions
    infinitely often, so any good trace along it is followed from some
    visit to a companion on.

    Following one operator per state accepts the same paths as following a
    set of them, the marked-set construction.  There the marks move
    independently: each mark of the next set descends from a mark of the
    current one, and an unfolding of a mark either follows it alone to its
    descendants, which are exactly the substituted copies (see
    ``OccurrenceStep``), accepting when the unfolding is good, or drops it.
    So a one-operator run lifts to a set run whose sets hold its operator,
    accepting where it does.  Conversely, after an accepting step of a set
    run every later mark descends from the operator that step unfolded; a
    chain of marks through the whole run exists by König's lemma, and it
    passes through every accepting step, so it is an accepting one-operator
    run.  Hence there are at most Σ|operator positions| states over all
    occurrences, linear in the proof.

    A run that starts at a right mu or a left nu can take no accepting step,
    so none starts there.  Each premise formula a rule's
    :meth:`~hflcyc.kernel.Rule.sources` names stays on its conclusion's side
    (:func:`~hflcyc.trace.occurrence_steps` checks it), a back edge keeps
    the occurrence, and a transport maps an operator to a copy of the same
    binder.  So every state a run reaches follows an operator of the kind it
    started at, on the side it started on, and the automaton is the part of
    the one started at every operator position that can reach an accepting
    transition, with the same language.  The acceptance test still asks
    for a left mu or a right nu unfolding, so an accepting transition does
    not rest on this argument.

    States are numbered as ints in the order the search discovers them, the
    initial ones first, and ``decode[i]`` is the ``(node, side, index,
    mark)`` key of the state numbered ``i``.  So trimming and the decision
    hash small ints, not tuples.
    Each formula keeps its operator positions, and occurrence steps are read
    from the pre-proof's table (:func:`~hflcyc.trace.node_steps`), so nodes
    with equal sequents share both, whether the pre-proof was loaded or built
    in memory.  Raises
    :class:`GtcError` when an open leaf has no back edge or a back edge
    targets a missing node.
    """
    table = _require_back_edges(pp)
    nodes = pp.nodes

    number: dict[_Key, int] = {}
    decode: list[_Key] = []
    queue: deque[tuple[int, _Key]] = deque()
    transitions: set[tuple[int, str, int]] = set()
    accepting: set[tuple[int, str, int]] = set()

    def state(key: _Key) -> int:
        q = number.get(key)
        if q is None:
            q = number[key] = len(decode)
            decode.append(key)
            queue.append((q, key))
        return q

    def emit(src: int, sym: str, dst: int, acc: bool = False) -> None:
        transitions.add((src, sym, dst))
        if acc:
            accepting.add((src, sym, dst))

    for c in _companions(pp):
        seq = nodes[c].seq
        for side, row, want in ((LEFT, seq.left, Mu), (RIGHT, seq.right, Nu)):
            for index, f in enumerate(row):
                for p in sigma_paths(f):
                    if type(subexpr_at(f, p)) is want:
                        state((c, side, index, p))
    initial = frozenset(range(len(decode)))

    while queue:
        src, (node_id, side, index, mark) = queue.popleft()
        node = nodes[node_id]
        if node.rule is None:
            emit(src, node_id, state((table[node_id][0], side, index, mark)))
            continue
        for branch, child in enumerate(node.children):
            for step, inv in node_steps(pp, node, branch).get((side, index), ()):
                acc = mark == step.consumed_head and _good_unfold(side, step.sigma_kind)
                for q in inv.get(mark, ()):
                    emit(src, node_id, state((child.id, *step.premise_pos, q)), acc)

    return BuchiAutomaton(
        frozenset(range(len(decode))), frozenset(nodes), frozenset(transitions),
        initial, frozenset(accepting), tuple(decode))


# ---------------------------------------------------------------------------
# trimming and lasso membership
# ---------------------------------------------------------------------------


def _scc_ids(nodes: list, succs: Mapping) -> dict:
    """Map each node to its SCC id (iterative Tarjan).  ``succs[n]`` is an
    iterable of nodes."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    comp: dict = {}
    counter = 0
    next_index = 0
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succs.get(root, ())))]
        index[root] = low[root] = next_index
        next_index += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = next_index
                    next_index += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succs.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp[member] = counter
                    if member == node:
                        break
                counter += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp


def trim(a: BuchiAutomaton) -> BuchiAutomaton:
    """Keep only states that lie on some accepting run.

    A state is useful when it is reachable from an initial state and can reach
    an accepting transition whose endpoints share a strongly connected
    component.  Removing the rest preserves the language.
    """
    out: dict = {}
    for src, _sym, dst in a.transitions:
        out.setdefault(src, set()).add(dst)
    reach = set(a.initial)
    queue = deque(reach)
    while queue:
        for dst in out.get(queue.popleft(), ()):
            if dst not in reach:
                reach.add(dst)
                queue.append(dst)
    succs = {q: [dst for dst in out.get(q, ()) if dst in reach] for q in reach}
    comp = _scc_ids(list(reach), succs)
    core = {
        src
        for (src, _sym, dst) in a.accepting
        if src in reach and dst in reach and comp[src] == comp[dst]
    }
    if not core:
        return BuchiAutomaton(
            frozenset(), a.alphabet, frozenset(), frozenset(), frozenset())
    # backward closure to the accepting cores
    preds: dict = {q: [] for q in reach}
    for q in reach:
        for dst in succs[q]:
            preds[dst].append(q)
    useful = set(core)
    queue = deque(core)
    while queue:
        q = queue.popleft()
        for p in preds[q]:
            if p not in useful:
                useful.add(p)
                queue.append(p)
    transitions = frozenset(
        t for t in a.transitions if t[0] in useful and t[2] in useful)
    return BuchiAutomaton(
        frozenset(useful), a.alphabet, transitions,
        frozenset(q for q in a.initial if q in useful),
        frozenset(t for t in a.accepting if t[0] in useful and t[2] in useful))


def accepts_lasso(a: BuchiAutomaton, w: Lasso) -> bool:
    """Does the automaton accept ``prefix · cycle^omega``?

    Decided on the finite product of the automaton with the lasso positions,
    looking for a reachable cycle that contains an accepting transition.
    """
    spine = w.spine
    for sym in spine:
        if sym not in a.alphabet:
            raise GtcError(f"lasso symbol {sym!r} is not in the alphabet")
    moves: dict = {}
    for t in a.transitions:
        moves.setdefault(t[:2], []).append((t[2], t in a.accepting))

    start = [(q, 0) for q in a.initial]
    seen = set(start)
    queue = deque(start)
    edges: dict = {}
    accepting_edges = []
    while queue:
        q, i = item = queue.popleft()
        nxt_i = w.successor_index(i)
        outs = edges[item] = []
        for dst, acc in moves.get((q, spine[i]), ()):
            node = (dst, nxt_i)
            outs.append(node)
            if acc:
                accepting_edges.append((item, node))
            if node not in seen:
                seen.add(node)
                queue.append(node)
    comp = _scc_ids(list(seen), edges)
    return any(comp[x] == comp[y] for x, y in accepting_edges)


# ---------------------------------------------------------------------------
# three-valued transition matrices
# ---------------------------------------------------------------------------
#
# A matrix entry over a fixed order of the trace automaton's states says,
# for a finite path w of the proof:
#   0 - no w-labelled run between the states,
#   1 - a run exists,
#   2 - a run through an accepting transition exists.
# A row is two bit masks: ``p1`` (entry >= 1) and ``p2`` (entry = 2), with p2
# contained in p1.  A matrix stores only its non-zero rows, as ``(i, p1, p2)``
# triples in increasing order of i, so equal matrices are equal tuples.  A
# product looks the rows of its right factor up by index, in a ``_Rows`` dict
# ``i -> (p1, p2)``, and costs the non-zero rows of its left factor times
# their bits: one step along a long cycle touches the few states that move,
# not every state of the automaton.

_Mat = tuple[tuple[int, int, int], ...]
_Rows = dict[int, tuple[int, int]]


def _rows(m: _Mat) -> _Rows:
    return {i: (r1, r2) for i, r1, r2 in m}


def _mat_identity(n: int) -> _Mat:
    return tuple((i, 1 << i, 0) for i in range(n))


def _mat_mul(a: _Mat, b: _Rows) -> _Mat:
    out = []
    for i, r1, r2 in a:
        o1 = o2 = 0
        x = r1
        while x:
            low = x & -x
            x ^= low
            row = b.get(low.bit_length() - 1)
            if row is not None:
                o1 |= row[0]
                # through an accepting step of either factor
                o2 |= row[0] if r2 & low else row[1]
        if o1:
            out.append((i, o1, o2))
    return tuple(out)


def _symbol_matrices(trace: BuchiAutomaton) -> dict[str, _Rows]:
    """Each node's one-step matrix over the sorted states of ``trace``.

    Built from the transitions: a node's matrix has a row for each state
    that moves on it, and a node no transition reads has an empty one.
    """
    pos = {q: i for i, q in enumerate(sorted(trace.states))}
    gens: dict[str, _Rows] = {sym: {} for sym in trace.alphabet}
    for t in trace.transitions:
        src, sym, dst = t
        i, bit = pos[src], 1 << pos[dst]
        r1, r2 = gens[sym].get(i, (0, 0))
        gens[sym][i] = (r1 | bit, r2 | bit if t in trace.accepting else r2)
    return gens


# ---------------------------------------------------------------------------
# the size-change closure
# ---------------------------------------------------------------------------

Word = tuple[str, ...]
Element = tuple[str, str, _Mat]
"""(source, target, matrix): what a path of the proof between two companions
does to the trace automaton, over some word."""


class _Cap:
    """One count of stored segments, partial segments and loop elements."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def take(self) -> None:
        if self.used >= self.limit:
            raise GtcUnknown(
                f"undecided within the state cap: stored {self.used} segments, "
                "partial segments and loop elements")
        self.used += 1


_Partial = tuple[str, _Mat]
"""A partial segment: the node it reached and its matrix."""


def _segments(order: Mapping[str, list[str]], gens: Mapping[str, _Rows], identity: _Mat,
              companions: list[str], cap: _Cap) -> dict[Element, Word]:
    """Paths from a companion to the next, with a shortest word.

    Between two companions a path passes no back edge, so each search ends.
    ``order`` holds each node's successors in the order the search takes
    them.  Each partial segment keeps the one it was reached from, and a
    word is spelled out only for a stored segment, so a segment of length L
    costs L steps, not L²/2 copies.
    """
    stops = set(companions)
    segments: dict[Element, Word] = {}
    for c in companions:
        start = (c, identity)
        before: dict[_Partial, Optional[_Partial]] = {start: None}
        queue = deque([start])
        while queue:
            item = queue.popleft()
            n, m = item
            step = _mat_mul(m, gens[n])
            for dst in order[n]:
                if dst in stops:
                    seg = (c, dst, step)
                    if seg not in segments:
                        cap.take()
                        segments[seg] = _word(before, item)
                elif (dst, step) not in before:
                    cap.take()
                    before[(dst, step)] = item
                    queue.append((dst, step))
    return segments


def _word(before: Mapping[_Partial, Optional[_Partial]], item: _Partial) -> Word:
    """The nodes a segment leaves, up to and including ``item``'s."""
    back = []
    while item is not None:
        back.append(item[0])
        item = before[item]
    back.reverse()
    return tuple(back)


def _loops(segments: Mapping[Element, Word], cap: _Cap) -> dict[Element, Word]:
    """The closure of the segments under composition, with shortest words.

    Elements are settled in order of word length, so the word an element has
    when it is settled is a shortest one.
    """
    by_source: dict[str, list[tuple[Element, Word, _Rows]]] = {}
    for seg, word in segments.items():
        by_source.setdefault(seg[0], []).append((seg, word, _rows(seg[2])))
    best = dict(segments)
    heap = [(len(word), i, seg) for i, (seg, word) in enumerate(segments.items())]
    tick = len(heap)
    settled: dict[Element, Word] = {}
    while heap:
        _len, _tick, elem = heapq.heappop(heap)
        if elem in settled:
            continue
        word = settled[elem] = best[elem]
        src, dst, m = elem
        for (_mid, to, _m2), word2, rows2 in by_source.get(dst, ()):
            prod = (src, to, _mat_mul(m, rows2))
            longer = word + word2
            old = best.get(prod)
            if old is None:
                cap.take()
            if old is None or len(longer) < len(old):
                best[prod] = longer
                heapq.heappush(heap, (len(longer), tick, prod))
                tick += 1
    return settled


def _root_words(order: Mapping[str, list[str]], root: str, targets: list[str]
                ) -> dict[str, Word]:
    """A shortest path from the root to each target, as the nodes it leaves.

    The breadth-first search takes successors in ``order``, as
    :func:`_segments` does.
    """
    before: dict[str, Optional[str]] = {root: None}
    queue = deque([root])
    while queue:
        n = queue.popleft()
        for dst in order[n]:
            if dst not in before:
                before[dst] = n
                queue.append(dst)
    words = {}
    for t in targets:
        back = []
        n = before[t]
        while n is not None:
            back.append(n)
            n = before[n]
        words[t] = tuple(reversed(back))
    return words


def contains(pp: PreProof, trace: BuchiAutomaton, *, max_states: int = MAX_STATES
             ) -> tuple[bool, Optional[Lasso]]:
    """Does every infinite path of ``pp`` have a tail that ``trace`` accepts?

    Returns ``(True, None)`` or ``(False, lasso)`` with a counterexample
    path.  ``trace`` is :func:`build_gtc_automaton` of ``pp``, trimmed or
    not, so its runs start at companions.  The decision is the size-change principle (Lee, Jones and
    Ben-Amram, POPL 2001, Theorem 4), with the trace automaton's states as
    the parameters.  Take an infinite path that no run accepts.  It passes
    companions (:func:`_companions`) infinitely often; colour each pair of
    visits i < j by (the companions at i and j, the three-valued matrix of
    the automaton on the path between them).  By Ramsey's theorem infinitely
    many visits have all their pairs of one colour (c, c, E), and two
    adjacent pairs compose to a third, so E·E = E.  If E had a diagonal
    entry of value 2 at a state s, a run would follow s through each block
    back to s, accepting in each: the path would be accepted.  Conversely,
    an idempotent loop element E at c with word v and no diagonal 2 rejects
    u·v^omega for any path u from the root to c: an accepting run would, by
    Ramsey again, visit one state s at the start of infinitely many blocks
    with an accepting step between two of them, which is a diagonal 2 of a
    power of E, that is of E.

    So the decision closes two finite tables, each keeping a shortest word:
    the segments of the proof graph between companions, and their closure
    under composition.  One cycle through one companion is a single
    segment, so the closure does not grow with cycle length.  The matrices
    keep only their non-zero rows, so a step of a segment costs the rows
    that move, not every state: on a cycle along which the automaton
    follows a few threads, few rows move.  The counterexample is the
    shortest path u from the root to c, found by breadth-first search, with
    the shortest v, and the end of u rotated into v while both end in the
    same node.  ``max_states`` caps the segments and partial segments and
    the loop elements together; going past it raises :class:`GtcUnknown`.
    :func:`check_gtc` calls it on the bisimulation quotient of the proof,
    so there the cap counts the quotient's segments and loop elements, and
    the lasso is a path of the quotient, which :func:`check_gtc` lifts.
    Raises :class:`GtcError` when an open leaf has no back edge or a back
    edge targets a missing node.
    """
    # successors in sorted order, so equal-length witnesses are chosen by node id
    order = {n: sorted(out) for n, out in _require_back_edges(pp).items()}
    gens = _symbol_matrices(trace)
    cap = _Cap(max_states)
    companions = _companions(pp)
    segments = _segments(order, gens, _mat_identity(len(trace.states)), companions, cap)
    prefix = _root_words(order, pp.tree.id, companions)
    found: Optional[tuple[Word, Word]] = None
    for (c, dst, m), v in _loops(segments, cap).items():
        if (c == dst and not any(r2 >> i & 1 for i, _r1, r2 in m)
                and _mat_mul(m, _rows(m)) == m
                and (found is None or len(prefix[c]) + len(v) < sum(map(len, found)))):
            found = (prefix[c], v)
    if found is None:
        return True, None
    return False, _rotated(*found)


def _rotated(u: Word, v: Word) -> Lasso:
    """``u · v^omega``, with the end of ``u`` rotated into ``v`` while both
    end in the same node."""
    while u and u[-1] == v[-1]:
        u, v = u[:-1], (u[-1],) + v[:-1]
    return Lasso(u, v)


def check_gtc(pp: PreProof, *, max_states: int = MAX_STATES
              ) -> tuple[bool, Optional[Lasso]]:
    """Decide whether every infinite path carries a good trace.

    Returns ``(True, None)`` when it does, else ``(False, lasso)`` with an
    ultimately periodic counterexample path (no left mu-trace / right
    nu-trace on any tail).  Raises :class:`GtcUnknown` when the state cap
    was exceeded — never a wrong boolean — and :class:`GtcError` when an
    open leaf has no back edge or a back edge targets a missing node.

    The condition is decided on the coarsest bisimulation quotient of the
    proof graph (:func:`_quotient`), in which each bud stands for its
    companion, so a cycle unrolled m times is decided on one lap's classes.
    When nothing merges, that is the proof itself.  A counterexample of the
    quotient is lifted back to a lasso of the proof by following its
    branches from the root (:func:`_lift`).  ``max_states`` caps the
    quotient's segments, partial segments and loop elements.
    """
    quotient = _quotient(pp)
    decided = pp if quotient is None else quotient
    # the path automaton decides nothing; bench/worker.py times these four
    # calls as stages, looked up on this module by name and in this order
    build_path_automaton(decided)
    ok, lasso = contains(decided, trim(build_gtc_automaton(decided)), max_states=max_states)
    if lasso is None or quotient is None:
        return ok, lasso
    return ok, _lift(pp, quotient, lasso)


class Accepted(Record):
    """The pre-proof is structurally valid and satisfies the trace condition."""

    __slots__ = ()


class Rejected(Record):
    """Why a pre-proof is not a cyclic proof.

    ``kind`` is ``"structural"`` (with validation issues) or ``"trace"``
    (with a counterexample lasso).
    """

    __slots__ = _compared = ("kind", "issues", "lasso", "detail")
    kind: str
    issues: tuple[ValidationIssue, ...]
    lasso: Optional[Lasso]
    detail: str

    def __init__(self, kind: str, issues: tuple[ValidationIssue, ...] = (),
                 lasso: Optional[Lasso] = None, detail: str = "") -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "issues", issues)
        object.__setattr__(self, "lasso", lasso)
        object.__setattr__(self, "detail", detail)


CheckResult = Union[Accepted, Rejected]


def check_cyclic_proof(pp: PreProof, *, max_states: int = MAX_STATES) -> CheckResult:
    """Full check: every inference validated, then the trace condition.

    Raises :class:`GtcUnknown` if the trace condition could not be decided
    within the caps.
    """
    issues = validate_preproof(pp)
    if issues:
        return Rejected("structural", issues=tuple(issues),
                        detail="; ".join(str(i) for i in issues))
    ok, lasso = check_gtc(pp, max_states=max_states)
    if ok:
        return Accepted()
    assert lasso is not None
    return Rejected("trace", lasso=lasso,
                    detail=f"path with no good trace: {render_lasso(lasso)}")


# ---------------------------------------------------------------------------
# reporting helpers
# ---------------------------------------------------------------------------


def render_lasso(lasso: Lasso) -> str:
    """``prefix (cycle)^ω`` as node ids."""
    cycle = f"({' '.join(lasso.cycle)})^ω"
    if lasso.prefix:
        return f"{' '.join(lasso.prefix)} {cycle}"
    return cycle


def counterexample_report(pp: PreProof, lasso: Lasso) -> str:
    """A printable account of a counterexample path.

    The node-id line is followed, for each occurrence of the cycle's first
    node, by the annotated replay of one full lap (plus re-entry), showing
    where each candidate thread stops or fails to grow.

    Each distinct formula of the replay is printed once, as a
    :func:`~hflcyc.syntax.print_template`, and each distinct annotation is
    labelled once; a line fills its formula's template with its labels.  So
    a long lap over a few sequents prints a few formulas.
    """
    lines = [f"counterexample path: {render_lasso(lasso)}"]
    start_node = lasso.cycle[0]
    lap = lasso.cycle + (lasso.cycle[0],)
    templates: dict[Expr, Template] = {}
    labels: dict[tuple[int, ...], str] = {}

    def label(note: tuple[int, ...]) -> str:
        text = labels.get(note)
        if text is None:
            text = labels[note] = annotation_label(note)
        return text

    for side, index in pp.positions(start_node):
        ref = OccurrenceRef(start_node, side, index)
        lines.append(f"thread from {start_node} {side}:{index}:")
        entries = replay_annotations(pp, lap, ref)
        for node_id, occ, af in entries:
            template = templates.get(af.formula)
            if template is None:
                template = templates[af.formula] = print_template(af.formula)
            text = fill_template(template, {p: label(n) for p, n in af.notes.items()})
            lines.append(f"  {node_id}  {occ[0]}:{occ[1]}  {text}")
        if len(entries) < len(lap):
            lines.append("  (thread ends: occurrence has no successor)")
    return "\n".join(lines)
