"""Hyperbolic pentagon-free layouts of contracted code tensors.

The flagship construction nests a six-leg seed tensor inside rings of
seven-leg tensors.  Ring r (1-based radius, layer r-1 here) attaches one
child to every free leg of the previous ring; children sitting between two
adjacent parents use two legs ("corner" nodes), the rest use one ("single"
nodes).  The module builds the layout graph, assembles the contracted
stabilizer code, and derives a contraction schedule whose bond dimensions
are exactly 4^(R - r) between rings at radius r.  Every step of a schedule
reads the block's one digit table; the seed is the block with its
reference leg 0, which carries the class label, bound as an in-leg.

The code is assembled as the fold of two-tensor contractions
``contract(block, acc, binding)`` over the attachments, but on packed GF(2)
tableaux instead of PauliStrings.  Node i, in attachment order with the
seed first, owns byte i of every row, columns ``NODE_COLUMNS * i + leg``.
A block writes only its own byte, and its fresh stabilizer and pure-error
rows are zero on every other, so all blocks' fresh rows are placed first,
at row starts summed in attachment order.  Then each layer attaches in one
vectorized pass, since no node of a layer reads another's byte: the rows
non-zero on a bound leg of the layer's parents are found once, and each
such (row, block) cell is keyed by the codes on the block's one or two
bound legs and set to the block's canonical matching product from a 4- or
16-entry table (derived once per in-leg tuple and per build with
``StabilizerCode.canonicalized_on``, as ``contract`` does).  Bound
columns stay in place and are never read again.  The live columns, the
layout's leaf legs, are gathered once, at the end, into the packed
tableaux that :class:`~tenqec.stabilizer.StabilizerCode` holds; no
operator is built.  The tableaux are sparse (under 1.5% of their bytes
nonzero from radius 4 on, 0.08% at radius 6), and
:func:`~tenqec.pauli.gather` moves only their set bits, so this gather
and the one of ``StabilizerCode.permuted`` to boundary order cost about
as many operations as there are set bits, not rows times columns.

Chains of tensors (open trees of blocks, used for small worked examples)
share the node derivation, the assembler, and :func:`schedule_for`, with
all bond dimensions 1.  Every layout numbers its nodes' ``layer`` so that
a child's layer exceeds its parent's, and the schedule visits nodes in
descending layer, which puts every child before its parent.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .pauli import PauliString, gather
from .stabilizer import StabilizerCode, six_qubit_code, seven_qubit_state

# ``contract`` is the general two-tensor API; the packed assembler below
# reproduces its fold exactly, and it stays importable from here.
from .tensor import CodeTensor, class_labels, contract, pair_products  # noqa: F401

CENTER_LEGS = 6
BLOCK_LEGS = 7
SINGLE_IN_LEG = 6
CORNER_IN_LEGS = (5, 6)  # leg 5 meets the right parent, leg 6 the left
# Tableau columns per node: seven legs and a pad, so that a node's columns
# never straddle a 64-bit word.
NODE_COLUMNS = 8


@dataclass(frozen=True, slots=True)
class LayoutNode:
    """One tensor in the layout graph.

    ``in_links`` are (own leg, parent name, parent leg) triples; ``children``
    are (own leg, child name, child in-leg) triples in ascending own-leg
    order; ``leaf_legs`` are the legs left open to the boundary.
    """

    name: str
    kind: str  # "center", "single", "corner", or "plain" for chain nodes
    layer: int
    in_links: tuple[tuple[int, str, int], ...]
    children: tuple[tuple[int, str, int], ...]
    leaf_legs: tuple[int, ...]

    @property
    def n_legs(self) -> int:
        return _n_legs(self.kind)


def _n_legs(kind: str) -> int:
    """Legs of a node of the given kind: six for the seed, seven for a block."""
    return CENTER_LEGS if kind == "center" else BLOCK_LEGS


@dataclass(frozen=True, slots=True)
class ScheduleStep:
    """Instructions for absorbing one node during network contraction.

    ``chain`` lists the children whose messages this node consumes, in
    matrix-product order; a corner child brings a second parent-facing
    index that is fused into this node's left bond.
    ``deferred_leg`` is the leg bound to the corner child consumed by the
    next node around the ring; its index joins the right bond.  Legs are
    numbered as the block's, whose one table every step reads, and an
    entry's output slot is its code on ``in_legs`` (first in-leg major),
    then on ``deferred_leg``.  The seed's in-leg is the block's reference
    leg 0, which carries the class label, and seed leg j is block leg j + 1.
    """

    name: str
    kind: str
    in_legs: tuple[int, ...]
    chain: tuple[tuple[int, str], ...]  # (own leg, child)
    deferred_leg: int | None
    leaf_legs: tuple[tuple[int, int], ...]  # (own leg, boundary qubit)
    d_out: int

    @property
    def leaf_only(self) -> bool:
        """A node that consumes no child message; only such nodes share a
        step group in the unfused grouping that caps every group's charge."""
        return self.kind != "center" and not self.chain


@dataclass(frozen=True, slots=True)
class SplitPlan:
    """A step's child chain split into two product tries, fixed statically.

    The prefix trie multiplies the first ``len(prefix)`` children, the
    suffix trie the rest from the far end.  A level lists its nodes' last
    digits as a (parents, fan-out) array, or as one row if every parent
    extends alike.  ``digits`` are the block's entry rows sorted by
    (output slot, prefix), in equal runs per slot and per pair, so the
    executor sums them by reshaping; ``entry_suffix`` and ``pair_prefix``
    index the tries' last levels.  ``whole_prefix`` says that every output
    slot's pairs read each node of the prefix trie's last level once, in
    order, so a slot's prefixes are that level itself.
    """

    prefix: tuple[np.ndarray, ...]
    suffix: tuple[np.ndarray, ...]
    digits: np.ndarray  # (entries, legs) intp
    entry_suffix: np.ndarray  # (entries,) intp
    pair_prefix: np.ndarray  # (pairs,) intp
    whole_prefix: bool


@dataclass(frozen=True, slots=True)
class StepGroup:
    """Steps that the executor contracts as one, along a node axis.

    Its steps share kind, chain legs, in-legs, deferred leg, leaf legs and
    output bond, their children's message shapes position by position, and
    their height above the leaves, so none feeds another.  The seed, the
    one step of kind "center", is always alone.  ``qubits[g, j]`` is the
    boundary qubit on the j-th leaf leg of ``steps[g]``.  Where the
    children's messages come from is fixed statically: ``positions[p]``
    lays the group's children at chain position p along its node axis, in
    step order, as pieces (source group, nodes): one per run of children
    in one source group, whose nodes are a slice of the source's node axis
    where they ascend in equal steps, else an index array.  ``spent``
    lists the source groups that no later group reads.
    """

    steps: tuple[ScheduleStep, ...]
    qubits: np.ndarray  # (steps, leaf legs) intp
    plan: SplitPlan
    positions: tuple[tuple[tuple[int, slice | np.ndarray], ...], ...]
    spent: tuple[int, ...]


def _node_bytes(entries: int, d_out: int) -> int:
    """One node's share of a group temporary per leaf-stack row: for each
    entry, two float64 of leaf weights (running product and one gathered
    leg) or, with children, one d_out × d_out bond matrix, which stands in
    for its gathered prefix and weighted suffix products (the executor
    forms no per-pair matrix)."""
    return 8 * entries * max(2, d_out ** 2)


@dataclass(frozen=True, slots=True)
class ContractionSchedule:
    """Leaf-to-root ordering of steps over one block table, and the labels.

    ``block`` holds the seven-qubit block's entries as per-leg codes, one
    row per tensor entry in any order; every step reads it.  ``groups``
    partitions the steps into step groups in ascending height, so every
    child's group precedes its parent's and the center's group comes
    last.  Steps of one fusion key share a group up to ``row_bytes``, the
    bytes charged per leaf-stack row for the largest group's temporaries:
    the unfused grouping's largest charge, in which only leaf-only steps
    share a group, so fusing never raises it.  It is the fusion cap only;
    Monte Carlo chunks are sized by the working set a call learns
    (:func:`tenqec.harness.chunk_size`).  Groups are derived from ``steps``
    and ``block`` on construction, each with its :class:`SplitPlan` and the
    pieces its children's messages are read from, so a schedule rebuilt
    with other steps or another table (``dataclasses.replace``) is
    regrouped, replanned and rerouted, never left stale.  ``workspaces`` keeps the
    executor's working memory while the schedule lives, one buffer per
    concurrent call; a rebuilt or unpickled schedule learns its own.
    Raises ValueError if a step comes before one of its children.
    """

    steps: tuple[ScheduleStep, ...]
    labels: tuple[PauliString, ...]
    block: np.ndarray  # (entries, 7) intp
    groups: tuple[StepGroup, ...] = field(init=False, repr=False, compare=False)
    row_bytes: int = field(init=False, repr=False, compare=False)
    workspaces: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # one pass, children first.  A step's info is its height, one above
        # its highest child's, then its message shape; the key holds its
        # children's infos, so members share a height and none feeds another
        info: dict[str, tuple[int, int, bool, int]] = {}
        members: dict[object, tuple[list, list]] = {}
        for step in self.steps:
            chain_legs, children = zip(*step.chain) if step.chain else ((), ())
            legs, qubits = zip(*step.leaf_legs) if step.leaf_legs else ((), ())
            below = tuple(map(info.get, children))
            if None in below:
                raise ValueError(f"step {step.name} comes before a child of it")
            info[step.name] = (1 + max(below)[0] if below else 0, len(step.in_legs),
                               step.deferred_leg is None, step.d_out)
            key = (step.kind, chain_legs, step.in_legs, step.deferred_leg, legs, below,
                   step.d_out)
            steps, rows = members.setdefault(key, ([], []))
            steps.append(step)
            rows.extend(qubits)
        entries = len(self.block)
        cap = max(_node_bytes(entries, steps[0].d_out)
                  * (len(steps) if steps[0].leaf_only else 1)
                  for steps, _ in members.values())
        plans: dict[tuple, SplitPlan] = {}
        parts = []
        for steps, rows in members.values():
            first = steps[0]
            deferred = () if first.deferred_leg is None else (first.deferred_leg,)
            key = (next(zip(*first.chain), ()), first.in_legs + deferred)
            if key not in plans:
                plans[key] = _split_plan(self.block, *key)
            size = cap // _node_bytes(entries, first.d_out)
            qubits = np.array(rows, dtype=np.intp).reshape(len(steps), -1)
            for start in range(0, len(steps), size):
                parts.append((tuple(steps[start : start + size]),
                              qubits[start : start + size], plans[key]))
        parts.sort(key=lambda part: info[part[0][0].name][0])
        object.__setattr__(self, "groups", _routed(parts))
        object.__setattr__(self, "row_bytes", cap)
        object.__setattr__(self, "workspaces", [])


def _routed(parts: Sequence[tuple[tuple[ScheduleStep, ...], np.ndarray, SplitPlan]]
            ) -> tuple[StepGroup, ...]:
    """The :class:`StepGroup` of each (steps, qubits, plan) part, listed
    children first, with the pieces it reads and the sources it spends."""
    where = {step.name: (i, g) for i, (steps, _, _) in enumerate(parts)
             for g, step in enumerate(steps)}
    last: dict[int, int] = {}  # each source group's last reader
    positions = []
    for i, (steps, _, _) in enumerate(parts):
        pieces = []
        for position in zip(*(step.chain for step in steps)):
            located = [where[child] for _, child in position]
            pieces.append(tuple((source, _nodes([g for _, g in run])) for source, run
                                in itertools.groupby(located, key=operator.itemgetter(0))))
            for source, _ in pieces[-1]:
                last[source] = i
        positions.append(tuple(pieces))
    spent: list[list[int]] = [[] for _ in parts]
    for source, i in last.items():
        spent[i].append(source)
    return tuple(StepGroup(*part, p, tuple(s)) for part, p, s in zip(parts, positions, spent))


def _nodes(run: list[int]) -> slice | np.ndarray:
    """A run of node indices as a slice if they ascend in equal steps, else an array."""
    step = run[1] - run[0] if len(run) > 1 else 1
    if step > 0 and run == list(range(run[0], run[-1] + 1, step)):
        return slice(run[0], run[-1] + 1, step)
    return np.array(run, dtype=np.intp)


def _split_plan(block: np.ndarray, chain_legs: tuple[int, ...],
                slot_legs: tuple[int, ...]) -> SplitPlan:
    """Split the chain over ``chain_legs`` at its midpoint into two product tries.

    Entry keys are base-4 integers of their digits, outer legs major, so a
    trie node's parent key is its own key // 4; an entry's output slot is
    its key over ``slot_legs``.  The plan's rows are the block's, stably
    sorted by (slot, prefix).  Raises ValueError if the slots, the (slot,
    prefix) pairs or a trie level are uneven.
    """
    n, split = len(block), len(chain_legs) // 2
    (prefix, at_prefix), (suffix, at_suffix) = (
        _trie(list(itertools.accumulate((block[:, leg] for leg in side),
                                        lambda key, digit: 4 * key + digit,
                                        initial=np.zeros(n, dtype=np.intp))))
        for side in (chain_legs[:split], chain_legs[split:][::-1])
    )
    slot = block[:, list(slot_legs)] @ 4 ** np.arange(len(slot_legs))[::-1]
    if np.ptp(np.bincount(slot, minlength=4 ** len(slot_legs))):
        raise ValueError("uneven entries per output slot")
    pair = slot * n + at_prefix
    order = np.argsort(pair, kind="stable")
    run = np.bincount(pair)
    run = run[run > 0]
    if np.ptp(run):
        raise ValueError("uneven entries per (slot, prefix) pair")
    pair_prefix = at_prefix[order][:: run[0]]
    # a slot's prefixes ascend and are distinct, so as many as the level
    # has nodes are all of them
    return SplitPlan(prefix, suffix, block[order], at_suffix[order], pair_prefix,
                     len(pair_prefix) == 4 ** len(slot_legs) * (int(at_prefix.max()) + 1))


def _trie(keys: list[np.ndarray]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """A product trie's levels over ever longer entry keys, root key first,
    and each entry's node at the last level."""
    levels: list[np.ndarray] = []
    nodes = np.zeros(1, dtype=np.intp)
    for key in keys[1:]:
        counts = np.bincount(key)
        parents, nodes = len(nodes), np.flatnonzero(counts)  # parent-major
        # equal entries per node make every fan-out equal
        if np.ptp(counts[nodes]):
            raise ValueError("uneven entries per product-trie node")
        last = (nodes % 4).reshape(parents, -1)
        levels.append(last[:1] if np.all(last == last[0]) else last)
    return tuple(levels), np.searchsorted(nodes, keys[-1])


@dataclass(frozen=True, slots=True)
class HolographicLayout:
    """A layout graph, its boundary ordering, and the contracted code."""

    radius: int
    rings: tuple[tuple[str, ...], ...]
    nodes: dict[str, LayoutNode]
    boundary: tuple[tuple[str, int], ...]  # qubit index -> (node, leg)
    code: StabilizerCode | None

    @property
    def n(self) -> int:
        return len(self.boundary)


def build_layout(radius: int, *, with_code: bool = True) -> HolographicLayout:
    """Build the nested-ring layout of the given radius.

    Radius 1 is the bare seed tensor.  Each further ring attaches seven-leg
    blocks to every free leg of the previous one: one corner node between
    each pair of cyclically adjacent parents (consuming the left parent's
    last free leg and the right parent's first), and one single node on
    every middle leg.  With ``with_code`` the stabilizer code is assembled
    ring by ring on packed tableaux (see the module docstring), generator
    for generator equal to folding ``contract(block, acc, binding)`` over
    the same attachments, with the fresh block always supplying the
    canonical side.  Its qubits are then permuted to boundary order
    (outermost ring first to last, free legs ascending within a node).
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")

    rings: list[list[str]] = [["c"]]
    in_links: dict[str, tuple[tuple[int, str, int], ...]] = {"c": ()}
    kinds: dict[str, str] = {"c": "center"}
    layers: dict[str, int] = {"c": 0}

    def add_node(name: str, kind: str, layer: int,
                 links: list[tuple[int, str, int]]) -> None:
        kinds[name] = kind
        layers[name] = layer
        in_links[name] = tuple(links)

    def outward(name: str) -> list[int]:
        """A node's legs that are not its in-legs, ascending."""
        own = {leg for leg, _, _ in in_links[name]}
        return [leg for leg in range(_n_legs(kinds[name])) if leg not in own]

    for layer in range(1, radius):
        prev = rings[-1]
        ring: list[str] = []
        if layer == 1:
            for j in outward("c"):
                name = f"1.{j}"
                add_node(name, "single", 1, [(SINGLE_IN_LEG, "c", j)])
                ring.append(name)
        else:
            for j, parent in enumerate(prev):
                left = prev[(j - 1) % len(prev)]
                free_left, free_right = outward(left), outward(parent)
                corner = f"{layer}.{len(ring)}"
                add_node(corner, "corner", layer, [
                    (CORNER_IN_LEGS[0], parent, free_right[0]),
                    (CORNER_IN_LEGS[1], left, free_left[-1]),
                ])
                ring.append(corner)
                for leg in free_right[1:-1]:
                    name = f"{layer}.{len(ring)}"
                    add_node(name, "single", layer, [(SINGLE_IN_LEG, parent, leg)])
                    ring.append(name)
        rings.append(ring)

    nodes = _derive_nodes(kinds, layers, in_links)
    boundary = tuple(
        (name, leg) for name in rings[-1] for leg in nodes[name].leaf_legs
    )

    code = None
    if with_code:
        raw, live = _assemble(list(nodes.values()))
        position = {slot: q for q, slot in enumerate(live)}
        order = [position[slot] for slot in boundary]
        del position  # before permuted's gathers, which set the build's peak memory
        code = raw.permuted(order)

    return HolographicLayout(
        radius=radius,
        rings=tuple(tuple(r) for r in rings),
        nodes=nodes,
        boundary=boundary,
        code=code,
    )


def _derive_nodes(
    kinds: dict[str, str],
    layers: dict[str, int],
    in_links: dict[str, tuple[tuple[int, str, int], ...]],
) -> dict[str, LayoutNode]:
    """Complete a layout graph from its in-links, in the order of ``kinds``.

    A node's children are the nodes linked to it; its leaf legs are the
    legs bound neither to its parents nor to its children.
    """
    children: dict[str, list[tuple[int, str, int]]] = {name: [] for name in kinds}
    for name, links in in_links.items():
        for own_leg, parent, parent_leg in links:
            children[parent].append((parent_leg, name, own_leg))
    nodes: dict[str, LayoutNode] = {}
    for name, kind in kinds.items():
        bound = {leg for leg, _, _ in in_links[name]}
        bound |= {leg for leg, _, _ in children[name]}
        nodes[name] = LayoutNode(
            name=name,
            kind=kind,
            layer=layers[name],
            in_links=in_links[name],
            children=tuple(sorted(children[name])),
            leaf_legs=tuple(leg for leg in range(_n_legs(kind)) if leg not in bound),
        )
    return nodes


@dataclass(frozen=True, slots=True)
class _BlockKind:
    """A seven-leg block bound on given in-legs, as packed (x, z) bit pairs.

    Bits sit at the block's own leg positions, with the bound legs cleared.
    ``table[t]`` is the canonical matching product for bound-leg key t
    (base-4 digit i is the code on in-leg i); ``stabilizers`` and
    ``pure_errors`` are the block's fresh rows, their bound-leg action
    cleared by the matching product.
    """

    table: np.ndarray  # (4^p, 2) uint8
    stabilizers: np.ndarray  # (7 - 2p, 2) uint8
    pure_errors: np.ndarray  # (7 - 2p, 2) uint8


def _block_kind(in_legs: tuple[int, ...]) -> _BlockKind:
    """Derive the packed matching table of a block bound on ``in_legs``."""
    canon = seven_qubit_state().canonicalized_on(in_legs)
    products = pair_products(canon, len(in_legs))
    mask = sum(1 << leg for leg in range(BLOCK_LEGS) if leg not in in_legs)

    def packed(ops: Sequence[PauliString]) -> np.ndarray:
        return np.array([(op.x & mask, op.z & mask) for op in ops],
                        dtype=np.uint8).reshape(-1, 2)

    def cleared(ops: Sequence[PauliString]) -> np.ndarray:
        return packed([op * products[op.restrict(in_legs).key()] for op in ops])

    rest = 2 * len(in_legs)
    return _BlockKind(packed(products), cleared(canon.stabilizers[rest:]),
                      cleared(canon.pure_errors[rest:]))


def _assemble(
    nodes: Sequence[LayoutNode],
) -> tuple[StabilizerCode, list[tuple[str, int]]]:
    """Attach seven-leg blocks to the seed tensor on a packed tableau.

    ``nodes`` lists the seed first, then the blocks in attachment order.
    The result equals folding ``contract(block, acc, binding)`` over the
    attachments: accumulated rows keep their order and each block appends
    its fresh stabilizer and pure-error rows.  Returns the code with its
    qubits in contraction order (the last block's leaf legs first, then the
    earlier nodes') and the (node, leg) slot of each qubit.
    """
    seed = six_qubit_code()
    index = {node.name: i for i, node in enumerate(nodes)}
    # the live columns, last node first; their (node, leg) slots are listed
    # only after both halves are gathered, when the build's memory peaks
    columns = np.fromiter((NODE_COLUMNS * i + leg for i in reversed(range(len(nodes)))
                           for leg in nodes[i].leaf_legs), dtype=np.intp)
    # Rows: stabilizers [0, m), pure errors [m, 2m), logical X, logical Z,
    # as StabilizerCode holds them; the contracted code has n - k stabilizers.
    k = seed.k
    m = len(columns) - k
    x, z = _tableau(nodes, index, seed, m)
    # each tableau half is freed once gathered, before the next is gathered
    x = gather(x, columns)
    z = gather(z, columns)
    live = [(node.name, leg) for node in reversed(nodes) for leg in node.leaf_legs]
    return StabilizerCode(len(live), k, x, z), live


def _tableau(nodes: Sequence[LayoutNode], index: dict[str, int], seed: StabilizerCode,
             m: int) -> tuple[np.ndarray, np.ndarray]:
    """The assembled code's x and z rows, as (rows, words) uint64 arrays.

    As the module docstring says: node i owns byte i of every row, all
    fresh rows are placed first, then each run of equal ``layer`` attaches
    at once (:func:`_attach_run`).
    """
    # per build: a process-wide cache would hide the blocks' canonicalization
    # from the timing of every build after the first
    ids: dict[tuple[int, ...], int] = {}
    kind_ids = np.array([ids.setdefault(tuple(leg for leg, _, _ in node.in_links), len(ids))
                         for node in nodes[1:]], dtype=np.intp)
    kinds = [_block_kind(in_legs) for in_legs in ids]

    shape = (2 * m + 2 * seed.k, -(-len(nodes) // 8))
    x64, z64 = np.zeros(shape, dtype="<u8"), np.zeros(shape, dtype="<u8")
    x, z = x64.view(np.uint8), z64.view(np.uint8)  # byte i of a row is node i
    seed_rows = (
        list(enumerate(seed.stabilizers))
        + [(m + i, e) for i, e in enumerate(seed.pure_errors)]
        + [(2 * m + i, op) for i, op in enumerate(seed.logical_x + seed.logical_z)]
    )
    for row, op in seed_rows:
        x[row, 0], z[row, 0] = op.x, op.z

    sizes = np.array([len(kind.stabilizers) for kind in kinds], dtype=np.intp)[kind_ids]
    starts = len(seed.stabilizers) + np.cumsum(sizes) - sizes
    table = np.zeros((len(kinds), max((len(kind.table) for kind in kinds), default=1), 2),
                     dtype=np.uint8)
    for i, kind in enumerate(kinds):
        table[i, : len(kind.table)] = kind.table
        at = np.flatnonzero(kind_ids == i)
        rows, byte = starts[at, None] + np.arange(len(kind.stabilizers)), at[:, None] + 1
        for offset, fresh in ((0, kind.stabilizers), (m, kind.pure_errors)):
            x[offset + rows, byte], z[offset + rows, byte] = fresh.T
    kind_at = np.zeros(x.shape[1], dtype=np.intp)
    kind_at[1 : len(nodes)] = kind_ids

    for _, run in itertools.groupby(range(1, len(nodes)), key=lambda i: nodes[i].layer):
        links = [(index[parent], parent_leg, i, j) for i in run
                 for j, (_, parent, parent_leg) in enumerate(nodes[i].in_links)]
        _attach_run(x, z, np.array(links, dtype=np.intp).T, table, kind_at)
    return x64, z64


def _attach_run(x: np.ndarray, z: np.ndarray, links: np.ndarray, table: np.ndarray,
                kind_at: np.ndarray) -> None:
    """XOR one run's matching products into its blocks' bytes, in place.

    ``links`` holds a (parent byte, parent leg, child byte, in-leg index)
    column per bound leg; ``table[kind_at[byte], key]`` is the (x, z) byte
    of block ``byte``'s product for bound-leg key ``key``.  Only the rows
    non-zero on a bound parent leg are keyed; the others have key 0, whose
    product is the identity.
    """
    parent_at, leg_at, child_at, slot_at = links
    child = np.zeros((x.shape[1], NODE_COLUMNS), dtype=np.intp)
    shift = np.zeros(child.shape, dtype=np.uint8)
    child[parent_at, leg_at], shift[parent_at, leg_at] = child_at, 2 * slot_at
    bound = np.packbits(child > 0, axis=1, bitorder="little")[:, 0]  # no child is the seed
    # the (row, parent byte) incidence, then each bound leg's 2-bit code
    lo, hi = parent_at.min(), parent_at.max() + 1
    hit = x[:, lo:hi] | z[:, lo:hi]
    hit &= bound[lo:hi]
    rows, parent = np.nonzero(hit)
    del hit
    parent += lo
    legs, on = np.arange(NODE_COLUMNS, dtype=np.uint8), bound[parent]
    xb = ((x[rows, parent] & on)[:, None] >> legs) & 1
    zb = ((z[rows, parent] & on)[:, None] >> legs) & 1
    code = (xb ^ zb) | (zb << 1)
    e, leg = np.nonzero(code)
    byte = child[parent[e], leg]
    cells = rows[e] * x.shape[1] + byte
    # the cells start at zero; a corner's two parents key one cell, in
    # different digits, so the digits are ORed in one at a time
    cells_x, cells_z = x.reshape(-1), z.reshape(-1)
    digit = shift[parent[e], leg]
    for d in range(0, 2 * slot_at.max() + 1, 2):
        at = digit == d
        cells_x[cells[at]] |= code[e[at], leg[at]] << d
    cells_x[cells], cells_z[cells] = table[kind_at[byte], cells_x[cells]].T


def schedule_for(layout: HolographicLayout) -> ContractionSchedule:
    """Derive the leaves-to-root contraction schedule of a layout.

    Nodes are visited in descending ``layer``, in insertion order within a
    layer, so every child comes before its parent: the outermost ring first
    for nested rings, the deepest block first for chains.  Each node's chain
    starts with the corner child on its first child-bound leg (the corner
    it consumes), followed by its other children; the corner on its last
    child-bound leg is deferred to the neighbour and its leg index joins
    the right bond.  Bond dimensions between layers l and l+1 are
    4^(radius - 1 - l); chains have radius 1, so all their bonds are 1.
    Every step reads the one block table, :func:`_block_digits`, with legs
    and output slots as :class:`ScheduleStep` describes, so the seed's
    slots are the class labels' keys.
    """
    radius = layout.radius
    qubit_of = {slot: q for q, slot in enumerate(layout.boundary)}
    steps: list[ScheduleStep] = []
    # a stable sort: reverse keeps insertion order within a layer
    for node in sorted(layout.nodes.values(), key=operator.attrgetter("layer"),
                       reverse=True):
        name = node.name
        shift = int(node.kind == "center")  # seed leg j is block leg j + 1
        chain: list[tuple[int, str]] = []  # in ascending own-leg order
        deferred: list[int] = []
        for leg, child, in_leg in node.children:
            if layout.nodes[child].kind == "corner" and in_leg == CORNER_IN_LEGS[1]:
                deferred.append(leg + shift)
            else:
                chain.append((leg + shift, child))
        in_legs = (0,) if shift else tuple([leg for leg, _, _ in node.in_links])
        leaf_legs = tuple([(leg + shift, qubit_of[name, leg]) for leg in node.leaf_legs])
        d_out = 1 if shift else 4 ** max(radius - 1 - node.layer, 0)
        # positional arguments: keywords cost about 0.7 µs more per frozen
        # step on Python 3.11, 871 times at radius 5
        steps.append(ScheduleStep(name, node.kind, in_legs, tuple(chain),
                                  deferred[0] if deferred else None, leaf_legs, d_out))
    return ContractionSchedule(steps=tuple(steps), labels=tuple(class_labels(1)),
                               block=_block_digits())


@functools.cache
def _block_digits() -> np.ndarray:
    """The seven-qubit block's digit table, one row per tensor entry; read-only."""
    (block,) = CodeTensor.from_code(seven_qubit_state()).digit_tables().values()
    block = block.astype(np.intp)
    block.flags.writeable = False
    return block


# ---------------------------------------------------------------------------
# Open chains
# ---------------------------------------------------------------------------


def chain_layout(
    links: list[tuple[int, int, int]],
) -> HolographicLayout:
    """Build an open chain: a seed tensor plus seven-leg blocks.

    ``links[i]`` attaches block i+1 as (parent index, parent leg, own
    in-leg), where index 0 is the seed and index j >= 1 is block j.  Parents
    must already be attached.  Block j sits at layer j.  Qubit order is the
    raw contraction order (each new block's free legs first, ascending, then
    the previous code's surviving qubits); the boundary records it.  The
    code is assembled as in :func:`build_layout`.  All schedule bond
    dimensions are 1.
    """
    names = ["c"] + [f"b{i}" for i in range(1, len(links) + 1)]
    kinds = {name: "center" if name == "c" else "plain" for name in names}
    in_links: dict[str, tuple[tuple[int, str, int], ...]] = {"c": ()}
    used_legs: dict[str, set[int]] = {n: set() for n in names}
    for i, (parent_idx, parent_leg, own_leg) in enumerate(links, start=1):
        if not 0 <= parent_idx < i:
            raise ValueError("parent must be attached before its child")
        parent = names[parent_idx]
        free = set(range(_n_legs(kinds[parent]))) - used_legs[parent]
        if parent_leg not in free:
            raise ValueError(f"leg {parent_leg} of {parent} is not available")
        if not 0 <= own_leg < BLOCK_LEGS:
            raise ValueError("in-leg out of range")
        used_legs[parent].add(parent_leg)
        used_legs[names[i]].add(own_leg)
        in_links[names[i]] = ((own_leg, parent, parent_leg),)

    layers = {name: i for i, name in enumerate(names)}
    nodes = _derive_nodes(kinds, layers, in_links)
    code, live = _assemble(list(nodes.values()))
    return HolographicLayout(
        radius=1,
        rings=(tuple(names),),
        nodes=nodes,
        boundary=tuple(live),
        code=code,
    )


def predicted_op_count(layout: HolographicLayout) -> float:
    """Closed-form work bound for contracting the layout's network.

    Sums, over every node with m legs and child bond dimension
    D = 4^max(radius - 2 - layer, 0), the term 2^(m+2) * (m - 3) * D^3.
    This bounds the multiply-accumulate count of the schedule executor;
    the radius-1 layout comes out at exactly 768.
    """
    total = 0.0
    for node in layout.nodes.values():
        m = node.n_legs
        d_child = 4 ** max(layout.radius - 2 - node.layer, 0)
        total += (2 ** (m + 2)) * (m - 3) * float(d_child) ** 3
    return total
