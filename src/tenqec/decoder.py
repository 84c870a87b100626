"""Exact maximum-likelihood decoding by tensor-network contraction.

Given independent single-qubit noise, the likelihood of each logical class
is a sum of products of per-qubit probabilities over the class's coset.
Every layout, nested rings and open chains alike, evaluates that sum by
contracting its own network along :func:`tenqec.holographic.schedule_for`,
children before parents, with messages whose bond dimensions stay at
4^(radius - r).  One executor path runs every step group of the
schedule: the outer ring's nodes, which only weigh leaves, in a few
groups, and the inner nodes of each layer in groups of like nodes, the
seed alone.  A group's messages are one output array along a node axis,
from which a later group reads its children's by its own ``positions``,
a slice or one gather per chain position, with no per-node lookup.  A
node without children needs only its output slots' sums of leaf weights,
and the input fixes where they come from.  A syndrome or an arbitrary
leaf table (``leaves=``) is weighed entry by entry: one gather per leaf
leg from the (B, 4n) leaf table, read in place, and one sum per output
slot; a syndrome's table is that of its packed pure-error rows.  Every
executor array holds the batch first.  Bit-packed errors (``errors=``; the
harness passes its sampled errors, and any operators will do) are read
from :class:`NodeTables`, one row per node: under independent noise the
sums depend only on the node's 4^L pattern, so a (4^L, slots) table, 128
KB per node kind and noise row, is filled by L mode products of the dense
block tensor and held by the schedule's workspace for the last noise
model it served, never in a process-wide cache.  Both sources feed the
same message layout and renormalization.  A node with children closes each
output slot with one matrix product, whose inner dimension runs over the
slot's digit prefixes, or at the seed, where the network closes on
itself, with one trace, and weighs any leaf legs of its own (chains
only) entry by entry.  A batched call returns one :class:`Likelihoods`
of (B, labels) mantissas and (B,) log scales; a single one, a
:class:`LikelihoodTable`.  The brute-force reference is
:mod:`tenqec.oracle`, which the test suite compares against to 1e-10; at
bond dimension > 1 it compares against a dense contraction of the layout
graph.
"""

from __future__ import annotations

import bisect
import math
import mmap
import weakref
from dataclasses import dataclass, field

import numpy as np

from .holographic import ContractionSchedule, HolographicLayout, ScheduleStep, StepGroup
from .pauli import PauliString, pack, unpack
from .stabilizer import Syndrome

# Relative tie tolerance of argmax_labels: reordered float sums move mantissas
# by up to about 1e-13 through radius 5; genuine top-two gaps exceed 1e-6.
TIE_RTOL = 1e-9


@dataclass(frozen=True, slots=True, eq=False)  # compared and hashed by identity
class NoiseModel:
    """Independent per-qubit Pauli noise: probs[i, g] for I, X, Y, Z."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.probs):
            raise ValueError("probs must be real, got a complex array")
        p = np.array(self.probs, dtype=np.float64)  # read-only below, as node tables assume
        if p.ndim != 2 or p.shape[1] != 4:
            raise ValueError("probs must have shape (n, 4)")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if not np.allclose(p.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("each qubit's probabilities must sum to 1")
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def depolarizing(cls, n: int, p: float) -> "NoiseModel":
        """X, Y, Z each with probability p/3 on every qubit."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        row = np.array([1.0 - p, p / 3.0, p / 3.0, p / 3.0])
        return cls(np.tile(row, (n, 1)))


def leaf_probabilities(noise: NoiseModel, pure_error: PauliString) -> np.ndarray:
    """Per-qubit leaf vectors: leaf[i, g] = probs[i, code of E_i * g].

    Column g is the probability of the recovery-shifted Pauli on that
    qubit, whose code is the XOR of the two codes.
    """
    return _packed_leaf_probabilities(noise, *pack([pure_error], noise.n))[0]


def _packed_leaf_probabilities(
    noise: NoiseModel, ex: np.ndarray, ez: np.ndarray
) -> np.ndarray:
    """Leaf tables of bit-packed errors, one per row of ``ex``/``ez``.

    Rows are (..., words) uint64 x and z bits as :func:`tenqec.pauli.pack`
    writes them; the result is a plain (..., n, 4) array.
    """
    n = noise.n
    return noise.probs[np.arange(n)[:, None], _codes(n, ex, ez)[..., None] ^ np.arange(4)]


def _codes(n: int, ex: np.ndarray, ez: np.ndarray) -> np.ndarray:
    """The (..., n) uint8 qubit codes of bit-packed operators, as in
    :mod:`tenqec.pauli`: I, X, Y, Z = 0-3."""
    x, z = (np.unpackbits(w.view(np.uint8), axis=-1, count=n, bitorder="little")
            for w in (ex, ez))
    return (x ^ z) | (z << 1)


@dataclass(frozen=True, slots=True)
class LikelihoodTable:
    """Relative class likelihoods with a shared log scale.

    The absolute likelihood of label L is mantissa(L) * exp(log_scale);
    mantissas alone suffice for comparisons.  argmax_class counts labels
    within a relative TIE_RTOL of the largest mantissa as tied and picks
    the earliest in enumeration order, which for one logical qubit is
    I, X, Z, Y, so the decision never rests on summation order.
    """

    labels: tuple[PauliString, ...]
    mantissas: np.ndarray
    log_scale: float

    def value(self, label: PauliString) -> float:
        return float(self.mantissas[self.labels.index(label)])

    def absolute(self, label: PauliString) -> float:
        return self.value(label) * math.exp(self.log_scale)

    def normalized(self) -> dict[PauliString, float]:
        total = float(self.mantissas.sum())
        if total <= 0:
            raise ValueError("all class likelihoods vanish")
        return {
            label: float(v) / total
            for label, v in zip(self.labels, self.mantissas)
        }

    def argmax_class(self) -> PauliString:
        return self.labels[int(argmax_labels(self.mantissas))]


def argmax_labels(mantissas: np.ndarray) -> np.ndarray:
    """The decided label's index along the last axis of ``mantissas``: the
    earliest label within a relative TIE_RTOL of the largest mantissa.

    :meth:`LikelihoodTable.argmax_class` decides one table with it, and a
    (B, labels) stack of tables decides B tables at once, alike.
    """
    tied = mantissas >= mantissas.max(axis=-1, keepdims=True) * (1.0 - TIE_RTOL)
    return np.argmax(tied, axis=-1)


@dataclass(frozen=True, slots=True)
class Likelihoods:
    """B rows of relative class likelihoods, each with its own log scale.

    Label L's absolute likelihood in row b is mantissas[b, L] *
    exp(log_scales[b]); ``argmax_labels(mantissas)`` decides every row at
    once, as :meth:`LikelihoodTable.argmax_class` decides one.
    """

    labels: tuple[PauliString, ...]
    mantissas: np.ndarray  # (B, labels)
    log_scales: np.ndarray  # (B,)


@dataclass(slots=True)
class OpCounter:
    """Multiply-accumulate tally for the network executor.

    Categories: 'leaf' gathers (one per entry per open leg, or, for a
    node without children read from :class:`NodeTables`, one per output
    slot); 'matmul' products (rows * inner * cols each), one per trie node
    below a trie's first level and one per (slot, prefix) pair, its prefix
    times its summed suffixes; 'combine' passes (rows * cols per matrix)
    that scale suffixes by leaf weights, sum each pair's entries, or sum
    each slot's pairs (or, without children, its entries) into the output
    block; and 'trace' the ring's closing inner products (rows * cols per
    pair).
    Final scalar reductions contribute no multiplies and are not counted.
    The executor does a slot's pair products and their sum as one matrix
    product, whose inner dimension stacks the slot's prefixes; the tally
    still counts them per pair, so it is unchanged by that fusion, and so
    are the broadcasts that stand in for matmuls over an inner dimension
    of 1.  A workspace fills :class:`NodeTables` per noise model, not per
    decode, so no counter sees the fill; the tables' ``macs`` reports it.
    """

    by_category: dict[str, int] = field(default_factory=dict)
    by_node: dict[str, int] = field(default_factory=dict)

    def add(self, node: str, category: str, count: int) -> None:
        self.by_category[category] = self.by_category.get(category, 0) + count
        self.by_node[node] = self.by_node.get(node, 0) + count

    @property
    def total(self) -> int:
        return sum(self.by_category.values())


class _Workspace:
    """A call's state, and its arrays, batch first, as views of one float64
    buffer that its schedule keeps, so no later call faults them in again.

    The first call on a source (a leaf table, or packed errors) allocates
    afresh, notes each array's size per batch row in 64-byte lines and the
    take count when it was freed, and places each, largest first, at the
    lowest offset that no array live beside it overlaps.  Later calls take
    the same arrays in the same order from a map of its own, grown to the
    layout only for a larger batch.  It holds ``noise``, the last model
    whose packed errors it read, so that no new one at a reused address
    passes for it, with its ``tables``, and a call's leaf table, counter
    and group ``outputs`` from :meth:`start` to :meth:`finish`.
    """

    def __init__(self) -> None:
        self.buffer = np.empty(0)
        # per source, keyed by whether it is a leaf table: (offsets, sizes,
        # total), in float64 per batch row; read through learned_row_bytes
        self.layouts: dict[bool, tuple[list[int], list[int], int]] = {}
        self.noise = self.tables = None  # a NoiseModel and its NodeTables

    def __reduce__(self):
        # a pickled schedule carries no buffer or tables; its copy makes its own
        return _Workspace, ()

    def start(self, path: bool, batch: int, table: np.ndarray | None,
              counter: OpCounter | None) -> None:
        self.path, self.batch, self.layout = path, batch, self.layouts.get(path)
        self.table, self.counter = table, counter
        self.outputs = []  # per group, (batch, nodes, ...), until its last reader
        self.sizes, self.ends, self.refs = [], [], []
        if self.layout is not None and self.buffer.size < batch * self.layout[2]:
            # faulted in at once where the platform can; a forked process
            # copies a private map on write (Windows has no flags)
            size, flags = 8 * batch * self.layout[2], getattr(mmap, "MAP_PRIVATE", None)
            self.buffer = np.frombuffer(mmap.mmap(-1, size) if flags is None else mmap.mmap(
                -1, size, flags | getattr(mmap, "MAP_POPULATE", 0)))

    def credit(self, group: StepGroup, category: str, count: int) -> None:
        """Charge each node of the group its own ``count`` MACs of ``category``."""
        if self.counter is not None:
            for step in group.steps:
                self.counter.add(step.name, category, count)

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next array, of ``shape``."""
        k, size, sizes, ends = len(self.sizes), math.prod(shape[1:]), self.sizes, self.ends
        sizes.append(-(-size // 8) * 8)
        if self.layout is None:
            out = np.empty(shape)
            ends.append(math.inf)
            self.refs.append(weakref.ref(out, lambda _: ends.__setitem__(k, len(sizes))))
            return out
        if self.layout[1][k:k + 1] != sizes[k:]:
            raise RuntimeError("executor arrays differ from the learned layout")
        at = self.batch * self.layout[0][k]
        return self.buffer[at : at + self.batch * size].reshape(shape)

    def gather(self, a: np.ndarray, index: np.ndarray, axis: int) -> np.ndarray:
        """``np.take`` into the next array; the index is valid, and "clip"
        writes in place where "raise" buffers."""
        out = self.take(a.shape[:axis] + index.shape + a.shape[axis + 1:])
        return a.take(index, axis, out, "clip")

    def finish(self) -> None:
        """Learn the call's layout if it had none."""
        if self.layout is None:
            sizes, ends = self.sizes, [min(end, len(self.sizes)) for end in self.ends]
            offsets, placed = [0] * len(sizes), []  # (lo, hi, taken, freed), by lo
            for k in sorted(range(len(sizes)), key=lambda k: -sizes[k]):
                at = 0
                for lo, hi, taken, freed in placed:
                    if taken < ends[k] and k < freed:
                        if at + sizes[k] <= lo:
                            break
                        at = max(at, hi)
                offsets[k] = at
                bisect.insort(placed, (at, at + sizes[k], k, ends[k]))
            self.layout = self.layouts[self.path] = (
                offsets, sizes, max(at + size for at, size in zip(offsets, sizes)))
        # arrays still alive report to no one, and the call's inputs go
        self.refs, self.outputs, self.table, self.counter = [], [], None, None


def learned_row_bytes(schedule: ContractionSchedule) -> int | None:
    """Bytes per batch row of the layout that the schedule's first
    ``errors=`` call learned, or None before such a call has."""
    return next((8 * work.layouts[False][2] for work in schedule.workspaces
                 if False in work.layouts), None)


# XOR4[p, d] = d ^ p: row[XOR4] is the leaf-weight matrix W[p, d] = row[d ^ p]
# of a qubit whose error has code p, for its noise row
XOR4 = np.arange(4)[:, None] ^ np.arange(4)


class NodeTables:
    """Messages of a schedule's nodes without children under one noise
    model, one row per pattern of error codes on a node's leaf legs.

    A node without children weighs its entry e by Π_j row_j[e_j ⊕ p_j],
    where row_j is the noise row and p_j the error's code of its j-th
    leaf qubit, so its output slots' sums depend only on its leaf rows and
    its 4^L patterns p (first leaf leg major).  Each (4^L, slots) table is
    filled once, by L mode products of the dense block tensor with the 4 ×
    4 matrices row_j[XOR4]; ``macs`` counts that fill's multiply-accumulates,
    which no decode repeats.  Nodes with equal leaf rows share one table,
    keyed by the rows' bytes, so depolarizing noise makes one table per
    node kind (128 KB each for the seed at radius 1 and the outer ring's
    single and corner nodes), and per-qubit noise at most one per node.
    The tables live on this object, never in a process-wide cache; a
    schedule's workspace holds those of the last noise model it served,
    and this object refers to no schedule, so it keeps none alive.
    """

    def __init__(self, schedule: ContractionSchedule, noise: NoiseModel) -> None:
        _check_qubits(schedule, noise.n, "noise model")
        self.macs = 0
        built: dict[tuple, np.ndarray] = {}
        # per group of the schedule: its nodes' tables stacked, and each
        # node's first row in the stack; None for a group with children
        self.groups: list[tuple[np.ndarray, np.ndarray] | None] = []
        for group in schedule.groups:
            first = group.steps[0]
            if first.chain:
                self.groups.append(None)
                continue
            legs = tuple(leg for leg, _ in first.leaf_legs)
            # each node's leaf rows, numbered in first-seen order
            seen: dict[bytes, int] = {}
            which = np.array([seen.setdefault(rows.tobytes(), len(seen))
                              for rows in noise.probs[group.qubits]])
            stack = []
            for rows in seen:
                key = (legs, first.in_legs, rows)
                if key not in built:
                    built[key] = _fill(schedule.block, legs + first.in_legs,
                                       np.frombuffer(rows).reshape(-1, 4))
                    self.macs += len(legs) * 4 * 4 ** len(legs + first.in_legs)
                stack.append(built[key])
            self.groups.append((np.concatenate(stack) if len(stack) > 1 else stack[0],
                                which * 4 ** len(legs)))


def _check_qubits(schedule: ContractionSchedule, n: int, owner: str) -> None:
    """Raise ValueError unless the schedule's leaf qubits number ``n``."""
    qubits = sum(group.qubits.size for group in schedule.groups)
    if qubits != n:
        raise ValueError(f"schedule has {qubits} leaf qubits, {owner} has {n}")


def _fill(block: np.ndarray, legs: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
    """The (4^L, slots) table of a node whose leaf legs, then slot legs, are
    ``legs`` (all the block's), from the dense block tensor in that leg
    order.  A mode product per leaf leg contracts its leading axis and
    appends the pattern digit as the minor one, so the next leaf leg leads;
    the matmul reads the transpose in place, so nothing is copied.  W is
    symmetric, W[p, d] = W[d, p]."""
    table = np.zeros(4 ** len(legs))
    table[block[:, list(legs)] @ 4 ** np.arange(len(legs) - 1, -1, -1)] = 1.0
    for row in rows:
        table = table.reshape(4, -1).T @ row[XOR4]
    # axes: slot legs, then the pattern digits in leaf-leg order
    return np.ascontiguousarray(table.reshape(-1, 4 ** len(rows)).T)


def likelihoods_network(
    layout: HolographicLayout,
    schedule: ContractionSchedule,
    noise: NoiseModel,
    syndrome: Syndrome | None = None,
    *,
    leaves: np.ndarray | None = None,
    errors: tuple[np.ndarray, np.ndarray] | None = None,
    counter: OpCounter | None = None,
    bond_observer: dict[str, tuple[int, int]] | None = None,
) -> LikelihoodTable | Likelihoods:
    """Contract the layout's network against leaf vectors.

    Messages flow from the leaves toward the seed, one group of
    :attr:`ContractionSchedule.groups` at a time, each through the same
    sequence.  A gather per leaf leg weighs every tensor entry of every
    node in the group.  A group without children sums each output slot's
    weights into its message.  A group with children reads their
    messages per chain position along the group's node axis from one
    output array per earlier group, as its ``positions`` lay them out (a
    view of a run of nodes, or one gather by index), releases each output
    its ``spent`` lists, and multiplies them along the static split of its
    :class:`~tenqec.holographic.SplitPlan`: one matmul per node and
    distinct digit prefix and suffix, then one per node and output slot,
    whose inner dimension runs over the slot's prefixes, so it sums the
    slot's prefix-times-weighted-suffix products as it multiplies.  The
    result, indexed by the node's parent-facing legs, is its message.
    Every message is renormalized by its largest entry, with the logs
    pooled into the table's log_scale, so deep layouts never underflow.
    The seed closes its ring instead, one output slot at a time, into a
    message like any other: its slots are its codes on the leg that
    carries the class label, so each label's mantissas are read at its
    key.

    The leaves come from exactly one source; passing none or two raises
    ValueError, and so do a leaf entry that is negative or not finite, a
    schedule whose leaf qubits do not number ``layout.n`` and, for a
    syndrome or packed errors, a noise model whose qubits do not:

    - ``syndrome``: the leaf table of its pure error, whose packed rows
      ``layout.code.pure_error_rows`` gives, weighed entry by entry; this
      is the route :func:`decode` takes;
    - ``leaves``: an arbitrary leaf table, weighed entry by entry;
    - ``errors``: (B, words) uint64 x and z rows of any operators, as
      :func:`tenqec.pauli.pack` writes them, whose label L then holds the
      class of the operator times L (for a pure error, class L).  A group
      without children reads each node's slot sums as one row of the
      :class:`NodeTables` of ``noise``, at the base-4 pattern of its
      qubits' codes; the workspace that serves the call fills them when
      it last served another noise model object, or none.  A node with
      children and leaf legs (chains only) still weighs its entries, from
      the errors' own leaf table.

    Both sources of a group's slot sums feed the same message layout and
    renormalization.  ``leaves`` of shape (B, n, 4) and ``errors``
    contract B rows at once, along a leading batch axis of every message,
    and return one :class:`Likelihoods`; each row is renormalized by its
    own largest entries, and every reduction runs along an axis of one
    row, so row b is bit-identical to the (n, 4) call on ``leaves[b]``,
    the B = 1 case of the same loop.  A float64 table is read in place, as
    a (B, 4n) view.  ``counter`` tallies the work of one contraction whatever
    B is, so its counts match ``predicted_op_count`` and repeat exactly
    across calls.  ``bond_observer`` collects each message's observed
    (left, right) bond dimensions, the seed's (1, 1) included.

    Every array the call fills is a view of a buffer that the schedule
    keeps in ``workspaces`` while it lives, one per concurrent call, laid
    out by its first call on the source at that call's peak working set;
    the returned arrays are copies.
    """
    _check_qubits(schedule, layout.n, "layout")
    if sum(source is not None for source in (syndrome, leaves, errors)) != 1:
        raise ValueError("pass one of a syndrome, a leaf table or packed errors, "
                         "not both or neither")
    if leaves is None:
        _check_qubits(schedule, noise.n, "noise model")
    if syndrome is not None:
        if layout.code is None:
            raise ValueError("layout carries no code to map the syndrome")
        leaves = _packed_leaf_probabilities(
            noise, *layout.code.pure_error_rows(syndrome.bit_array()))
    codes = None
    if errors is not None:
        ex, ez = map(np.ascontiguousarray, errors)
        words = (layout.n + 63) // 64
        if not (ex.shape == ez.shape and ex.ndim == 2 and ex.shape[1] == words
                and len(ex) and ex.dtype == ez.dtype == np.uint64):
            raise ValueError(f"errors of shapes {ex.shape} and {ez.shape}, dtypes "
                             f"{ex.dtype} and {ez.dtype}, are not (B, {words}) uint64 "
                             f"words with B >= 1")
        codes = _codes(layout.n, ex, ez)
        if any(group.steps[0].chain and group.qubits.size for group in schedule.groups):
            leaves = _packed_leaf_probabilities(noise, ex, ez)
    table = None
    if leaves is not None:
        leaves = np.asarray(leaves)
        if np.iscomplexobj(leaves):
            raise ValueError(f"leaf table must be real, got dtype {leaves.dtype}")
        if (leaves.ndim not in (2, 3) or leaves.shape[-2:] != (layout.n, 4)
                or not leaves.size):
            raise ValueError(f"leaf table of shape {leaves.shape} is not (n, 4) or "
                             f"(B, n, 4) with n = {layout.n} and B >= 1")
        table = np.asarray(leaves, dtype=np.float64).reshape(-1, 4 * layout.n)
        if not (np.isfinite(table).all() and (table >= 0).all()):
            raise ValueError("leaf table entries must be finite and nonnegative")

    try:  # a call that raises does not put its workspace back
        work = schedule.workspaces.pop()
    except IndexError:
        work = _Workspace()
    if codes is not None and work.noise is not noise:
        work.noise, work.tables = noise, NodeTables(schedule, noise)
    work.start(codes is None, len(table) if codes is None else len(codes), table, counter)
    log_scale = np.zeros(work.batch)
    for index, group in enumerate(schedule.groups):
        # each close gathers its group's leaf weights itself, so no slab
        # outlives its group
        first = group.steps[0]
        if not first.chain:
            sums = (_slot_sums(group, work) if codes is None
                    else _table_sums(group, work.tables.groups[index], codes, work))
            out = _messages(group, sums[..., None, None], work)
        elif first.kind == "center":
            out = _close_ring(group, work)
        else:
            out = _close_slots(group, work)
        _observe(group, out.shape[-2:], bond_observer)
        log_scale += _renormalize(out)
        work.outputs.append(out)
        out = sums = None  # no name holds a message past its last reader

    # every output but the seed's has been released by its last reader; the
    # seed's slots are its codes on leg 0, and a label's slot is its key.
    # The mantissas are a copy, so the next call leaves them alone
    mantissas = work.outputs[-1].reshape(len(log_scale), -1)[
        :, [label.key() for label in schedule.labels]]
    work.finish()
    schedule.workspaces.append(work)
    if leaves is not None and leaves.ndim == 2:
        return LikelihoodTable(schedule.labels, mantissas[0], float(log_scale[0]))
    return Likelihoods(schedule.labels, mantissas, log_scale)


def _renormalize(out: np.ndarray) -> np.ndarray:
    """Divide each message in place by its largest entry; return the logs.

    The batch and node axes index messages and are kept; the logs are
    summed over the nodes.  A message that is all zero stays unscaled.
    """
    scale = out.max(axis=tuple(range(2, out.ndim)), keepdims=True)
    if not scale.all():
        scale[scale == 0] = 1.0
    out /= scale
    return np.log(scale.reshape(len(out), -1)).sum(axis=1)


def _observe(
    group: StepGroup,
    bonds: tuple[int, int],
    bond_observer: dict[str, tuple[int, int]] | None,
) -> None:
    """Check the group's (left, right) message bond dims against the
    schedule, once: its steps share d_out, which is part of the grouping
    key, and one message array.  Record them per node if observed."""
    first = group.steps[0]
    if bonds != (first.d_out, first.d_out):
        raise AssertionError(
            f"node {first.name}: bond dims {bonds} differ from scheduled {first.d_out}"
        )
    if bond_observer is not None:
        bond_observer.update((step.name, bonds) for step in group.steps)


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ b`` into ``out``; over an inner dimension of 1, the broadcast
    product, which is bit-identical (each element is one multiply) and
    makes no BLAS call per tiny matrix."""
    return (np.multiply if a.shape[-1] == 1 else np.matmul)(a, b, out=out)


def _leaf_weights(group: StepGroup, work: _Workspace) -> np.ndarray | None:
    """The group's leaf weights, (batch, nodes, entries) over the plan's
    digit rows, or None without leaf legs.

    Per leaf leg, two gathers, the (batch, nodes, 4) leaf rows of the
    group's qubits on it and then the digit columns of the plan's rows,
    weigh every node's entries, multiplied in leg order.
    """
    plan, first, table = group.plan, group.steps[0], work.table
    weights: np.ndarray | None = None
    for (leg, _), qubits in zip(first.leaf_legs, group.qubits.T):
        # no name keeps a gathered slab past its product
        rows = work.gather(table.reshape(len(table), -1, 4), qubits, 1)
        if weights is None:
            weights = work.gather(rows, plan.digits[:, leg], 2)
        else:
            weights *= work.gather(rows, plan.digits[:, leg], 2)
    work.credit(group, "leaf", len(plan.digits) * len(first.leaf_legs))
    return weights


def _slot_sums(group: StepGroup, work: _Workspace) -> np.ndarray:
    """Slot sums of nodes without children, entry by entry: (batch, nodes,
    slots).

    The plan's rows come in equal runs per slot, so the sums are one
    reduction along the weights' last axis.
    """
    first = group.steps[0]
    weights = _leaf_weights(group, work)
    # the seed's slot sums (radius 1) are the class values themselves: a
    # final scalar reduction, which OpCounter does not count
    if first.kind != "center":
        work.credit(group, "combine", weights.shape[-1])
    shape = weights.shape[:2] + (_slots(first),)
    return weights.reshape(shape + (-1,)).sum(axis=-1, out=work.take(shape))


def _table_sums(group: StepGroup, tables: tuple[np.ndarray, np.ndarray],
                codes: np.ndarray, work: _Workspace) -> np.ndarray:
    """Slot sums of nodes without children, read from their
    :class:`NodeTables` stack: (batch, nodes, slots), one row per node at
    the base-4 pattern of its leaf qubits' ``codes``."""
    stack, first_rows = tables
    digits = codes[:, group.qubits]
    pattern = digits @ 4 ** np.arange(digits.shape[-1] - 1, -1, -1)
    work.credit(group, "leaf", stack.shape[1])
    return work.gather(stack, pattern + first_rows, 0)


def _slots(step: ScheduleStep) -> int:
    """Output slots of a step: its codes on the in-legs and the deferred leg."""
    return 4 ** (len(step.in_legs) + (step.deferred_leg is not None))


def _tries(group: StepGroup, work: _Workspace) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The prefix and suffix products of the group's split chain.

    Per chain position, its nodes' children's messages are read from
    their groups' outputs along the node axis, (batch, nodes, 4, rows,
    cols), as the group's ``positions`` lay them out: a view of a run of
    nodes, else one gather by index, joined where they sit in several
    groups.  The outputs no later group reads, its ``spent``, are then
    released, and the factors go into the two tries of
    :func:`_trie`: Pᵀ from factors read transposed, so that a slot's gathered
    prefixes are one GEMM operand by reshape, and S from contiguous ones.
    A side the chain lacks is None.
    """
    plan, outputs = group.plan, work.outputs
    mats = []
    for pieces in group.positions:
        parts = [outputs[source][:, nodes] if isinstance(nodes, slice)
                 else work.gather(outputs[source], nodes, 1) for source, nodes in pieces]
        m = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1, out=work.take(
            parts[0].shape[:1] + (sum(len(part[0]) for part in parts),) + parts[0].shape[2:]))
        # a corner child's second parent-facing index joins the left bond
        mats.append(m.reshape(m.shape[:2] + (4, -1, m.shape[-1])))
    for source in group.spent:
        outputs[source] = None
    split = len(plan.prefix)
    return (_trie(group, mats[:split], plan.prefix, work, transposed=True),
            _trie(group, mats[split:][::-1], plan.suffix, work))


def _trie(group: StepGroup, factors: list[np.ndarray], levels: tuple[np.ndarray, ...],
          work: _Workspace, transposed: bool = False) -> np.ndarray | None:
    """One product per node and trie node, (batch, nodes, trie nodes, rows,
    cols), level by level.

    A level multiplies each trie node above from the left by its factor's
    matrices for its children's last digits; parents broadcast over their
    fan-out, so only the factor is gathered.  ``transposed`` reads the
    gathered matrices as their transposes, so the factor stays C-ordered:
    ``take`` copies any other source whole.
    """
    out = None
    for factor, digits in zip(factors, levels):
        picked = work.gather(factor, digits, 2)
        if transposed:
            picked = picked.mT
        if out is not None:
            above = out[:, :, :, None]
            picked = _matmul(picked, above, work.take(
                above.shape[:3] + picked.shape[3:-1] + above.shape[-1:]))
            work.credit(group, "matmul", picked[0, 0].size * above.shape[-2])
        out = picked.reshape(picked.shape[:2] + (-1,) + picked.shape[-2:])
    return out


def _pair_sums(group: StepGroup, rows: slice, weights: np.ndarray | None,
               suffix: np.ndarray, work: _Workspace) -> np.ndarray:
    """Σ w·S of each (slot, prefix) pair among the plan's ``rows``: (batch,
    nodes, pairs, rows, cols).

    Each entry's suffix product is scaled by its leaf weight, and each
    pair's equal run of entries is summed by reshape; a run of one entry is
    its own sum.
    """
    plan = group.plan
    sums = work.gather(suffix, plan.entry_suffix[rows], 2)
    if weights is not None:
        sums *= weights[:, :, rows, None, None]
    # the weighting, then the runs' accumulation
    work.credit(group, "combine", (1 + (weights is not None)) * sums[0, 0].size)
    run = len(plan.digits) // len(plan.pair_prefix)
    if run > 1:
        runs = sums.reshape(sums.shape[:2] + (-1, run) + sums.shape[-2:])
        sums = runs.sum(3, out=work.take(runs.shape[:3] + runs.shape[-2:]))
    return sums


def _close_slots(group: StepGroup, work: _Workspace) -> np.ndarray:
    """Messages of a group with children: per node and output slot, one GEMM
    [P₁ … P_R]·[Σw·S₁; …; Σw·S_R] over the slot's R prefixes.

    The gathered Pᵀ and the pair sums both stack a slot's R prefixes by
    reshape, so the product sums the slot's pairs along its inner
    dimension, R·k for prefix products with k columns, and no pair matrix
    is formed.  With no prefix (a chain of one child) each slot has one
    pair, whose sum is the slot's matrix.
    """
    plan, first = group.plan, group.steps[0]
    weights = _leaf_weights(group, work)
    prefix, suffix = _tries(group, work)
    out = _pair_sums(group, slice(None), weights, suffix, work)
    batch, size, pairs, _, d_r = out.shape
    if prefix is not None:
        picked = work.gather(prefix, plan.pair_prefix, 2)
        work.credit(group, "matmul", picked[0, 0].size * d_r)
        shape = (batch, size, _slots(first), -1)
        stacked = picked.reshape(shape + picked.shape[-1:]).mT
        out = _matmul(stacked, out.reshape(shape + (d_r,)),
                      work.take(stacked.shape[:-1] + (d_r,)))
    # the sum of each slot's pairs
    work.credit(group, "combine", pairs * out.shape[-2] * d_r)
    return _messages(group, out, work)


def _close_ring(group: StepGroup, work: _Workspace) -> np.ndarray:
    """The seed's message, (batch, 1, slots, 1, 1), one output slot of its
    plan's rows at a time, which keeps the gathered matrices small."""
    weights = _leaf_weights(group, work)
    prefix, suffix = _tries(group, work)
    out = work.take((len(suffix), 1, _slots(group.steps[0])))
    for slot in range(out.shape[-1]):
        _trace_slot(group, slot, weights, prefix, suffix, out[..., slot], work)
    return _messages(group, out[..., None, None], work)


def _trace_slot(group: StepGroup, slot: int, weights: np.ndarray | None,
                prefix: np.ndarray | None, suffix: np.ndarray, out: np.ndarray,
                work: _Workspace) -> None:
    """The seed's (batch, 1) sums of output ``slot``, into ``out``.

    tr(P·Σw·S) = ⟨Pᵀ, Σw·S⟩ summed over the slot's prefixes is one
    contiguous ``np.vecdot`` of the slot's Pᵀ with the pairs' Σw·S, with
    no matmul or strided trace.  Where every slot reads the whole prefix
    trie in order (the plan's ``whole_prefix``, the seed's 4 slots from
    radius 2 on), Pᵀ is read in place; otherwise the slot's prefixes are
    gathered.  With no prefix (bond 1) the sums' traces are added.
    """
    plan = group.plan
    size, pairs = len(plan.digits) // 4, len(plan.pair_prefix) // 4
    sums = _pair_sums(group, slice(slot * size, (slot + 1) * size), weights, suffix, work)
    if prefix is None:
        np.einsum("...ii->...", sums).sum(axis=-1, out=out)
        return
    picked = prefix if plan.whole_prefix else work.gather(
        prefix, plan.pair_prefix[slot * pairs:][:pairs], 2)
    work.credit(group, "trace", picked[0, 0].size)
    np.vecdot(picked.reshape(picked.shape[:2] + (-1,)),
              sums.reshape(sums.shape[:2] + (-1,)), out=out)


def _messages(group: StepGroup, out: np.ndarray, work: _Workspace) -> np.ndarray:
    """Lay the slots' (batch, nodes, slots, left, right) matrices out as the
    group's messages.

    Behind the batch and node axes, a message is indexed by the node's
    parent-facing legs (first in-leg major), then the left bond, then the
    right bond with any deferred corner leg fused in as the major
    component; slots hold that leg as their minor code, so only a fold
    past a left bond above 1 moves data, into the next array.
    """
    first = group.steps[0]
    batch, size, _, d_l, d_r = out.shape
    fold = 1 if first.deferred_leg is None else 4
    shape = (batch, size) + (4,) * len(first.in_legs) + (d_l, fold * d_r)
    folded = out.reshape(batch, size, -1, fold, d_l, d_r).transpose(0, 1, 2, 4, 3, 5)
    if fold == 1 or d_l == 1:
        return folded.reshape(shape)
    message = work.take(shape)
    np.copyto(message.reshape(folded.shape), folded)
    return message


@dataclass(frozen=True, slots=True)
class DecodeResult:
    table: LikelihoodTable
    label: PauliString
    correction: PauliString


def decode(
    layout: HolographicLayout,
    schedule: ContractionSchedule,
    noise: NoiseModel,
    syndrome: Syndrome,
) -> DecodeResult:
    """Most likely logical class for a syndrome, plus a matching recovery.

    The syndrome goes to :func:`likelihoods_network` as it is.  The
    correction is the class representative times the syndrome's pure
    error, so it reproduces the syndrome and lands in the chosen class.
    """
    table = likelihoods_network(layout, schedule, noise, syndrome)
    label = table.argmax_class()
    pure_error = unpack(*layout.code.pure_error_rows(syndrome.bit_array()[None]), layout.n)[0]
    correction = layout.code.class_representative(label) * pure_error
    return DecodeResult(table=table, label=label, correction=correction)
