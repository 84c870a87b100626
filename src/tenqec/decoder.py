"""Exact maximum-likelihood decoding by tensor-network contraction.

Given independent single-qubit noise, the likelihood of each logical class
is a sum of products of per-qubit probabilities over the class's coset.
Every layout, nested rings and open chains alike, evaluates that sum by
contracting its own network along :func:`tenqec.holographic.schedule_for`,
children before parents, with messages whose bond dimensions stay at
4^(radius - r).  One executor path runs every step group of the
schedule, on a syndrome or a leaf table: the outer ring's nodes, which
only weigh leaves, in a few groups of one gather per leaf leg each, and
the inner nodes of each layer in groups of like nodes whose children's
messages are stacked along a node axis, the seed alone.
:func:`row_bytes` charges one row's temporaries; no fused group charges
more than the largest group of the unfused grouping.  The brute-force
reference is :mod:`tenqec.oracle`, which the test suite compares against
to 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .holographic import ContractionSchedule, HolographicLayout, ScheduleStep, StepGroup
from .pauli import PauliString, pack
from .stabilizer import Syndrome

# Relative tie tolerance of argmax_labels: reordered float sums move mantissas
# by up to about 1e-13 through radius 5; genuine top-two gaps exceed 1e-6.
TIE_RTOL = 1e-9


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Independent per-qubit Pauli noise: probs[i, g] for I, X, Y, Z."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 4:
            raise ValueError("probs must have shape (n, 4)")
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if not np.allclose(p.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("each qubit's probabilities must sum to 1")
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
    if pure_error.n != noise.n:
        raise ValueError("pure error length must match the noise model")
    (leaves,) = packed_leaf_probabilities(noise, *pack([pure_error], noise.n))
    return leaves


def packed_leaf_probabilities(
    noise: NoiseModel, ex: np.ndarray, ez: np.ndarray
) -> np.ndarray:
    """Leaf tables of bit-packed pure errors, one per row of ``ex``/``ez``.

    Rows are (words,) uint64 x and z bits as :func:`tenqec.pauli.pack`
    writes them; the result has shape (rows, n, 4).
    """
    x, z = (
        np.unpackbits(w.view(np.uint8), axis=-1, count=noise.n, bitorder="little")
        for w in (ex, ez)
    )
    e = ((x ^ z) | (z << 1)).astype(np.intp)  # qubit codes, as in tenqec.pauli
    return np.take_along_axis(noise.probs[None], e[..., None] ^ np.arange(4), axis=-1)


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


@dataclass(slots=True)
class OpCounter:
    """Multiply-accumulate tally for the network executor.

    Categories: 'leaf' gathers (one per entry per open leg); 'matmul'
    products (rows * inner * cols each), one per trie node below a trie's
    first level and one per (slot, prefix) pair; 'combine' passes (rows *
    cols per matrix) that scale suffixes by leaf weights, sum each pair's
    entries, or sum each slot's pairs into the output block; and 'trace'
    the ring's closing inner products (rows * cols per pair).  Final
    scalar reductions contribute no multiplies and are not counted.
    """

    by_category: dict[str, int] = field(default_factory=dict)
    by_node: dict[str, int] = field(default_factory=dict)

    def add(self, node: str, category: str, count: int) -> None:
        self.by_category[category] = self.by_category.get(category, 0) + count
        self.by_node[node] = self.by_node.get(node, 0) + count

    @property
    def total(self) -> int:
        return sum(self.by_category.values())


def likelihoods_network(
    layout: HolographicLayout,
    schedule: ContractionSchedule,
    noise: NoiseModel,
    syndrome: Syndrome | None = None,
    *,
    leaves: np.ndarray | None = None,
    counter: OpCounter | None = None,
    bond_observer: dict[str, tuple[int, int]] | None = None,
) -> LikelihoodTable | list[LikelihoodTable]:
    """Contract the layout's network against leaf vectors.

    Messages flow from the leaves toward the seed, one group of
    :attr:`ContractionSchedule.groups` at a time, each through the same
    sequence.  A gather per leaf leg weighs every tensor entry of every
    node in the group.  A group with children also multiplies their
    messages, stacked per chain position along the group's node axis,
    along the static split of its :class:`~tenqec.holographic.SplitPlan`:
    one matmul per node and distinct digit prefix and suffix, and one per
    node and (output slot, prefix) pair.  Each node
    then sums the pairs' run for each output slot into a message indexed
    by its parent-facing legs, and every message is renormalized by its
    largest entry, with the logs pooled into the table's log_scale, so
    deep layouts never underflow.  The seed instead closes its ring, one
    class label's pairs at a time.
    The leaf table is ``leaves`` or, for a syndrome,
    ``leaf_probabilities(noise, layout.code.pure_error(syndrome))``.
    Passing neither or both raises ValueError, and so do a leaf entry that
    is negative or not finite and a schedule whose leaf qubits do not
    number ``layout.n``.

    ``leaves`` of shape (B, n, 4) contracts B leaf tables at once, along
    a leading batch axis of every message, and returns a list of B
    tables; each is renormalized by its own largest entries, so row b
    equals the (n, 4) call on ``leaves[b]``, which is the B = 1 case of
    the same loop.  ``counter`` tallies the work of one contraction
    whatever B is, so its counts match ``predicted_op_count`` and repeat
    exactly across calls.  ``bond_observer`` collects each message's
    observed (left, right) bond dimensions.
    """
    qubits = sum(group.qubits.size for group in schedule.groups)
    if qubits != layout.n:
        raise ValueError(f"schedule has {qubits} leaf qubits, layout has {layout.n}")
    if (syndrome is None) == (leaves is None):
        raise ValueError("pass a syndrome or a leaf table, not both or neither")
    if syndrome is not None:
        if layout.code is None:
            raise ValueError("layout carries no code to map the syndrome")
        leaves = leaf_probabilities(noise, layout.code.pure_error(syndrome))
    if (leaves.ndim not in (2, 3) or leaves.shape[-2:] != (layout.n, 4)
            or not leaves.size):
        raise ValueError(f"leaf table of shape {leaves.shape} is not (n, 4) or "
                         f"(B, n, 4) with n = {layout.n} and B >= 1")
    single = leaves.ndim == 2
    # (B, 4n) floats, so messages renormalize in place: entry gathers are
    # np.take along axis 1, which keeps every stack C-ordered with the batch
    # axis outermost, as matmul wants
    leaves = np.ascontiguousarray(leaves, dtype=np.float64).reshape(-1, 4 * layout.n)
    if not (np.isfinite(leaves).all() and (leaves >= 0).all()):
        raise ValueError("leaf table entries must be finite and nonnegative")

    messages: dict[str, np.ndarray] = {}
    log_scale = np.zeros(len(leaves))
    for group in schedule.groups:
        factors = _factors(group, leaves, messages, counter)
        if group.steps[0].kind == "center":
            # one label's pairs at a time, at its slot label.key() of the
            # seed's four, keeps the gathered matrices small
            out = np.stack([_close_pairs(group, label.key(), 4, *factors, counter)
                            for label in schedule.labels], axis=-1)
        else:
            # no name keeps the pair stack, so it is freed before the next group
            out = _sum_runs(group, _close_pairs(group, 0, 1, *factors, counter),
                            counter)
            for step in group.steps:
                _observe(step, out.shape[-2:], bond_observer)
        log_scale += _renormalize(out)
        for g, step in enumerate(group.steps):
            messages[step.name] = out[:, g]

    # every message but the center's has been consumed by its parent
    (mantissas,) = messages.values()
    tables = [
        LikelihoodTable(schedule.labels, m, float(s))
        for m, s in zip(mantissas, log_scale)
    ]
    return tables[0] if single else tables


def row_bytes(schedule: ContractionSchedule) -> int:
    """Bytes of the largest group temporary per row of a leaf stack: for each
    entry of each node, two float64 of leaf weights (running product and one
    gathered leg) or, with children, one bond matrix of its trie or pairs.
    Groups of steps with children fuse only up to the largest charge of the
    unfused grouping, so fusion leaves this charge, and the chunks, as
    they were."""
    return max(group.row_bytes for group in schedule.groups)


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
    step: ScheduleStep,
    bonds: tuple[int, int],
    bond_observer: dict[str, tuple[int, int]] | None,
) -> None:
    """Record a message's (left, right) bond dims; they must match the schedule."""
    if bond_observer is not None:
        bond_observer[step.name] = bonds
    if bonds != (step.d_out, step.d_out):
        raise AssertionError(
            f"node {step.name}: bond dims {bonds} differ from scheduled {step.d_out}"
        )


def _factors(
    group: StepGroup, leaves: np.ndarray, messages: dict[str, np.ndarray],
    counter: OpCounter | None,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """The group's leaf weights and the two sides of its split chain.

    Weights are (batch, nodes, entries) over the plan's digit rows: one
    ``np.take`` per leaf leg gathers that leg's weights for every node of
    the group, multiplied in leg order.  Its nodes' children's messages
    are stacked per chain position along the node axis, (batch, nodes, 4,
    rows, cols), and go into the prefix and suffix products of
    :func:`_trie`.  The seed, always alone, closes its ring as tr(P·S) =
    ⟨P, Sᵀ⟩, so it builds Sᵀ from transposed factors.  A part the group
    lacks is None.
    """
    plan, first = group.plan, group.steps[0]
    weights: np.ndarray | None = None
    for (leg, _), qubits in zip(first.leaf_legs, group.qubits.T):
        # no name keeps a gathered slab past its product
        index = 4 * qubits[:, None] + plan.digits[:, leg]
        if weights is None:
            weights = np.take(leaves, index, axis=1)
        else:
            weights *= np.take(leaves, index, axis=1)
    _credit(counter, group, "leaf", len(plan.digits) * len(first.leaf_legs))
    mats = []
    for position in zip(*(step.chain for step in group.steps)):
        m = np.stack([messages.pop(child) for _, child in position], axis=1)
        # a corner child's second parent-facing index joins the left bond
        mats.append(m.reshape(m.shape[:2] + (4, -1, m.shape[-1])))
    split, ring = len(plan.prefix), first.kind == "center"
    suffix = [m.mT if ring else m for m in mats[split:]][::-1]
    return (weights, _trie(group, mats[:split], plan.prefix, True, counter),
            _trie(group, suffix, plan.suffix, ring, counter))


def _credit(counter: OpCounter | None, group: StepGroup, category: str,
            count: int) -> None:
    """Charge each node of the group its own ``count`` MACs of ``category``."""
    if counter is not None:
        for step in group.steps:
            counter.add(step.name, category, count)


def _trie(group: StepGroup, factors: list[np.ndarray],
          levels: tuple[np.ndarray, ...], left: bool,
          counter: OpCounter | None) -> np.ndarray | None:
    """One product per node and trie node, (batch, nodes, trie nodes, rows,
    cols), level by level.

    A level multiplies each trie node above, from the left if ``left``, by
    its factor's matrices for its children's last digits; parents broadcast
    over their fan-out, so only the factor is gathered.
    """
    out = None
    for factor, digits in zip(factors, levels):
        picked = np.take(factor, digits, axis=2)
        if out is not None:
            above = out[:, :, :, None]
            picked = above @ picked if left else picked @ above
            inner = above.shape[-1] if left else above.shape[-2]
            _credit(counter, group, "matmul", picked[0, 0].size * inner)
        out = picked.reshape(picked.shape[:2] + (-1,) + picked.shape[-2:])
    return out


def _close_pairs(
    group: StepGroup, part: int, parts: int, weights: np.ndarray | None,
    prefix: np.ndarray | None, suffix: np.ndarray | None, counter: OpCounter | None,
) -> np.ndarray:
    """Close the (slot, prefix) pairs in one of ``parts`` of the plan's rows.

    Each pair sums its entries' weighted suffixes, Σ w·S, in equal runs by
    reshape, and one matmul by its prefix gives its matrix: (batch, nodes,
    pairs, left, right), in runs per output slot.  The seed, holding Sᵀ,
    sums tr(P·Σ w·S) = ⟨P, Σ w·Sᵀ⟩ over the pairs instead, by one
    contiguous ``np.vecdot``, with no last matmul or strided trace:
    (batch, 1).  With no suffix the weights stand in for the sums, one pair
    per entry; with no prefix (bond 1) the sums are the pairs' matrices.
    """
    plan, first = group.plan, group.steps[0]
    size = len(plan.digits) // parts
    rows = slice(part * size, (part + 1) * size)
    if suffix is None:
        sums = weights[..., rows, None, None]
    else:
        sums = np.take(suffix, plan.entry_suffix[rows], axis=2)
        if weights is not None:
            sums = sums * weights[..., rows, None, None]
        # the weighting, then the runs' accumulation
        _credit(counter, group, "combine",
                (1 + (weights is not None)) * sums[0, 0].size)
        run = len(plan.digits) // len(plan.pair_prefix)
        if run > 1:  # a run of one entry is its own sum; reducing it would copy
            sums = sums.reshape(sums.shape[:2] + (-1, run) + sums.shape[-2:]).sum(3)
    ring = first.kind == "center"
    if prefix is None:
        return np.einsum("...ii->...", sums).sum(axis=-1) if ring else sums
    pairs = len(plan.pair_prefix) // parts
    picked = np.take(prefix, plan.pair_prefix[part * pairs:][:pairs], axis=2)
    _credit(counter, group, "trace" if ring else "matmul",
            picked[0, 0].size * (1 if ring else sums.shape[-1]))
    if ring:
        return np.vecdot(picked.reshape(picked.shape[:3] + (-1,)),
                         sums.reshape(sums.shape[:3] + (-1,))).sum(axis=-1)
    return picked @ sums


def _sum_runs(
    group: StepGroup,
    chain: np.ndarray,
    counter: OpCounter | None,
) -> np.ndarray:
    """Sum pair matrices into the group's outgoing messages.

    The steps' pairs come in equal runs per output slot, so each slot
    sums one run.  Behind the batch and node axes, a message is indexed by
    the node's parent-facing legs (first in-leg major), then the left bond,
    then the right bond with any deferred corner leg fused in as the major
    component.
    """
    first = group.steps[0]
    batch, size, n_pairs, d_l, d_r = chain.shape
    fold = 1 if first.deferred_leg is None else 4
    out = chain.reshape(
        batch, size, 4 ** len(first.in_legs), fold, -1, d_l, d_r
    ).sum(axis=4)
    _credit(counter, group, "combine", n_pairs * d_l * d_r)
    shape = (batch, size) + (4,) * len(first.in_legs) + (d_l, fold * d_r)
    return out.transpose(0, 1, 2, 4, 3, 5).reshape(shape)


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

    The correction is the class representative times the syndrome's pure
    error, so it reproduces the syndrome and lands in the chosen class.
    """
    table = likelihoods_network(layout, schedule, noise, syndrome)
    label = table.argmax_class()
    code = layout.code
    correction = code.class_representative(label) * code.pure_error(syndrome)
    return DecodeResult(table=table, label=label, correction=correction)
