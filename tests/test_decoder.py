"""Network likelihood evaluation and its bookkeeping."""

import dataclasses
import gc
import itertools
import mmap
import os
import pickle
import re
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import first_call_memory, learned_chunk, pure_error
from tenqec import (
    ExhaustiveDecoder,
    NoiseModel,
    OpCounter,
    PauliString,
    Syndrome,
    decode,
    leaf_probabilities,
    likelihoods_network,
    predicted_op_count,
)
from tenqec.decoder import (
    TIE_RTOL,
    LikelihoodTable,
    NodeTables,
    _packed_leaf_probabilities,
    argmax_labels,
)
from tenqec import decoder, holographic
from tenqec.pauli import pack
from tenqec.tensor import class_labels


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(np.array([[0.5, 0.5, 0.5, 0.5]]))
    with pytest.raises(ValueError):
        NoiseModel(np.array([[1.2, -0.2, 0.0, 0.0]]))
    for shape in ((4,), (2, 3), (1, 2, 4)):
        with pytest.raises(ValueError, match=re.escape("shape (n, 4)")):
            NoiseModel(np.full(shape, 0.25))
    for p in (1.5, -0.1):
        with pytest.raises(ValueError, match=re.escape("p must lie in [0, 1]")):
            NoiseModel.depolarizing(3, p)
    model = NoiseModel.depolarizing(3, 0.3)
    assert model.n == 3
    assert np.allclose(model.probs.sum(axis=1), 1.0)
    assert np.allclose(model.probs[:, 0], 0.7)
    # the model keeps a read-only copy, so the node tables a decode fills
    # from it can never go stale under a write
    rows = np.full((3, 4), 0.25)
    model = NoiseModel(rows)
    rows[0] = (1.0, 0.0, 0.0, 0.0)
    assert np.array_equal(model.probs, np.full((3, 4), 0.25))
    with pytest.raises(ValueError, match="read-only"):
        model.probs[0, 0] = 0.5


def test_noise_models_compare_by_identity():
    # the workspace matches a model by identity, so equal-valued models are
    # distinct keys, and comparing them never asks an array for its truth
    a, b = NoiseModel.depolarizing(3, 0.1), NoiseModel.depolarizing(3, 0.1)
    assert (a == b) is False
    assert a == a and a != b
    assert {a: "a", b: "b"}[a] == "a"


def test_leaf_probabilities_identity_pure_error():
    model = NoiseModel.depolarizing(2, 0.3)
    leaves = leaf_probabilities(model, PauliString.identity(2))
    assert np.array_equal(leaves, model.probs)


def test_leaf_probabilities_permute_rows():
    probs = np.array([[0.4, 0.3, 0.2, 0.1]])
    model = NoiseModel(probs)
    # multiplying by X swaps I<->X and Y<->Z in the row gather
    leaves = leaf_probabilities(model, PauliString.from_text("X"))
    assert np.allclose(leaves, [[0.3, 0.4, 0.1, 0.2]])
    leaves = leaf_probabilities(model, PauliString.from_text("Z"))
    assert np.allclose(leaves, [[0.1, 0.2, 0.3, 0.4]])


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_leaf_probabilities_match_codes_gather(n):
    rng = np.random.default_rng(n)
    model = NoiseModel(rng.dirichlet(np.ones(4), size=n))
    for _ in range(5):
        op = PauliString.from_codes(rng.integers(0, 4, size=n).tolist())
        e = np.array(op.codes())
        want = model.probs[np.arange(n)[:, None], e[:, None] ^ np.arange(4)]
        assert np.array_equal(leaf_probabilities(model, op), want)


def test_packed_leaf_probabilities_match_row_calls():
    # a stack of packed pure errors gives its leaf tables in one gather;
    # each row must be leaf_probabilities on that operator
    n = 70
    rng = np.random.default_rng(3)
    model = NoiseModel(rng.dirichlet(np.ones(4), size=n))
    ops = [PauliString.from_codes(c.tolist()) for c in rng.integers(0, 4, (5, n))]
    stacked = _packed_leaf_probabilities(model, *pack(ops, n))
    want = np.array([leaf_probabilities(model, op) for op in ops])
    assert np.array_equal(stacked, want)


def test_network_matches_oracle(holo):
    layout, schedule = holo[1]
    noise = NoiseModel.depolarizing(6, 0.17)
    oracle = ExhaustiveDecoder(layout.code)
    for bits in range(32):
        syn = Syndrome(5, bits)
        net = likelihoods_network(layout, schedule, noise, syn)
        want = oracle.likelihoods(noise, syn)
        for label in net.labels:
            assert net.absolute(label) == pytest.approx(
                want.absolute(label), rel=1e-12
            )


def test_chi_normalization(holo):
    # summed over every syndrome and class, the likelihood mass is 1
    layout, schedule = holo[1]
    noise = NoiseModel.depolarizing(6, 0.23)
    total = 0.0
    for bits in range(32):
        table = likelihoods_network(
            layout, schedule, noise, Syndrome(5, bits)
        )
        total += sum(table.absolute(label) for label in table.labels)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_argmax_tie_breaks_to_identity(holo):
    # at p = 0.75 the depolarizing leaves are flat, so every class ties
    layout, schedule = holo[1]
    noise = NoiseModel.depolarizing(6, 0.75)
    table = likelihoods_network(layout, schedule, noise, Syndrome(5, 9))
    values = [table.value(label) for label in table.labels]
    assert max(values) == pytest.approx(min(values), rel=1e-12)
    assert table.argmax_class() == PauliString.from_text("I")


def test_argmax_scale_invariance(holo):
    # syndromes with a unique maximum keep their normalized table; tied
    # syndromes are covered by test_decisions_ignore_summation_order
    layout, schedule = holo[1]
    noise = NoiseModel.depolarizing(6, 0.13)
    for bits in (0, 6, 11, 30):
        syn = Syndrome(5, bits)
        pure = pure_error(layout.code, syn)
        base = leaf_probabilities(noise, pure)
        plain = likelihoods_network(layout, schedule, noise, syn)
        scaled = likelihoods_network(
            layout, schedule, noise, leaves=base * 137.5
        )
        assert scaled.argmax_class() == plain.argmax_class()
        for label in plain.labels:
            assert scaled.normalized()[label] == pytest.approx(
                plain.normalized()[label], rel=1e-12
            )


def _shuffled(schedule, rng):
    """The same schedule with the block's rows permuted.

    Every step reads its output slot from an entry's own digits, so this
    reorders every step's sums at once, which is all the summation-order
    freedom the executor has.
    """
    order = rng.permutation(len(schedule.block))
    return dataclasses.replace(schedule, block=schedule.block[order])


@pytest.mark.parametrize("radius", [1, 2])
def test_decisions_ignore_summation_order(holo, radius):
    # shuffled entry rows and rescaled leaves change only the order and
    # rounding of the float sums, so exactly tied classes may differ in
    # their last bits; the chosen class must not
    layout, schedule = holo[radius]
    code = layout.code
    m = len(code.stabilizers)
    rng = np.random.default_rng(radius)
    others = [_shuffled(schedule, rng) for _ in range(3)]
    ps = (0.14, 0.18, 0.24)
    if radius == 1:
        cases = [(p, bits) for p in ps for bits in range(1 << m)]
    else:
        cases = [(ps[i % 3], int(rng.integers(1 << m))) for i in range(300)]
    for p, bits in cases:
        noise = NoiseModel.depolarizing(layout.n, p)
        leaves = leaf_probabilities(noise, pure_error(code, Syndrome(m, bits)))
        want = likelihoods_network(
            layout, schedule, noise, leaves=leaves
        ).argmax_class()
        scale = rng.uniform(0.5, 2.0, size=(layout.n, 1))
        for sched, leaf in [(s, leaves) for s in others] + [
            (schedule, leaves * scale)
        ]:
            got = likelihoods_network(layout, sched, noise, leaves=leaf)
            assert got.argmax_class() == want, (p, bits)


def test_leaf_groups_follow_replaced_steps(holo):
    # the schedule must regroup its leaf-only steps when a step is replaced
    # through dataclasses.replace, or a stale group would contract the
    # original qubits and tests that edit steps would prove nothing
    layout, schedule = holo[2]
    leaf_only = [step for step in schedule.steps if step.leaf_only]
    assert len(leaf_only) == 6 == len(schedule.steps) - 1
    step = leaf_only[0]
    # its qubits reversed over its leaf legs weigh other entries
    legs, qubits = zip(*step.leaf_legs)
    moved = dataclasses.replace(step, leaf_legs=tuple(zip(legs, qubits[::-1])))
    other = dataclasses.replace(schedule, steps=tuple(
        moved if s is step else s for s in schedule.steps
    ))
    assert any(s is moved for group in other.groups for s in group.steps)
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    (leaves,) = _leaf_stack(layout.n, noise, 1, 2)
    want = likelihoods_network(layout, schedule, noise, leaves=leaves)
    got = likelihoods_network(layout, other, noise, leaves=leaves)
    assert got.log_scale != want.log_scale  # the mantissas tie here either way


@pytest.mark.parametrize("radius", [1, 3])
def test_split_plans_follow_replaced_tables(holo, radius):
    # split plans live on the schedule and are derived again from a
    # replaced table.  X on the block's reference leg 0 moves each entry of
    # the seed to the slot of label L * X, so the mantissas change only if
    # the plans follow the table
    layout, schedule = holo[radius]
    block = schedule.block.copy()
    block[:, 0] ^= 1  # the code of X
    other = dataclasses.replace(schedule, block=block)
    assert not np.array_equal(other.groups[-1].plan.digits,
                              schedule.groups[-1].plan.digits)
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    (leaves,) = _leaf_stack(layout.n, noise, 1, 3)
    want = likelihoods_network(layout, schedule, noise, leaves=leaves)
    got = likelihoods_network(layout, other, noise, leaves=leaves)
    assert not np.array_equal(got.mantissas, want.mantissas)
    if radius == 1:  # the seed alone: I and X swap, and so do Z and Y
        np.testing.assert_allclose(got.mantissas, want.mantissas[[1, 0, 3, 2]],
                                   rtol=1e-12)


def test_uneven_split_plans_raise(holo):
    # a table whose entries no longer form the tensor's group leaves some
    # slot, (slot, prefix) pair or trie node short, which must fail loudly
    _, schedule = holo[3]
    block = schedule.block.copy()
    block[0] = block[1]  # entry 1 twice, entry 0 gone
    with pytest.raises(ValueError, match="uneven"):
        dataclasses.replace(schedule, block=block)


def test_radius_five_decode_memory_stays_small(holo5_topology):
    # whole-table tries and one label's pairs at a time: about 5.5 MB, where
    # the chain per entry peaked at 4.0 MB and gathering every pair of the
    # seed at once at 13.4 MB
    layout, _ = holo5_topology
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    peak, learned = first_call_memory(layout, noise, noise.probs)
    assert peak < 6_000_000 and learned < 6_000_000


@pytest.mark.parametrize("radius, batch", [(3, 21), (4, 4)])
def test_chunk_decode_memory_stays_near_its_charge(holo, radius, batch):
    # a leaves= call of B rows: the temporaries must stay near B times the
    # schedule's row_bytes charge (1.04 and 1.30 times with the (B, n, 4)
    # table read in place; a leaf-weight slab kept across groups read 1.85
    # at radius 4)
    layout, schedule = holo[radius]
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    rng = np.random.default_rng(radius)
    ops = [PauliString.from_codes(codes.tolist())
           for codes in rng.integers(0, 4, size=(batch, layout.n))]
    leaves = _packed_leaf_probabilities(noise, *pack(ops, layout.n))
    peak, learned = first_call_memory(layout, noise, leaves)
    assert max(peak, learned) <= 1.5 * schedule.row_bytes * batch


@pytest.mark.parametrize("radius, batch", [(4, 4), (5, 1)])
def test_schedule_keeps_its_working_memory(holo, holo5_topology, radius, batch):
    # the first call learns where its arrays go and keeps one buffer for
    # them on the schedule; the next call allocates almost nothing
    layout = holo5_topology[0] if radius == 5 else holo[radius][0]
    schedule = holographic.schedule_for(layout)
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    rng = np.random.default_rng(radius)
    ops = [PauliString.from_codes(codes.tolist())
           for codes in rng.integers(0, 4, size=(batch, layout.n))]
    leaves = _packed_leaf_probabilities(noise, *pack(ops, layout.n))
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            likelihoods_network(layout, schedule, noise, leaves=leaves)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 0.1 * peaks[0]


def _random_leaves(rng, noise, batch):
    codes = rng.integers(0, 4, size=(batch, noise.n))
    return _packed_leaf_probabilities(noise, *pack(
        [PauliString.from_codes(row.tolist()) for row in codes], noise.n))


@pytest.mark.parametrize("radius", [3, 4, "chain"])
def test_results_do_not_depend_on_earlier_calls(holo, three_block_chain, radius):
    # X, then Y at another batch size (a larger buffer), then X again read
    # X's bytes from a fresh schedule, and a returned table keeps its values
    # when the next call reuses the buffer
    layout = three_block_chain[0] if radius == "chain" else holo[radius][0]
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    rng = np.random.default_rng(5)
    x, y = _random_leaves(rng, noise, 2), _random_leaves(rng, noise, 5)
    want = likelihoods_network(layout, holographic.schedule_for(layout), noise, leaves=x)
    schedule = holographic.schedule_for(layout)
    first = likelihoods_network(layout, schedule, noise, leaves=x)
    kept = first.mantissas.copy(), first.log_scales.copy()
    likelihoods_network(layout, schedule, noise, leaves=y)
    again = likelihoods_network(layout, schedule, noise, leaves=x)
    likelihoods_network(layout, schedule, noise, leaves=x[::-1])
    for got in (first, again):
        assert got.mantissas.tobytes() == want.mantissas.tobytes()
        assert got.log_scales.tobytes() == want.log_scales.tobytes()
    assert np.array_equal(first.mantissas, kept[0])
    assert np.array_equal(first.log_scales, kept[1])


@pytest.mark.parametrize("radius", [1, 3, "chain"])
def test_node_tables_follow_the_noise_model(holo, three_block_chain, radius):
    # errors= calls that alternate two noise models on one schedule each
    # read their own model's tables: every call gives the bytes of a fresh
    # schedule's call, and the workspace keeps one model's tables at a time
    layout = three_block_chain[0] if radius == "chain" else holo[radius][0]
    rows = np.random.default_rng(3).dirichlet(np.ones(4), size=layout.n)
    models = (NoiseModel.depolarizing(layout.n, 0.18), NoiseModel(rows))
    errors = _errors(layout.n, 3, 8)
    wants = [likelihoods_network(layout, holographic.schedule_for(layout), noise,
                                 errors=errors) for noise in models]
    schedule = holographic.schedule_for(layout)
    for noise, want in [*zip(models, wants)] * 2:
        got = likelihoods_network(layout, schedule, noise, errors=errors)
        assert got.mantissas.tobytes() == want.mantissas.tobytes()
        assert got.log_scales.tobytes() == want.log_scales.tobytes()
        (work,) = schedule.workspaces
        assert work.noise is noise


def test_schedule_with_node_tables_is_freed_when_dropped(holo):
    # the tables refer to no schedule, so a schedule that has decoded
    # packed errors leaves no cycle behind: dropping it frees it, its
    # buffer and its tables without the cycle collector.  A pickled copy
    # carries neither buffer nor tables and fills its own
    layout, _ = holo[2]
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    schedule = holographic.schedule_for(layout)
    errors = _errors(layout.n, 2, 0)
    want = likelihoods_network(layout, schedule, noise, errors=errors)
    (work,) = schedule.workspaces
    (copied,) = pickle.loads(pickle.dumps(schedule)).workspaces
    assert copied.tables is None and copied.buffer.size == 0 and not copied.layouts
    got = likelihoods_network(layout, pickle.loads(pickle.dumps(schedule)), noise,
                              errors=errors)
    assert got.mantissas.tobytes() == want.mantissas.tobytes()
    kept = [weakref.ref(obj) for obj in (work, work.buffer, work.tables)]
    del work
    gc.disable()
    try:
        del schedule
        assert [ref() for ref in kept] == [None] * 3
    finally:
        gc.enable()


def test_errors_read_in_any_memory_order(holo):
    # Fortran-ordered rows decode as the C-ordered ones do
    layout, schedule = holo[3]
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    ex, ez = _errors(layout.n, 4, 6)
    assert ex.shape[1] > 1
    want = likelihoods_network(layout, schedule, noise, errors=(ex, ez))
    got = likelihoods_network(layout, schedule, noise,
                              errors=(np.asfortranarray(ex), np.asfortranarray(ez)))
    assert got.mantissas.tobytes() == want.mantissas.tobytes()
    assert got.log_scales.tobytes() == want.log_scales.tobytes()


def test_threads_decode_on_one_schedule(holo):
    # concurrent calls never share a buffer or node tables: each pops its
    # own workspace from the schedule and puts it back, so results match
    # serial ones, leaf tables and packed errors alike
    layout, _ = holo[4]
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    rng = np.random.default_rng(11)
    batches = []
    for b in rng.integers(1, 4, size=16):
        batches += [{"leaves": _random_leaves(rng, noise, int(b))},
                    {"errors": _errors(layout.n, int(b), len(batches))}]
    serial = [likelihoods_network(layout, holographic.schedule_for(layout), noise, **b)
              for b in batches]
    schedule = holographic.schedule_for(layout)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(likelihoods_network, layout, schedule, noise, **b)
                       for b in batches]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(got, serial):
        assert a.mantissas.tobytes() == b.mantissas.tobytes()
        assert a.log_scales.tobytes() == b.log_scales.tobytes()
    assert 1 <= len(schedule.workspaces) <= 4


def test_buffer_needs_no_platform_flags(holo, monkeypatch):
    # MAP_POPULATE is Linux's and Windows has no MAP_PRIVATE; without them
    # the buffer is a plain anonymous map and the results stay the same
    layout, _ = holo[3]
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    leaves = _random_leaves(np.random.default_rng(3), noise, 3)
    want = likelihoods_network(layout, holographic.schedule_for(layout), noise,
                               leaves=leaves)
    for name in ("MAP_POPULATE", "MAP_PRIVATE"):
        monkeypatch.delattr(mmap, name)
        schedule = holographic.schedule_for(layout)
        for _ in range(2):
            got = likelihoods_network(layout, schedule, noise, leaves=leaves)
            assert got.mantissas.tobytes() == want.mantissas.tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_process_writes_its_own_buffer(holo):
    # a shared map would let a forked process's decodes overwrite the
    # parent's working memory; a private one is copied on write
    layout, _ = holo[2]
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    schedule = holographic.schedule_for(layout)
    for _ in range(2):
        likelihoods_network(layout, schedule, noise, leaves=noise.probs)
    buffer = schedule.workspaces[0].buffer
    before = buffer.copy()
    pid = os.fork()
    if pid == 0:
        buffer[:] = -1.0
        os._exit(0)
    assert os.waitpid(pid, 0)[1] == 0
    assert buffer.tobytes() == before.tobytes()


def test_relabeling_covariance(holo):
    # a pure error shifted by a stabilizer leaves the table alone; shifted
    # by a logical representative it permutes the classes and leaves the
    # chosen correction's coset alone
    layout, schedule = holo[1]
    code = layout.code
    noise = NoiseModel.depolarizing(6, 0.11)
    syn = Syndrome(5, 22)  # a syndrome whose maximum is unique
    pure = pure_error(code, syn)
    base = likelihoods_network(layout, schedule, noise, syn)

    shifted = likelihoods_network(
        layout, schedule, noise,
        leaves=leaf_probabilities(noise, pure * code.stabilizers[2]),
    )
    for label in base.labels:
        assert shifted.absolute(label) == pytest.approx(
            base.absolute(label), rel=1e-12
        )

    mover = code.logical_x[0]
    relabeled = likelihoods_network(
        layout, schedule, noise, leaves=leaf_probabilities(noise, pure * mover)
    )
    x_label = PauliString.from_text("X")
    for label in base.labels:
        assert relabeled.absolute(label) == pytest.approx(
            base.absolute(label * x_label), rel=1e-12
        )

    # the corrections differ by a stabilizer, never by a logical
    corr_base = code.class_representative(base.argmax_class()) * pure
    corr_moved = (
        code.class_representative(relabeled.argmax_class()) * pure * mover
    )
    assert code.logical_class(corr_base * corr_moved).is_identity()


def test_op_counter_radius_one(holo):
    layout, schedule = holo[1]
    noise = NoiseModel.depolarizing(6, 0.1)
    counter = OpCounter()
    likelihoods_network(layout, schedule, noise, Syndrome(5, 3), counter=counter)
    assert counter.total == 768
    assert counter.by_category == {"leaf": 768}


@pytest.mark.parametrize("radius, total, by_category", [
    pytest.param(4, 1_066_848,
                 {"leaf": 106_752, "matmul": 795_488, "combine": 131_840,
                  "trace": 32_768}, id="4"),
    pytest.param(5, 54_034_560,
                 {"leaf": 511_488, "matmul": 51_003_776, "combine": 1_995_008,
                  "trace": 524_288}, id="5"),
])
def test_op_counts_charge_leaf_nodes_one_by_one(holo, holo5_topology, radius,
                                                total, by_category):
    # groups run many nodes at once but charge each node its own work,
    # which the per-layer benchmark metrics read from by_node
    layout, schedule = holo[4] if radius == 4 else holo5_topology
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    counter, bonds, alone = OpCounter(), {}, OpCounter()
    likelihoods_network(
        layout, schedule, noise, leaves=noise.probs, counter=counter,
        bond_observer=bonds,
    )
    likelihoods_network(layout, _unfused(schedule), noise, leaves=noise.probs,
                        counter=alone)
    assert counter.total == total
    assert counter.by_category == by_category
    # so do the fused groups of steps with children: each node is charged
    # what it costs contracted alone
    assert counter.by_node == alone.by_node
    for step in schedule.steps:
        assert counter.by_node[step.name] > 0
        if step.leaf_only:
            assert bonds[step.name] == (1, 1)


def _parts(schedule):
    """The (steps, qubits, plan) part of each of the schedule's groups."""
    return [(group.steps, group.qubits, group.plan) for group in schedule.groups]


def _unfused(schedule):
    """The schedule with every group that has children split into one-step
    groups on the same plans, in the same order."""
    parts = []
    for steps, qubits, plan in _parts(schedule):
        if not steps[0].chain:
            parts.append((steps, qubits, plan))
            continue
        parts += [((step,), qubits[g : g + 1], plan) for g, step in enumerate(steps)]
    return _regrouped(schedule, parts)


def _regrouped(schedule, parts):
    """A copy of the schedule on the groups of other (steps, qubits, plan)
    ``parts``, listed children first, routed as the schedule routes its own."""
    regrouped = dataclasses.replace(schedule)
    object.__setattr__(regrouped, "groups", holographic._routed(parts))
    return regrouped


@pytest.mark.parametrize("radius, batch", [(3, 5), (4, 3), (5, 2), ("chain", 4)])
def test_fused_groups_match_one_step_at_a_time(holo, holo5_topology, three_block_chain,
                                               radius, batch):
    # a fused group stacks its children's messages along the node axis;
    # every matrix product and run sum is the one-step group's, so the
    # mantissas are bit-identical, and only the log scales' summation
    # order differs
    if radius == "chain":  # two alike branches fuse, with leaf legs
        layout, schedule = three_block_chain
    else:
        layout, schedule = holo5_topology if radius == 5 else holo[radius]
    unfused = _unfused(schedule)
    assert len(unfused.groups) > len(schedule.groups)
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    leaves = _leaf_stack(layout.n, noise, batch, 11)
    fused = likelihoods_network(layout, schedule, noise, leaves=leaves)
    alone = likelihoods_network(layout, unfused, noise, leaves=leaves)
    assert np.array_equal(fused.mantissas, alone.mantissas)
    np.testing.assert_allclose(fused.log_scales, alone.log_scales, rtol=1e-12)


def _routed_children(schedule):
    """Per group and chain position, the child names its pieces read, in
    order, and the children its steps' chains list."""
    groups = schedule.groups
    for group in groups:
        listed = [[child for _, child in position]
                  for position in zip(*(step.chain for step in group.steps))]
        read = [[groups[source].steps[g].name for source, nodes in pieces
                 for g in np.arange(len(groups[source].steps))[nodes]]
                for pieces in group.positions]
        yield group, read, listed


@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5, "chain"])
def test_routes_read_each_groups_children_in_chain_order(holo, holo5_topology,
                                                        three_block_chain, radius):
    # a group's pieces name exactly the children that its chains list, from
    # earlier groups, and releases every output but the center's once, at
    # its last reader; a run of children in equal steps is read as a slice
    if radius == "chain":
        _, schedule = three_block_chain
    else:
        _, schedule = holo5_topology if radius == 5 else holo[radius]
    readers: dict[int, list[int]] = {}
    spent, strided = [], 0
    for i, (group, read, listed) in enumerate(_routed_children(schedule)):
        assert read == listed
        for pieces in group.positions:
            for source, nodes in pieces:
                assert source < i
                readers.setdefault(source, []).append(i)
                if isinstance(nodes, slice):
                    strided += nodes.step > 1
                else:
                    steps = np.diff(nodes)
                    assert nodes.dtype == np.intp and (np.ptp(steps) or steps[0] <= 0)
        spent += [(source, i) for source in group.spent]
    # runs in steps above 1: 8 at radius 3 (step 4), and 4 at radii 4 and 5
    # (steps 19 and 5), where 10 and 19 runs stay index arrays
    assert strided == {3: 8, 4: 4, 5: 4}.get(radius, 0)
    assert sorted(spent) == sorted((source, max(at)) for source, at in readers.items())
    assert sorted(readers) == list(range(len(schedule.groups) - 1))


def test_rebuilt_schedules_get_fresh_routes(holo):
    # reversing the outer ring reorders the leaf-only groups and their
    # nodes, so the rebuilt schedule must read other sources and indices
    layout, schedule = holo[3]
    outer = sum(not step.chain for step in schedule.steps)
    steps = schedule.steps[:outer][::-1] + schedule.steps[outer:]
    rebuilt = dataclasses.replace(schedule, steps=steps)
    assert all(read == listed for _, read, listed in _routed_children(rebuilt))

    def pieces(routed):
        every = np.arange(len(routed.steps))
        return [[[(source, every[nodes].tolist()) for source, nodes in position]
                 for position in group.positions] for group in routed.groups]

    assert pieces(rebuilt) != pieces(schedule)
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    leaves = _leaf_stack(layout.n, noise, 3, 5)
    got = likelihoods_network(layout, rebuilt, noise, leaves=leaves)
    want = likelihoods_network(layout, schedule, noise, leaves=leaves)
    assert np.array_equal(got.mantissas, want.mantissas)
    np.testing.assert_allclose(got.log_scales, want.log_scales, rtol=1e-12)


@pytest.mark.parametrize("radius", [3, 4])
def test_positions_reading_two_groups_match_one_step_at_a_time(holo, radius):
    # no built-in schedule has a chain position whose children sit in two
    # groups; splitting a leaf-only group under a fused parent makes one,
    # whose pieces are concatenated along the node axis
    layout, schedule = holo[radius]
    groups = schedule.groups
    source, nodes = next(
        pieces[0] for group in groups
        if len(group.steps) > 1 for pieces in group.positions
        if not groups[pieces[0][0]].steps[0].chain)
    parts = _parts(schedule)
    steps, qubits, plan = parts[source]
    cut = np.arange(len(steps))[nodes].max()
    parts[source : source + 1] = [(steps[:cut], qubits[:cut], plan),
                                  (steps[cut:], qubits[cut:], plan)]
    split = _regrouped(schedule, parts)
    assert any(len(pieces) == 2 for group in split.groups for pieces in group.positions)
    assert all(read == listed for _, read, listed in _routed_children(split))
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    leaves = _leaf_stack(layout.n, noise, 3, 9)
    got = likelihoods_network(layout, split, noise, leaves=leaves)
    alone = likelihoods_network(layout, _unfused(schedule), noise, leaves=leaves)
    assert np.array_equal(got.mantissas, alone.mantissas)
    np.testing.assert_allclose(got.log_scales, alone.log_scales, rtol=1e-12)


def test_op_counts_syndrome_independent(holo):
    layout, schedule = holo[2]
    noise = NoiseModel.depolarizing(layout.n, 0.1)
    counts = []
    for bits in (0, 5):
        counter = OpCounter()
        likelihoods_network(
            layout, schedule, noise, Syndrome(35, bits), counter=counter
        )
        counts.append((counter.total, dict(counter.by_node)))
    assert counts[0] == counts[1]


def test_decode_correction_is_consistent(holo):
    layout, schedule = holo[2]
    code = layout.code
    noise = NoiseModel.depolarizing(code.n, 0.05)
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = int(rng.integers(code.n))
        err = PauliString.single(code.n, q, int(rng.integers(1, 4)))
        syn = code.syndrome(err)
        result = decode(layout, schedule, noise, syn)
        assert code.syndrome(result.correction) == syn
        assert result.label == result.table.argmax_class()
        # low noise: single-qubit errors decode back to the right coset
        assert code.logical_class(err * result.correction).is_identity()


def test_syndrome_requires_code():
    from tenqec import build_layout, schedule_for

    layout = build_layout(2, with_code=False)
    schedule = schedule_for(layout)
    noise = NoiseModel.depolarizing(layout.n, 0.1)
    with pytest.raises(ValueError):
        likelihoods_network(layout, schedule, noise, Syndrome(35, 1))
    # neither a syndrome nor a leaf table is no input at all
    with pytest.raises(ValueError, match="neither"):
        likelihoods_network(layout, schedule, noise)
    # an explicit leaf table contracts without a code
    table = likelihoods_network(layout, schedule, noise, leaves=noise.probs)
    assert table.absolute(PauliString.from_text("I")) > 0


def test_syndrome_and_leaves_together_raise(holo):
    layout, schedule = holo[2]
    noise = NoiseModel.depolarizing(layout.n, 0.1)
    with pytest.raises(ValueError, match="not both"):
        likelihoods_network(
            layout, schedule, noise, Syndrome(35, 5), leaves=noise.probs
        )


@pytest.mark.parametrize("bits", [0, 1])
def test_syndrome_of_wrong_length_raises(holo, bits):
    """A trivial syndrome is checked like any other."""
    layout, schedule = holo[2]
    noise = NoiseModel.depolarizing(layout.n, 0.1)
    with pytest.raises(ValueError, match="syndrome length"):
        likelihoods_network(layout, schedule, noise, Syndrome(3, bits))
    with pytest.raises(ValueError, match="neither"):
        likelihoods_network(layout, schedule, noise)


def test_leaf_shape_validation(holo):
    layout, schedule = holo[1]
    noise = NoiseModel.depolarizing(6, 0.1)
    with pytest.raises(ValueError):
        likelihoods_network(
            layout, schedule, noise, leaves=np.ones((3, 4))
        )
    # an empty stack names its shape rather than failing in a reshape
    with pytest.raises(ValueError, match=r"shape \(0, 6, 4\)"):
        likelihoods_network(
            layout, schedule, noise, leaves=np.ones((0, layout.n, 4))
        )


@pytest.mark.parametrize("layout_radius, schedule_radius", [(3, 2), (2, 3)])
def test_schedule_from_another_layout_raises(holo, layout_radius,
                                             schedule_radius):
    # a smaller schedule would silently contract only some of the qubits,
    # a larger one would index past the leaf table
    layout, _ = holo[layout_radius]
    _, schedule = holo[schedule_radius]
    noise = NoiseModel.depolarizing(layout.n, 0.1)
    with pytest.raises(ValueError, match="leaf qubits"):
        likelihoods_network(layout, schedule, noise, leaves=noise.probs)
    with pytest.raises(ValueError, match="leaf qubits"):
        likelihoods_network(layout, schedule, noise,
                            Syndrome(len(layout.code.stabilizers), 1))


@pytest.mark.parametrize("qubits", [30, 40])
def test_noise_model_of_another_size_raises(holo, qubits):
    # a syndrome, packed errors and decode() read the noise model, and the
    # message names its size, not a leaf table the caller never passed;
    # an arbitrary leaf table ignores the model
    layout, schedule = holo[2]
    noise = NoiseModel.depolarizing(qubits, 0.1)
    syndrome = Syndrome(len(layout.code.stabilizers), 5)
    message = f"schedule has {layout.n} leaf qubits, noise model has {qubits}"
    for call in (lambda: likelihoods_network(layout, schedule, noise, syndrome),
                 lambda: likelihoods_network(layout, schedule, noise,
                                             errors=_errors(layout.n, 2, 0)),
                 lambda: decode(layout, schedule, noise, syndrome)):
        with pytest.raises(ValueError, match=message):
            call()
    right = NoiseModel.depolarizing(layout.n, 0.1)
    got = likelihoods_network(layout, schedule, noise, leaves=right.probs)
    want = likelihoods_network(layout, schedule, right, leaves=right.probs)
    assert got.mantissas.tobytes() == want.mantissas.tobytes()


def _leaf_stack(n, noise, count, seed):
    """Leaf tables of ``count`` random Pauli errors, on a batch axis."""
    rng = np.random.default_rng(seed)
    return np.array([
        leaf_probabilities(noise, PauliString.from_codes(codes.tolist()))
        for codes in rng.integers(0, 4, size=(count, n))
    ])


def _errors(n, count, seed):
    """``count`` random Pauli operators, packed."""
    rng = np.random.default_rng(seed)
    return pack([PauliString.from_codes(codes.tolist())
                 for codes in rng.integers(0, 4, size=(count, n))], n)


def test_seed_gathers_the_prefixes_of_a_trie_it_does_not_read_whole():
    # every layout's seed reads its whole prefix trie per slot, in order, in
    # place; a seed chain of six children in another order does not, and
    # gathers each slot's prefixes.  At bond dimension 1 any chain order
    # contracts to the same sums
    layout = holographic.chain_layout([(0, leg, 0) for leg in range(6)])
    schedule = holographic.schedule_for(layout)
    *steps, seed = schedule.steps
    chain = tuple(seed.chain[i] for i in (0, 1, 3, 2, 4, 5))
    moved = dataclasses.replace(schedule, steps=(*steps, dataclasses.replace(seed, chain=chain)))
    assert schedule.groups[-1].plan.whole_prefix
    assert not moved.groups[-1].plan.whole_prefix
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    errors = _errors(layout.n, 5, 6)
    for source in ({"leaves": _packed_leaf_probabilities(noise, *errors)}, {"errors": errors}):
        want = likelihoods_network(layout, schedule, noise, **source)
        got = likelihoods_network(layout, moved, noise, **source)
        np.testing.assert_allclose(got.mantissas, want.mantissas, rtol=1e-12)
        np.testing.assert_allclose(got.log_scales, want.log_scales, rtol=1e-12)


@pytest.mark.parametrize("radius", [1, 2, 3, 4, "chain"])
@pytest.mark.parametrize("p", [0.05, 0.18, 0.3])
@pytest.mark.parametrize("full_chunk", [False, True], ids=["B1", "chunk"])
def test_node_tables_match_entry_by_entry_weights(holo, three_block_chain, radius, p,
                                                  full_chunk):
    # a group without children reads its slot sums from node tables, the
    # same positive terms summed in another order; a chain node with
    # children and leaf legs still weighs its entries.  A full chunk runs
    # on a schedule of its own, whose leaf-table buffer (53 MB at radius 1)
    # goes with the test
    layout, schedule = three_block_chain if radius == "chain" else holo[radius]
    if full_chunk:
        schedule = holographic.schedule_for(layout)
    noise = NoiseModel.depolarizing(layout.n, p)
    errors = _errors(layout.n, learned_chunk(layout, schedule) if full_chunk else 1,
                     [round(100 * p), full_chunk])
    got = likelihoods_network(layout, schedule, noise, errors=errors)
    want = likelihoods_network(layout, schedule, noise,
                               leaves=_packed_leaf_probabilities(noise, *errors))
    assert got.labels == want.labels
    np.testing.assert_allclose(got.mantissas, want.mantissas, rtol=1e-12)
    np.testing.assert_allclose(got.log_scales, want.log_scales, rtol=1e-12)


@pytest.mark.parametrize("radius", [1, 2, 3, 4, "chain"])
def test_syndromes_decode_from_the_codes_packed_rows(holo, three_block_chain, monkeypatch,
                                                    radius):
    # a syndrome's leaf table is that of its packed pure-error rows, with
    # no PauliString pure error and no leaf_probabilities on the way; decode
    # maps the syndrome once, and its correction is the class
    # representative times the pure error, unpacked from the same rows
    layout, schedule = three_block_chain if radius == "chain" else holo[radius]
    code = layout.code
    m = code.n - code.k
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    rng = np.random.default_rng([7, m])
    cases = [(bits, Syndrome(m, int("".join(map(str, bits[::-1])), 2)))
             for bits in rng.integers(0, 2, size=(4, m))]
    errors = [pure_error(code, syndrome) for _, syndrome in cases]

    def unused(*args):
        raise AssertionError("a syndrome= decode must not call this")

    monkeypatch.setattr(decoder, "leaf_probabilities", unused)
    for (bits, syndrome), error in zip(cases, errors):
        got = likelihoods_network(layout, schedule, noise, syndrome)
        want = likelihoods_network(
            layout, schedule, noise,
            leaves=_packed_leaf_probabilities(noise, *code.pure_error_rows(bits)))
        assert np.array_equal(got.mantissas, want.mantissas)
        assert got.log_scale == want.log_scale
        result = decode(layout, schedule, noise, syndrome)
        assert np.array_equal(result.table.mantissas, got.mantissas)
        assert result.table.log_scale == got.log_scale
        assert result.label == got.argmax_class()
        assert result.correction == code.class_representative(result.label) * error


def test_messages_off_the_scheduled_bond_raise(holo):
    # every step of a group shares its d_out, so one check per group names
    # the group's first node
    layout, schedule = holo[2]
    steps = tuple(dataclasses.replace(step, d_out=2) if step.leaf_only else step
                  for step in schedule.steps)
    wrong = dataclasses.replace(schedule, steps=steps)
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    name = wrong.groups[0].steps[0].name
    with pytest.raises(AssertionError, match=rf"node {name}: bond dims \(1, 1\) differ"):
        likelihoods_network(layout, wrong, noise, leaves=noise.probs)


@pytest.mark.parametrize("radius, fill_macs", [(1, 393_216), (2, 393_216), (3, 720_896),
                                               (4, 720_896)])
def test_node_tables_charge_one_read_per_slot(holo, radius, fill_macs):
    # a node without children is charged one leaf read per output slot,
    # every other node what it costs entry by entry, whatever the batch;
    # the fill, one table per node kind (6 or 5 leaf legs, 4 * 4^7 MACs
    # each), is counted apart
    layout, schedule = holo[radius]
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    tables = NodeTables(schedule, noise)
    assert tables.macs == fill_macs
    entries = OpCounter()
    likelihoods_network(layout, schedule, noise, leaves=noise.probs, counter=entries)
    counts = []
    for batch in (1, learned_chunk(layout, schedule)):
        counter = OpCounter()
        likelihoods_network(layout, schedule, noise, errors=_errors(layout.n, batch, 0),
                            counter=counter)
        counts.append((counter.by_category, counter.by_node))
    assert counts[0] == counts[1]
    by_category, by_node = counts[0]
    for step in schedule.steps:
        want = entries.by_node[step.name] if step.chain else 4 ** len(step.in_legs)
        assert by_node[step.name] == want
    assert 0 < sum(by_category.values()) <= predicted_op_count(layout)


def test_pure_error_input_validation(holo):
    layout, schedule = holo[2]
    noise = NoiseModel.depolarizing(layout.n, 0.1)
    ex, ez = _errors(layout.n, 2, 0)
    with pytest.raises(ValueError, match="not both"):
        likelihoods_network(layout, schedule, noise, leaves=noise.probs,
                            errors=(ex, ez))
    for bad in ((ex, ez[:1]), (ex[:0], ez[:0]), (ex.astype(np.int64), ez),
                (ex[:, :0], ez[:, :0]), (ex[0], ez[0])):
        with pytest.raises(ValueError, match="uint64 words"):
            likelihoods_network(layout, schedule, noise, errors=bad)
    # rows of the right shape but another dtype: the message names the dtypes
    with pytest.raises(ValueError, match=r"shapes \(2, 1\) and \(2, 1\), dtypes int64 "
                                         r"and int64, are not \(B, 1\) uint64 words"):
        likelihoods_network(layout, schedule, noise,
                            errors=(ex.astype(np.int64), ez.astype(np.int64)))
    with pytest.raises(ValueError, match="leaf qubits"):
        NodeTables(holo[3][1], noise)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
@pytest.mark.parametrize("batched", [False, True])
def test_bad_leaf_entries_raise(holo, bad, batched):
    # one bad entry would otherwise yield NaN or negative mantissas, and
    # argmax_class would still pick a class from them
    layout, schedule = holo[1]
    noise = NoiseModel.depolarizing(layout.n, 0.1)
    leaves = _leaf_stack(layout.n, noise, 3, 4)
    leaves[-1, 2, 1] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        likelihoods_network(
            layout, schedule, noise, leaves=leaves if batched else leaves[-1]
        )


@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5, "chain"])
@pytest.mark.parametrize("batch", [1, 7])
def test_batched_leaves_match_row_calls(holo, holo5_topology, three_block_chain, radius,
                                        batch):
    # the batch axis is invisible: every array of the executor holds it
    # first and no reduction runs across it, so row b of a stacked call is
    # bit for bit the one-row call on leaves[b], or on error b, and so
    # is its decision
    if radius == "chain":
        layout, schedule = three_block_chain
    else:
        layout, schedule = holo5_topology if radius == 5 else holo[radius]
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    seed = 0 if radius == "chain" else radius
    leaves = _leaf_stack(layout.n, noise, batch, seed)
    ex, ez = _errors(layout.n, batch, seed)
    stacked = (likelihoods_network(layout, schedule, noise, leaves=leaves),
               likelihoods_network(layout, schedule, noise, errors=(ex, ez)))
    for out in stacked:
        assert out.labels == schedule.labels
        assert out.mantissas.shape == (batch, len(out.labels))
        assert out.log_scales.shape == (batch,)
    for b in range(batch):
        table = likelihoods_network(layout, schedule, noise, leaves=leaves[b])
        row = likelihoods_network(layout, schedule, noise,
                                  errors=(ex[b : b + 1], ez[b : b + 1]))
        wants = ((table.mantissas, table.log_scale), (row.mantissas[0], row.log_scales[0]))
        for out, (mantissas, log_scale) in zip(stacked, wants):
            assert np.array_equal(out.mantissas[b], mantissas)
            assert out.log_scales[b] == log_scale


def test_op_counts_ignore_batch_size(holo):
    # the counter tallies one contraction's work whatever the batch size
    layout, schedule = holo[3]
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    counts = []
    for batch in (1, 7):
        counter = OpCounter()
        likelihoods_network(
            layout, schedule, noise,
            leaves=_leaf_stack(layout.n, noise, batch, batch), counter=counter,
        )
        counts.append((counter.by_category, counter.by_node))
    assert counts[0] == counts[1]


def test_zero_leaf_row_leaves_other_rows_alone(holo):
    # an all-zero message stays unscaled without disturbing its batch mates
    layout, schedule = holo[2]
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    leaves = _leaf_stack(layout.n, noise, 3, 0)
    leaves[1] = 0.0
    out = likelihoods_network(layout, schedule, noise, leaves=leaves)
    assert not out.mantissas[1].any() and out.log_scales[1] == 0.0
    for b in (0, 2):
        want = likelihoods_network(layout, schedule, noise, leaves=leaves[b])
        assert np.array_equal(out.mantissas[b], want.mantissas)
        assert out.log_scales[b] == want.log_scale


def test_integer_leaves_contract_as_floats(holo):
    layout, schedule = holo[2]
    noise = NoiseModel.depolarizing(layout.n, 0.1)
    ints = likelihoods_network(
        layout, schedule, noise, leaves=np.ones((layout.n, 4), dtype=int)
    )
    floats = likelihoods_network(
        layout, schedule, noise, leaves=np.ones((layout.n, 4))
    )
    assert np.array_equal(ints.mantissas, floats.mantissas)
    assert ints.log_scale == floats.log_scale
    # nested lists are read as arrays, one table or a stack of them
    want = likelihoods_network(layout, schedule, noise, leaves=noise.probs)
    got = likelihoods_network(layout, schedule, noise, leaves=noise.probs.tolist())
    assert np.array_equal(got.mantissas, want.mantissas)
    assert got.log_scale == want.log_scale
    stack = likelihoods_network(layout, schedule, noise, leaves=[noise.probs.tolist()] * 2)
    assert np.array_equal(stack.mantissas, np.stack([want.mantissas] * 2))
    assert np.array_equal(stack.log_scales, [want.log_scale] * 2)


def test_batched_decisions_match_per_table_on_ties():
    """argmax_labels on a (B, 4) stack decides as argmax_class does per table,
    on exact ties, on gaps inside TIE_RTOL and on gaps just outside it."""
    labels = tuple(class_labels(1))
    rows, want = [], []
    for scale in (1.0, 3.7e-200, 2.2e150):
        for gap, tied in ((0.0, True), (0.99 * TIE_RTOL, True), (1.01 * TIE_RTOL, False)):
            for lead, other in itertools.permutations(range(4), 2):
                row = np.full(4, 0.25 * scale)
                row[lead], row[other] = scale, scale * (1.0 - gap)
                rows.append(row)
                want.append(min(lead, other) if tied else lead)
        rows.append(np.full(4, scale))  # all four tie: the earliest label
        want.append(0)
    stack = np.array(rows)
    per_table = [labels.index(LikelihoodTable(labels, row, 0.0).argmax_class())
                 for row in stack]
    assert argmax_labels(stack).tolist() == per_table == want
