"""Layered layout construction, scheduling, and the work bound."""

import dataclasses
import itertools

import numpy as np
import pytest

from tenqec import (
    ExhaustiveDecoder,
    LegBinding,
    NoiseModel,
    Syndrome,
    build_layout,
    chain_layout,
    contract,
    exhaustive_contract,
    likelihoods_network,
    predicted_op_count,
    schedule_for,
    seven_qubit_state,
)
from tenqec.holographic import CORNER_IN_LEGS, SINGLE_IN_LEG, _block_digits, _split_plan


NODE_COUNTS = {1: 1, 2: 7, 3: 37, 4: 181}
QUBIT_COUNTS = {1: 6, 2: 36, 3: 174, 4: 834}


def test_node_and_qubit_counts(holo):
    for r, (layout, _) in holo.items():
        assert len(layout.nodes) == NODE_COUNTS[r]
        assert layout.n == QUBIT_COUNTS[r]
        assert layout.code is not None
        assert layout.code.n == layout.n
        assert layout.code.k == 1


def test_ring_structure(holo):
    layout, _ = holo[4]
    ring_sizes = [len(ring) for ring in layout.rings]
    assert ring_sizes == [1, 6, 30, 144]
    # each layer beyond the first grows at least fourfold
    for a, b in zip(ring_sizes[1:], ring_sizes[2:]):
        assert b >= 4 * a
    # layer 2 alternates 6 corners with 24 singles
    kinds = [layout.nodes[name].kind for name in layout.rings[2]]
    assert kinds.count("corner") == 6
    assert kinds.count("single") == 24


def test_in_leg_conventions(holo):
    layout, _ = holo[3]
    for node in layout.nodes.values():
        own_legs = tuple(leg for leg, _, _ in node.in_links)
        if node.kind == "center":
            assert own_legs == ()
        elif node.kind == "single":
            assert own_legs == (SINGLE_IN_LEG,)
        else:
            assert own_legs == CORNER_IN_LEGS


def test_corner_parents_are_adjacent(holo):
    layout, _ = holo[3]
    ring1 = layout.rings[1]
    for name in layout.rings[2]:
        node = layout.nodes[name]
        if node.kind != "corner":
            continue
        parents = [parent for _, parent, _ in node.in_links]
        positions = sorted(ring1.index(p) for p in parents)
        i, j = positions
        assert (j - i == 1) or (i == 0 and j == len(ring1) - 1)


def test_boundary_is_outermost_ring(holo):
    for r, (layout, _) in holo.items():
        outer = set(layout.rings[-1])
        assert len(layout.boundary) == layout.n
        for node_name, leg in layout.boundary:
            assert node_name in outer
        # within each node, boundary legs appear in ascending order
        seen = {}
        for node_name, leg in layout.boundary:
            if node_name in seen:
                assert leg > seen[node_name]
            seen[node_name] = leg


def test_every_scheduled_contraction_distinguishes():
    # the layered builder always binds a block's in-legs; the block state
    # resolves any Pauli on one or both of them
    state = seven_qubit_state()
    assert state.distinguishes_errors_on([SINGLE_IN_LEG])
    assert state.distinguishes_errors_on(list(CORNER_IN_LEGS))


def test_small_codes_validate(holo):
    for r in (1, 2, 3, 4):
        layout, _ = holo[r]
        layout.code.validate()
    # the chain codes of acceptance criterion 1
    for blocks in ([(0, 5, 0)], [(0, 5, 0), (1, 6, 0)]):
        chain_layout(blocks).code.validate()


def test_subnetwork_matches_brute_force(six_tensor, block_tensor):
    # one scheduled attachment, replayed directly: block onto a randomly
    # chosen center leg
    rng = np.random.default_rng(11)
    leg = int(rng.integers(0, 6))
    binding = LegBinding((SINGLE_IN_LEG,), (leg,))
    got = contract(block_tensor, six_tensor, binding)
    got.code.validate()
    want = exhaustive_contract(block_tensor, six_tensor, binding)
    assert got.class_tables == want.classes


def test_schedule_covers_all_nodes(holo):
    for r, (layout, schedule) in holo.items():
        names = [step.name for step in schedule.steps]
        assert sorted(names) == sorted(layout.nodes)
        # leaves-first: every chained child appears before its parent
        seen = set()
        for step in schedule.steps:
            for _, child in step.chain:
                assert child in seen
            seen.add(step.name)


def test_schedule_bond_dimensions(holo):
    for r, (layout, schedule) in holo.items():
        d_out = {step.name: step.d_out for step in schedule.steps}
        for step in schedule.steps:
            node = layout.nodes[step.name]
            if step.kind == "center":
                assert step.d_out == 1  # no parent, scalar output per class
            else:
                assert step.d_out == 4 ** max(r - 1 - node.layer, 0)
            for _, child, _ in node.children:
                assert d_out[child] == 4 ** max(r - 2 - node.layer, 0)


def _assert_reads_block(schedule, block_keys):
    # one table of the block's own rows, stored as an index array so the
    # executor gathers with it as it is
    assert schedule.block is _block_digits()
    assert schedule.block.dtype == np.intp
    assert schedule.block.shape == (128, 7)
    assert sorted(_keys(schedule.block)) == block_keys
    # each plan reorders it so that row i lies in slot i // run, the slot
    # read from the row's own in-leg and deferred-leg digits
    for group in schedule.groups:
        first = group.steps[0]
        deferred = () if first.deferred_leg is None else (first.deferred_leg,)
        legs = first.in_legs + deferred
        slot = group.plan.digits[:, legs] @ 4 ** np.arange(len(legs))[::-1]
        assert np.array_equal(slot, np.arange(128) // (128 // 4 ** len(legs)))


def _keys(digits):
    return [sum(int(c) << (2 * i) for i, c in enumerate(row)) for row in digits]


def _block_keys(block_tensor):
    (members,) = block_tensor.class_tables.values()
    return sorted(members)


def test_schedule_digit_tables(holo, block_tensor):
    block_keys = _block_keys(block_tensor)
    for _, schedule in holo.values():
        _assert_reads_block(schedule, block_keys)


def test_center_table_is_the_seed(holo, six_tensor):
    # the block's rows at reference-leg code label.key() are the seed's
    # rows of that label, on block legs 1-6
    seed = six_tensor.digit_tables()
    for _, schedule in holo.values():
        (center,) = schedule.groups[-1].steps
        assert center.in_legs == (0,)
        assert list(schedule.labels) == list(seed)
        runs = np.split(schedule.groups[-1].plan.digits, len(schedule.labels))
        for label in schedule.labels:
            assert sorted(_keys(runs[label.key()][:, 1:])) == sorted(
                _keys(seed[label]))


def test_every_seed_plan_reads_its_prefix_trie_in_place():
    # the seed's trace reads its slots' prefixes in place when the plan's
    # whole_prefix is set, and gathers them otherwise.  Every seed chain that
    # schedule_for can build, block legs 1-6 in ascending order, sets it, so
    # the gather runs only for hand-built chain orders
    subsets = [legs for size in range(2, 7) for legs in itertools.combinations(range(1, 7), size)]
    assert len(subsets) == 57
    for legs in subsets:
        assert _split_plan(_block_digits(), legs, (0,)).whole_prefix, legs
    for radius in range(2, 7):
        assert schedule_for(build_layout(radius, with_code=False)).groups[-1].plan.whole_prefix


def test_uneven_slots_raise():
    # slot 0 owns three entries and slot 1 one
    with pytest.raises(ValueError, match="uneven entries per output slot"):
        _split_plan(np.array([[0], [0], [0], [1]]), (), (0,))
    # even slots (leg 0) and tries, but each slot splits its four entries
    # 3 + 1 over the prefixes on leg 1
    table = np.array([[slot, prefix, i % 2] for slot in range(4) for i, prefix
                      in enumerate([slot // 2] * 3 + [1 - slot // 2])])
    with pytest.raises(ValueError, match="uneven entries per \\(slot, prefix\\)"):
        _split_plan(table, (1, 2), (0,))


def test_chain_layout_shapes():
    chain = chain_layout([(0, 5, 0)])
    assert chain.n == 11
    assert chain.code.k == 1
    assert chain.code.distance(3) == 3
    longer = chain_layout([(0, 5, 0), (1, 6, 0)])
    assert longer.n == 16
    assert longer.code.k == 1


def test_chain_layout_rejects_bad_links():
    with pytest.raises(ValueError):
        chain_layout([(1, 5, 0)])  # parent not attached yet
    with pytest.raises(ValueError):
        chain_layout([(0, 5, 0), (0, 5, 0)])  # parent leg reused
    for own_leg in (-1, 7):
        with pytest.raises(ValueError, match="in-leg out of range"):
            chain_layout([(0, 5, own_leg)])


def test_chain_schedule_decodes():
    chain = chain_layout([(0, 5, 0)])
    schedule = schedule_for(chain)
    noise = NoiseModel.depolarizing(chain.n, 0.1)
    table = likelihoods_network(chain, schedule, noise, leaves=noise.probs)
    total = sum(table.absolute(label) for label in table.labels)
    assert total > 0


CHAINS = (
    [(0, 5, 0)],
    [(0, 5, 0), (1, 6, 0)],
    [(0, 5, 0), (0, 2, 0)],  # two blocks on the seed
    [(0, 5, 0), (0, 2, 0), (1, 3, 1)],  # and one more on the first block
    [(0, 5, 0), (0, 2, 0), (1, 3, 1), (2, 3, 1)],  # and on the second, alike
)


@pytest.mark.parametrize("links", CHAINS)
def test_every_chain_step_table_is_slot_grouped(links, block_tensor):
    _assert_reads_block(schedule_for(chain_layout(links)), _block_keys(block_tensor))


@pytest.mark.parametrize("links", CHAINS)
def test_schedule_for_chains_leaves_first(links):
    chain = chain_layout(links)
    schedule = schedule_for(chain)
    names = [step.name for step in schedule.steps]
    assert sorted(names) == sorted(chain.nodes)
    for step in schedule.steps:
        assert step.d_out == 1
        assert step.deferred_leg is None
        assert all(chain.nodes[child].kind != "corner" for _, child in step.chain)
        # every child is absorbed before its parent
        for _, child, _ in chain.nodes[step.name].children:
            assert names.index(child) < names.index(step.name)
    bonds = {}
    noise = NoiseModel.depolarizing(chain.n, 0.1)
    likelihoods_network(chain, schedule, noise, leaves=noise.probs,
                        bond_observer=bonds)
    assert set(bonds.values()) == {(1, 1)}


def _legs(step):
    return (step.kind, [leg for leg, _ in step.chain], step.in_legs, step.deferred_leg,
            [leg for leg, _ in step.leaf_legs], step.d_out)


def _assert_groups_partition(layout, schedule):
    groups = schedule.groups
    flat = [step for group in groups for step in group.steps]
    assert sorted(map(id, flat)) == sorted(map(id, schedule.steps))
    where = {step.name: i for i, group in enumerate(groups) for step in group.steps}
    steps = {step.name: step for step in schedule.steps}
    below: dict[str, set] = {}  # each node's descendants in the layout
    for name in steps:  # children first
        below[name] = set()
        for _, child, _ in layout.nodes[name].children:
            below[name] |= {child} | below[child]

    def message(child):  # what a parent's chain sees of a child
        step = steps[child]
        return len(step.in_legs), step.deferred_leg is None, step.d_out

    def charge(step):
        return 8 * len(schedule.block) * max(2, step.d_out ** 2)

    # the unfused grouping: leaf-only steps that share legs together, every
    # other step alone; fusion must not raise its largest charge
    unfused: dict[object, int] = {}
    for step in schedule.steps:
        key = str(_legs(step)) if step.leaf_only else step.name
        unfused[key] = unfused.get(key, 0) + charge(step)
    cap = max(unfused.values())
    assert schedule.row_bytes == cap
    for group in groups:
        first = group.steps[0]
        assert group.qubits.shape == (len(group.steps), len(first.leaf_legs))
        assert sum(map(charge, group.steps)) <= cap
        names = {step.name for step in group.steps}
        for step, qubits in zip(group.steps, group.qubits):
            assert [q for _, q in step.leaf_legs] == qubits.tolist()
            assert _legs(step) == _legs(first)
            assert ([message(child) for _, child in step.chain]
                    == [message(child) for _, child in first.chain])
            assert not names & below[step.name]  # no member feeds another
        if first.kind == "center":
            assert len(group.steps) == 1
    for name, node in layout.nodes.items():
        for _, child, _ in node.children:
            assert where[child] < where[name]
    (center,) = groups[-1].steps
    assert center.kind == "center"


@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5])
def test_step_groups_partition_ring_schedules(radius):
    layout = build_layout(radius, with_code=False)
    schedule = schedule_for(layout)
    _assert_groups_partition(layout, schedule)
    # same-shape steps of a layer share a group up to the charge of the
    # unfused grouping (9/39/183 groups at radius 3/4/5), so radius 5 keeps
    # its six layer-1 steps apart.  Groups with the same chain and slot legs
    # share one plan; a plan per step would cost about 0.26 ms each, 181
    # times over at radius 5
    assert len(schedule.groups) == {1: 1, 2: 2, 3: 5, 4: 12, 5: 14}[radius]
    plans = {id(group.plan) for group in schedule.groups}
    assert len(plans) == {1: 1, 2: 2, 3: 4, 4: 5, 5: 5}[radius]
    if radius == 5:
        layer_one = [g for g in schedule.groups if g.steps[0].name.startswith("1.")]
        assert [len(g.steps) for g in layer_one] == [1] * 6


@pytest.mark.parametrize("links", CHAINS)
def test_step_groups_partition_chain_schedules(links):
    chain = chain_layout(links)
    schedule = schedule_for(chain)
    _assert_groups_partition(chain, schedule)
    # the last chain's two inner blocks share legs, child shapes and height
    fused = [len(g.steps) for g in schedule.groups if g.steps[0].chain]
    assert max(fused) == (2 if len(links) == 4 else 1)


def test_a_step_before_its_child_raises(holo):
    _, schedule = holo[3]
    with pytest.raises(ValueError, match="before a child"):
        dataclasses.replace(schedule, steps=schedule.steps[::-1])


def test_schedule_for_branching_chain_matches_oracle():
    cases = (
        # the seed contracts two children (n - k = 15)
        ([(0, 5, 0), (0, 2, 0)], 50),
        # a third block hangs off the first child (n - k = 20); each oracle
        # call sums 2^20 members per class, so fewer syndromes
        ([(0, 5, 0), (0, 2, 0), (1, 3, 1)], 4),
    )
    for blocks, n_syndromes in cases:
        chain = chain_layout(blocks)
        schedule = schedule_for(chain)
        oracle = ExhaustiveDecoder(chain.code)
        noise = NoiseModel.depolarizing(chain.n, 0.1)
        m = chain.n - chain.code.k
        rng = np.random.default_rng(2026)
        for bits in rng.integers(0, 1 << m, size=n_syndromes):
            syn = Syndrome(m, int(bits))
            net = likelihoods_network(chain, schedule, noise, syn)
            want = oracle.likelihoods(noise, syn)
            for label in net.labels:
                assert net.absolute(label) == pytest.approx(
                    want.absolute(label), rel=1e-10
                )


def test_predicted_op_count_radius_one(holo):
    layout, _ = holo[1]
    assert predicted_op_count(layout) == 768.0


def test_predicted_op_count_grows(holo, holo5_topology):
    values = [predicted_op_count(holo[r][0]) for r in (1, 2, 3, 4)]
    values.append(predicted_op_count(holo5_topology[0]))
    for a, b in zip(values, values[1:]):
        assert b > a


def test_with_code_false_skips_code():
    layout = build_layout(3, with_code=False)
    assert layout.code is None
    assert layout.n == 174


def test_radius_validation():
    with pytest.raises(ValueError):
        build_layout(0)
