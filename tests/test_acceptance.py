"""End-to-end acceptance battery.

One test per shipped claim, in order: exact decoder equivalence, the
constructive contraction against literal summation, the precondition
negative control, layered-construction validity, the threshold study at
reduced scale, the decode work bound, harness statistics, and the bundled
algebraic invariants.  Each test prints a single summary line; pytest's
verdict per test is the pass/fail record.
"""

import math
import time

import numpy as np
import pytest

from conftest import pure_error
from tenqec import (
    CodeTensor,
    ContractionPreconditionError,
    DuplicateEntryError,
    ExhaustiveDecoder,
    LegBinding,
    NoiseModel,
    OpCounter,
    PauliString,
    StabilizerCode,
    Syndrome,
    chain_layout,
    class_labels,
    contract,
    crossing_point,
    exhaustive_contract,
    exhaustive_failure_rate,
    fit_threshold,
    leaf_probabilities,
    likelihoods_network,
    McPoint,
    predicted_op_count,
    run_mc,
    run_point,
    schedule_for,
    seven_qubit_state,
    spans_same_group,
    write_points,
)

MC_SEED = 20260818


def max_relative_error(layout, schedule, oracle, noise, syndromes):
    worst = 0.0
    for syn in syndromes:
        net = likelihoods_network(layout, schedule, noise, syn)
        want = oracle.likelihoods(noise, syn)
        for label in net.labels:
            a = net.absolute(label)
            b = want.absolute(label)
            worst = max(worst, abs(a - b) / b)
    return worst


def test_criterion_1_exact_decoder_matches_enumeration(holo):
    t0 = time.monotonic()

    # (a) the six-qubit code: every syndrome at three noise strengths
    layout, schedule = holo[1]
    oracle = ExhaustiveDecoder(layout.code)
    syndromes = [Syndrome(5, bits) for bits in range(32)]
    worst_a = max(
        max_relative_error(
            layout, schedule, oracle, NoiseModel.depolarizing(6, p), syndromes
        )
        for p in (0.01, 0.1, 0.3)
    )
    assert worst_a <= 1e-10

    # (b) the eleven-qubit two-tensor code: every syndrome at p = 0.1
    chain = chain_layout([(0, 5, 0)])
    schedule11 = schedule_for(chain)
    oracle11 = ExhaustiveDecoder(chain.code)
    noise11 = NoiseModel.depolarizing(11, 0.1)
    syndromes11 = [Syndrome(10, bits) for bits in range(1024)]
    worst_b = max_relative_error(
        chain, schedule11, oracle11, noise11, syndromes11
    )
    assert worst_b <= 1e-10

    # (c) a sixteen-qubit three-tensor chain: 200 random syndromes
    chain16 = chain_layout([(0, 5, 0), (1, 6, 0)])
    schedule16 = schedule_for(chain16)
    oracle16 = ExhaustiveDecoder(chain16.code)
    noise16 = NoiseModel.depolarizing(16, 0.1)
    rng = np.random.default_rng(2026)
    syndromes16 = [
        Syndrome(15, int(bits))
        for bits in rng.integers(0, 1 << 15, size=200)
    ]
    worst_c = max_relative_error(
        chain16, schedule16, oracle16, noise16, syndromes16
    )
    assert worst_c <= 1e-10

    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    print(
        f"criterion 1 PASS: worst relative errors "
        f"{worst_a:.2e} / {worst_b:.2e} / {worst_c:.2e} in {elapsed:.1f}s"
    )


def test_criterion_2_contraction_equals_literal_sum(six_tensor, block_tensor):
    t0 = time.monotonic()

    # six-qubit tensor against the seven-qubit block on its last leg,
    # the pairing that yields the eleven-qubit code
    got = contract(six_tensor, block_tensor, LegBinding((5,), (0,)))
    want = exhaustive_contract(six_tensor, block_tensor, LegBinding((5,), (0,)))
    assert got.class_tables == want.classes
    got.code.validate()
    assert spans_same_group(got.code.stabilizers, want.code.stabilizers)
    assert got.self_check().passed

    # two six-qubit tensors joined by one leg
    got2 = contract(six_tensor, six_tensor, LegBinding((5,), (0,)))
    want2 = exhaustive_contract(six_tensor, six_tensor, LegBinding((5,), (0,)))
    assert got2.class_tables == want2.classes
    got2.code.validate()
    assert got2.self_check().passed

    # every surviving entry is 0/1 by listing-set construction; the class
    # sizes confirm no double counting
    for tensor in (got, got2):
        m = tensor.code.n - tensor.code.k
        assert all(len(keys) == 1 << m for keys in tensor.class_tables.values())

    # distance certificate for the eleven-qubit code by exhaustive search
    assert got.code.distance(2) is None
    assert got.code.distance(3) == 3

    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    print(
        f"criterion 2 PASS: class tables equal, [[{got.code.n},"
        f"{got.code.k},3]] certified in {elapsed:.1f}s"
    )


def test_criterion_3_precondition_negative_control():
    # stabilizers living entirely on the bound legs: neither side can
    # tell those errors apart and the literal sum double counts
    a = CodeTensor.from_code(
        StabilizerCode.from_operators(["IZ"], logical_x=["XI"], logical_z=["ZI"])
    )
    b = CodeTensor.from_code(
        StabilizerCode.from_operators(["ZI"], logical_x=["IX"], logical_z=["IZ"])
    )
    binding = LegBinding((1,), (0,))
    assert not a.code.distinguishes_errors_on([1])
    assert not b.code.distinguishes_errors_on([0])
    with pytest.raises(DuplicateEntryError):
        exhaustive_contract(a, b, binding)
    with pytest.raises(ContractionPreconditionError):
        contract(a, b, binding)
    print("criterion 3 PASS: multiplicity 2 detected, contraction refused")


def test_criterion_4_layered_construction_validity(holo):
    state = seven_qubit_state()
    for r in (2, 3, 4):
        layout, schedule = holo[r]

        # every scheduled attachment binds legs the block state resolves
        for step in schedule.steps:
            if step.kind == "center":
                continue
            assert state.distinguishes_errors_on(list(step.in_legs))

        # independent generator count
        code = layout.code
        assert len(code.stabilizers) == code.n - code.k
        code.validate()  # includes the symplectic rank check

        # observed bond dimensions match 4^(R-r) layer by layer
        observed = {}
        noise = NoiseModel.depolarizing(layout.n, 0.1)
        likelihoods_network(
            layout, schedule, noise, leaves=noise.probs, bond_observer=observed
        )
        for step in schedule.steps:
            node = layout.nodes[step.name]
            # the seed's ring closes into a message with (1, 1) bonds
            expect = 1 if step.kind == "center" else 4 ** (r - 1 - node.layer)
            assert observed[step.name] == (expect, expect)
    print("criterion 4 PASS: preconditions, ranks, and bond growth check out")


def test_criterion_5_threshold_study(holo, tmp_path):
    t0 = time.monotonic()
    ps = [0.14, 0.16, 0.18, 0.20, 0.22, 0.24]
    points = {}
    for r in (2, 3, 4):
        layout, schedule = holo[r]
        points[r] = run_mc(layout, schedule, ps, 2000, seed=MC_SEED)
    write_points(str(tmp_path / "sweep.csv"), [pt for r in points for pt in points[r]])

    cross = crossing_point(points[3], points[4])
    assert 0.17 <= cross <= 0.21

    # the fitter must recover known scaling parameters from clean curves
    synthetic = []
    for r in (2, 3, 4):
        n = points[r][0].n
        for i in range(21):
            p = 0.14 + 0.005 * i
            x = (p - 0.188) * n ** (1.0 / 2.970)
            rate = 0.12 + 0.9 * x + 1.4 * x * x
            synthetic.append(McPoint(r, n, p, 2000, 0, rate, 0.01))
    fit = fit_threshold(synthetic)
    assert fit.p_th == pytest.approx(0.188, abs=2e-3)
    assert fit.nu == pytest.approx(2.970, abs=2e-2)

    elapsed = time.monotonic() - t0
    assert elapsed <= 3600.0
    print(
        f"criterion 5 PASS: radius-3/4 crossing at p={cross:.4f}, synthetic "
        f"fit ({fit.p_th:.4f}, {fit.nu:.3f}) in {elapsed:.0f}s"
    )


def test_criterion_6_decode_work_bound(holo, holo5_topology):
    measured = {}
    bounds = {}
    sizes = {}
    for r in (2, 3, 4, 5):
        layout, schedule = holo[r] if r in holo else holo5_topology
        noise = NoiseModel.depolarizing(layout.n, 0.1)
        counter = OpCounter()
        likelihoods_network(layout, schedule, noise, leaves=noise.probs,
                            counter=counter)
        measured[r] = counter.total
        bounds[r] = predicted_op_count(layout)
        sizes[r] = layout.n
        assert measured[r] <= bounds[r]

    xs = np.log([sizes[r] for r in (2, 3, 4, 5)])
    ys = np.log([measured[r] for r in (2, 3, 4, 5)])
    exponent = float(np.polyfit(xs, ys, 1)[0])
    assert exponent <= 3.0
    print(
        f"criterion 6 PASS: counts {[measured[r] for r in (2, 3, 4, 5)]} "
        f"under bounds, exponent {exponent:.2f}"
    )


def test_criterion_7_statistical_harness(holo, tmp_path):
    layout, schedule = holo[1]
    code = layout.code

    for p, seed in ((0.2, 710), (0.75, 711)):
        noise = NoiseModel.depolarizing(6, p)

        def chooser(syn):
            return likelihoods_network(
                layout, schedule, noise, syn
            ).argmax_class()

        exact = exhaustive_failure_rate(code, noise, chooser)
        point = run_point(layout, schedule, p, 2000, seed=seed)
        sigma = math.sqrt(exact * (1 - exact) / 2000)
        assert abs(point.failure_rate - exact) <= 4 * sigma

    # byte-identical CSV across repeated seeded single-thread runs
    blobs = []
    for name in ("one.csv", "two.csv"):
        pts = run_mc(layout, schedule, [0.2, 0.75], 400, seed=99)
        path = tmp_path / name
        write_points(str(path), pts)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    print("criterion 7 PASS: estimates within 4 sigma, CSV bytes stable")


def test_criterion_8_invariant_bundle(six_code, six_tensor, block_tensor, holo):
    rng = np.random.default_rng(88)

    # symplectic bilinearity
    for _ in range(300):
        a, b, c = (
            PauliString(
                12, int(rng.integers(0, 1 << 12)), int(rng.integers(0, 1 << 12))
            )
            for _ in range(3)
        )
        assert (a * b).commutes(c) == (a.commutes(c) == b.commutes(c))

    # coset partition counts
    eleven = contract(six_tensor, block_tensor, LegBinding((5,), (0,)))
    for tensor in (six_tensor, block_tensor, eleven):
        m = tensor.code.n - tensor.code.k
        tables = tensor.class_tables
        assert len(tables) == 4 ** tensor.code.k
        union = set()
        for keys in tables.values():
            assert len(keys) == 1 << m
            assert not (union & keys)
            union |= keys

    # pure errors are a right inverse of the syndrome map
    for code in (six_code, eleven.code):
        m = code.n - code.k
        for bits in range(1 << m):
            syn = Syndrome(m, bits)
            assert code.syndrome(pure_error(code, syn)) == syn

    # canonical form preserves the generated group
    state = seven_qubit_state()
    canon6 = six_code.canonicalized_on([5])
    canon7 = state.canonicalized_on([5, 6])
    assert spans_same_group(canon6.stabilizers, six_code.stabilizers)
    assert spans_same_group(canon7.stabilizers, state.stabilizers)

    # class likelihoods are a probability distribution over all outcomes
    layout, schedule = holo[1]
    noise = NoiseModel.depolarizing(6, 0.19)
    mass = 0.0
    for bits in range(32):
        table = likelihoods_network(layout, schedule, noise, Syndrome(5, bits))
        mass += sum(table.absolute(label) for label in table.labels)
    assert mass == pytest.approx(1.0, abs=1e-10)

    # the decision is scale free
    noise = NoiseModel.depolarizing(6, 0.13)
    for bits in (0, 6, 11, 30):
        syn = Syndrome(5, bits)
        pure = pure_error(layout.code, syn)
        base_leaves = leaf_probabilities(noise, pure)
        base = likelihoods_network(layout, schedule, noise, syn)
        for factor in (1e-3, 137.5, 1e3):
            scaled = likelihoods_network(
                layout, schedule, noise, leaves=base_leaves * factor
            )
            assert scaled.argmax_class() == base.argmax_class()

    assert [label.to_text() for label in class_labels(1)] == ["I", "X", "Z", "Y"]
    print("criterion 8 PASS: algebraic invariant bundle holds")
