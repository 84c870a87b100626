"""Code tensors and the constructive contraction against brute force."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from conftest import spans_same_group
from tenqec import (
    CodeTensor,
    ContractionPreconditionError,
    DuplicateEntryError,
    LegBinding,
    PauliString,
    StabilizerCode,
    class_labels,
    code_to_json_dict,
    contract,
    exhaustive_contract,
    seven_qubit_state,
    six_qubit_code,
)


def test_class_label_order():
    assert [p.to_text() for p in class_labels(1)] == ["I", "X", "Z", "Y"]
    two = [p.to_text() for p in class_labels(2)]
    assert len(two) == 16
    # qubit 0 cycles fastest
    assert two[:5] == ["II", "XI", "ZI", "YI", "IX"]


def test_six_tensor_partition(six_tensor):
    tables = six_tensor.class_tables
    assert len(tables) == 4
    sizes = {len(v) for v in tables.values()}
    assert sizes == {32}
    union = set()
    for keys in tables.values():
        assert not (union & keys)
        union |= keys
    assert len(union) == 128
    x_label = PauliString.from_text("X")
    assert PauliString.from_text("XZXZII").key() in tables[x_label]
    i_label = PauliString.from_text("I")
    assert PauliString.from_text("ZIZIII").key() in tables[i_label]


def test_block_tensor_single_class(block_tensor):
    tables = block_tensor.class_tables
    assert len(tables) == 1
    (keys,) = tables.values()
    assert len(keys) == 128
    assert PauliString.from_text("ZXYYXII").key() in keys


def test_entry_lookup(six_tensor):
    i_label = PauliString.from_text("I")
    assert six_tensor.entry(i_label, [3, 0, 3, 0, 0, 0]) == 1  # ZIZIII
    assert six_tensor.entry(i_label, [1, 0, 0, 0, 0, 0]) == 0
    with pytest.raises(ValueError):
        six_tensor.entry(i_label, [0, 0])


@pytest.mark.parametrize("key", [4**6 + 5, 4**6, -3])
def test_entry_rejects_an_int_key_out_of_range(six_tensor, key):
    # like an index string of the wrong length, not a silent 0
    i_label = PauliString.from_text("I")
    assert six_tensor.entry(i_label, 0) == 1  # the identity, the lowest key
    with pytest.raises(ValueError, match="outside"):
        six_tensor.entry(i_label, key)


@pytest.mark.parametrize("cast", [int, np.int64, np.int32, np.uint16])
def test_entry_takes_numpy_integer_keys(six_tensor, cast):
    # a key read from an array is a numpy integer, not an index string
    i_label = PauliString.from_text("I")
    zizi = PauliString.from_codes([3, 0, 3, 0, 0, 0]).key()
    assert six_tensor.entry(i_label, cast(zizi)) == 1
    assert six_tensor.entry(i_label, cast(1)) == 0  # XIIIII
    with pytest.raises(ValueError, match="outside"):
        six_tensor.entry(i_label, cast(4**6))


@pytest.mark.parametrize("key", [True, False, np.True_])
def test_entry_rejects_a_bool_key(six_tensor, key):
    # True is no key 1, and np.True_ no index string
    with pytest.raises(ValueError, match="bool"):
        six_tensor.entry(PauliString.from_text("I"), key)


def test_digit_tables_shapes(six_tensor):
    tables = six_tensor.digit_tables()
    for label, table in tables.items():
        assert table.shape == (32, 6)
        assert table.dtype == np.uint8
        # rows sorted by key, so the listing is reproducible
        keys = [int(sum(int(c) << (2 * i) for i, c in enumerate(row)))
                for row in table]
        assert keys == sorted(keys)


def test_self_check_passes(six_tensor, block_tensor):
    assert six_tensor.self_check().passed
    assert block_tensor.self_check().passed
    two_centers = contract(six_tensor, six_tensor, LegBinding((5,), (0,)))
    assert two_centers.self_check().passed


def test_self_check_catches_corruption(six_code, six_tensor):
    tables = six_tensor.class_tables
    i_label = PauliString.from_text("I")
    x_label = PauliString.from_text("X")
    to_i, to_x = min(tables[x_label]), min(tables[i_label])
    # one member moved from X to I, then one member swapped between them,
    # which keeps every class size and the disjointness intact
    for moved_back in (set(), {to_x}):
        bad = dict(tables)
        bad[x_label] = frozenset(tables[x_label] - {to_i} | moved_back)
        bad[i_label] = frozenset(tables[i_label] - moved_back | {to_i})
        report = CodeTensor(six_code, bad).self_check()
        assert not report.passed
        assert report.violations


def test_self_check_catches_shifted_member(six_code, six_tensor):
    """Every member moved off its coset by a single-qubit Pauli is reported."""
    for label, keys in six_tensor.class_tables.items():
        for member in keys:
            for qubit, code in itertools.product(range(6), (1, 2, 3)):
                tables = dict(six_tensor.class_tables)
                moved = member ^ (code << (2 * qubit))
                tables[label] = keys - {member} | {moved}
                report = CodeTensor(six_code, tables).self_check()
                assert not report.passed, (label, member, qubit, code)


@pytest.mark.parametrize("second", ["six_tensor", "block_tensor"])
def test_self_check_classifies_only_coset_representatives(
    monkeypatch, request, six_tensor, second
):
    """(n - k) + 4^k logical_class calls: one per generator and per class.

    Run on the 10-qubit k = 2 and the 11-qubit k = 1 contraction.
    """
    other = request.getfixturevalue(second)
    tensor = CodeTensor.from_code(
        contract(six_tensor, other, LegBinding((5,), (0,))).code
    )
    calls = []
    classify = StabilizerCode.logical_class

    def counted(code, op):
        calls.append(op)
        return classify(code, op)

    monkeypatch.setattr(StabilizerCode, "logical_class", counted)
    assert tensor.self_check().passed
    n, k = tensor.code.n, tensor.code.k
    assert 0 < len(calls) <= (n - k) + 4**k


def check_against_oracle(a, b, binding):
    """Constructive contraction must equal the literal one exactly."""
    got = contract(a, b, binding)
    want = exhaustive_contract(a, b, binding)
    assert got.class_tables == want.classes
    assert spans_same_group(got.code.stabilizers, want.code.stabilizers)
    got.code.validate()
    assert got.self_check().passed
    return got


def test_contract_center_with_block(six_tensor, block_tensor):
    got = check_against_oracle(six_tensor, block_tensor, LegBinding((5,), (0,)))
    assert (got.code.n, got.code.k) == (11, 1)


def test_contract_two_centers(six_tensor):
    got = check_against_oracle(six_tensor, six_tensor, LegBinding((5,), (0,)))
    assert (got.code.n, got.code.k) == (10, 2)


def test_contract_two_blocks_two_legs(block_tensor):
    got = check_against_oracle(
        block_tensor, block_tensor, LegBinding((5, 6), (0, 1))
    )
    assert (got.code.n, got.code.k) == (10, 0)


def test_contract_block_onto_center_in_leg(six_tensor, block_tensor):
    # the attachment used by the layered builder: block leg 6 onto a
    # center leg
    got = check_against_oracle(block_tensor, six_tensor, LegBinding((6,), (2,)))
    assert (got.code.n, got.code.k) == (11, 1)


def test_contract_when_only_second_code_distinguishes(six_tensor):
    # the first operand cannot tell IX from IY apart; the second can, so
    # the contraction is still valid and must match brute force
    weak = CodeTensor.from_code(
        StabilizerCode.from_operators(["ZZ"], logical_x=["XX"], logical_z=["ZI"])
    )
    assert not weak.code.distinguishes_errors_on([1])
    got = check_against_oracle(weak, six_tensor, LegBinding((1,), (5,)))
    assert (got.code.n, got.code.k) == (6, 2)


def test_contract_weak_first_operand_two_legs(block_tensor):
    weak = CodeTensor.from_code(
        StabilizerCode.from_operators(["ZZ"], logical_x=["XX"], logical_z=["ZI"])
    )
    assert not weak.code.distinguishes_errors_on([0, 1])
    got = check_against_oracle(weak, block_tensor, LegBinding((0, 1), (5, 6)))
    assert (got.code.n, got.code.k) == (5, 1)


def test_contracted_code_distance(six_tensor, block_tensor):
    code = contract(six_tensor, block_tensor, LegBinding((5,), (0,))).code
    assert code.distance(2) is None
    assert code.distance(3) == 3


def test_neither_side_distinguishes_raises():
    a = CodeTensor.from_code(
        StabilizerCode.from_operators(["IZ"], logical_x=["XI"], logical_z=["ZI"])
    )
    b = CodeTensor.from_code(
        StabilizerCode.from_operators(["ZI"], logical_x=["IX"], logical_z=["IZ"])
    )
    with pytest.raises(ContractionPreconditionError):
        contract(a, b, LegBinding((1,), (0,)))
    with pytest.raises(DuplicateEntryError):
        exhaustive_contract(a, b, LegBinding((1,), (0,)))


def test_leg_order_bookkeeping(six_tensor, block_tensor):
    # permuting the first operand's legs, binding the moved leg, then
    # undoing the permutation on the output recovers the plain result
    plain = contract(six_tensor, block_tensor, LegBinding((5,), (0,)))

    order = [5, 0, 1, 2, 3, 4]  # new leg 0 is old leg 5
    permuted = CodeTensor.from_code(six_tensor.code.permuted(order))
    moved = contract(permuted, block_tensor, LegBinding((0,), (0,)))

    # plain output qubits: old legs 0..4 then block legs 1..6
    # moved output qubits: new legs 1..5 (= old 0..4) then block legs 1..6
    assert moved.class_tables == plain.class_tables
    assert spans_same_group(moved.code.stabilizers, plain.code.stabilizers)


def test_binding_validation():
    with pytest.raises(ValueError):
        LegBinding((0, 0), (1, 2))
    with pytest.raises(ValueError):
        LegBinding((0,), (1, 2))
    with pytest.raises(ValueError):
        LegBinding((), ())


def test_binding_out_of_range(six_tensor, block_tensor):
    with pytest.raises(ValueError):
        contract(six_tensor, block_tensor, LegBinding((6,), (0,)))


def test_contract_preserves_pure_error_pattern(six_tensor, block_tensor):
    code = contract(six_tensor, block_tensor, LegBinding((5,), (0,))).code
    for i, err in enumerate(code.pure_errors):
        for j, stab in enumerate(code.stabilizers):
            assert err.commutes(stab) == (i != j)
    for stab in code.stabilizers:
        for logical in code.logical_x + code.logical_z:
            assert stab.commutes(logical)


# sha256 of json.dumps(code_to_json_dict(contract(a, b, binding).code)),
# measured on the two-branch contract; the last five have only b canonical
# ("weak", a [[2, 1]] code, cannot distinguish the errors on its bound legs).
CONTRACT_DIGESTS = [
    ("six", "block", (5,), (0,),
     "2b8e4c25132e7f2559e7213fa95a58cb4e5f11f48eddcf81c684ab6c95ab443f"),
    ("six", "six", (5,), (0,),
     "728cc426e84fa61b7d76b6fea7f9bf3d84d94cc826faa6b5fe9bcc4cc258d2d1"),
    ("block", "block", (5, 6), (0, 1),
     "21aba4ea7da6754ab92c686bfece768b671515aab721356c22dc4143041484e0"),
    ("block", "six", (6,), (2,),
     "060969de854626d8494fb8e918827f4fc3d79bae7536b7093e7825aedf29f3f7"),
    ("six", "block", (1, 3), (4, 2),
     "6b8fba85aa8d8e2a3b5a3f6048a35433bd7da5075de783bfacfe73b5040bbdd7"),
    ("six", "block", (3, 1), (6, 0),
     "7db5de0c1253fdae9d7ce8f7f90e17af8d710fb0519af9ef2605b2e605429bb6"),
    ("weak", "six", (1,), (5,),
     "ef75b78fbe7b60e6740925e5eed55370716a993fc5495e95b8a2f8d69000f638"),
    ("weak", "block", (1,), (5,),
     "0d14a0efbcc8eb4e84ac4be281bc466290b392c8ae053a792fdf4e8b57dfe9e3"),
    ("weak", "block", (0, 1), (5, 6),
     "580f2ed2eb730e484563ad8c19778667ea123e618169ba26a134608502bc96c6"),
    ("weak", "block", (1, 0), (6, 2),
     "9f72626f5108e0f005adb74d55eec365cd591f14cab3074974147fa93584ceff"),
    ("weak", "six", (0, 1), (3, 0),
     "9bce045874c89afcb8fb5c97314c2e00635f4f4c6a53dfe687e238c5a336f1ea"),
]


@pytest.mark.parametrize("a, b, left, right, want", CONTRACT_DIGESTS)
def test_contract_pinned_digests(request, a, b, left, right, want):
    """Both canonical sides give the same generators, in the same order."""
    weak = CodeTensor(
        StabilizerCode.from_operators(["ZZ"], logical_x=["XX"], logical_z=["ZI"])
    )
    tensors = {"weak": weak, "six": request.getfixturevalue("six_tensor"),
               "block": request.getfixturevalue("block_tensor")}
    ta, tb = tensors[a], tensors[b]
    assert ta.code.distinguishes_errors_on(left) == (a != "weak")
    code = contract(ta, tb, LegBinding(left, right)).code
    text = json.dumps(code_to_json_dict(code)).encode()
    assert hashlib.sha256(text).hexdigest() == want


def _group_weights(code):
    """The stabilizer group's weight enumerator, and the supports of its
    weight-2 elements, by listing all 2^(n - k) products of generators."""
    counts = [0] * (code.n + 1)
    pairs = []
    for picks in itertools.product((False, True), repeat=len(code.stabilizers)):
        op = PauliString.identity(code.n)
        for gen in itertools.compress(code.stabilizers, picks):
            op = op * gen
        counts[op.weight()] += 1
        if op.weight() == 2:
            pairs.append([q for q in range(code.n) if op.code_at(q)])
    return counts, pairs


def test_neither_tensor_is_perfect(six_code):
    """The paper's example tensors are not perfect tensors.

    A stabilizer state on N legs is perfect (Pastawski, Yoshida, Harlow &
    Preskill, arXiv:1503.06237) when every set of at most N / 2 legs is
    maximally mixed, that is, when no non-identity element of its
    stabilizer group acts on N // 2 legs or fewer.  The block is such a
    state on 7 legs; the seed's tensor is its code's state with the
    reference leg, whose group holds the code's stabilizer group, on 7
    legs, and 6 without it.  Each group has a weight-2 element.
    Block-perfectness is not checked here: that needs its own definition.
    """
    block_counts, block_pairs = _group_weights(seven_qubit_state())
    assert block_counts == [1, 0, 1, 0, 35, 40, 27, 24]
    assert block_pairs == [[1, 3]]
    seed_counts, seed_pairs = _group_weights(six_code)
    assert seed_counts == [1, 0, 1, 0, 11, 16, 3]
    assert seed_pairs == [[0, 2]]
    lightest = lambda counts: next(w for w in range(1, len(counts)) if counts[w])
    assert lightest(block_counts) <= 7 // 2
    assert lightest(seed_counts) <= 6 // 2
