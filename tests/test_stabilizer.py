"""Stabilizer code construction, syndromes, pure errors, canonical forms."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import pure_error, spans_same_group
from tenqec import (
    CodeTensor,
    DependentGeneratorsError,
    LegBinding,
    NoiseModel,
    PauliString,
    StabilizerCode,
    Syndrome,
    code_from_json_dict,
    code_to_json_dict,
    seven_qubit_state,
    six_qubit_code,
    contract,
    leaf_probabilities,
    solve_pure_errors,
)
from tenqec.pauli import pack, unpack
from tenqec.stabilizer import gf2_rank


def test_six_qubit_generator_table(six_code):
    assert (six_code.n, six_code.k) == (6, 1)
    assert [s.to_text() for s in six_code.stabilizers] == [
        "ZIZIII",
        "XZYYXI",
        "XXXXZI",
        "IZZXIX",
        "XYXYIZ",
    ]
    assert [p.to_text() for p in six_code.logical_x] == ["XZXZII"]
    assert [p.to_text() for p in six_code.logical_z] == ["XYYXII"]
    six_code.validate()


def test_six_qubit_distance_three(six_code):
    assert six_code.distance(2) is None
    assert six_code.distance(3) == 3


def test_seven_qubit_state_is_stabilizer_state():
    state = seven_qubit_state()
    assert (state.n, state.k) == (7, 0)
    state.validate()
    # spot-check a known group member: the product of generators that
    # yields ZXYYXII must have trivial syndrome
    member = PauliString.from_text("ZXYYXII")
    assert state.syndrome(member).bits == 0


def test_single_z_syndrome_pattern(six_code):
    # Z on qubit 0 anticommutes with the generators carrying X or Y there
    syn = six_code.syndrome(PauliString.single(6, 0, "Z"))
    assert syn.to_text() == "+--+-"


def test_syndrome_unchanged_by_stabilizer_multiplication(six_code):
    rng = np.random.default_rng(3)
    for _ in range(50):
        err = PauliString(
            6, int(rng.integers(0, 64)), int(rng.integers(0, 64))
        )
        base = six_code.syndrome(err)
        for stab in six_code.stabilizers:
            assert six_code.syndrome(err * stab) == base


def test_pure_errors_right_inverse(six_code):
    for bits in range(32):
        syn = Syndrome(5, bits)
        err = pure_error(six_code, syn)
        assert six_code.syndrome(err) == syn


def test_pure_error_anticommutation_pattern(six_code):
    for i, err in enumerate(six_code.pure_errors):
        for j, stab in enumerate(six_code.stabilizers):
            assert err.commutes(stab) == (i != j)


def test_logical_class_labels(six_code):
    ident = PauliString.identity(6)
    assert six_code.logical_class(six_code.stabilizers[0]) == PauliString.from_text("I")
    assert six_code.logical_class(six_code.logical_x[0]) == PauliString.from_text("X")
    assert six_code.logical_class(six_code.logical_z[0]) == PauliString.from_text("Z")
    y_rep = six_code.logical_x[0] * six_code.logical_z[0]
    assert six_code.logical_class(y_rep) == PauliString.from_text("Y")
    # anything with a nontrivial syndrome sits outside the normalizer
    assert six_code.logical_class(PauliString.single(6, 0, "Z")) is None
    assert six_code.logical_class(ident) == PauliString.from_text("I")


def test_class_representative_round_trip(six_code):
    for label in (PauliString.from_text(c) for c in "IXZY"):
        rep = six_code.class_representative(label)
        assert six_code.syndrome(rep).bits == 0
        assert six_code.logical_class(rep) == label


def test_canonicalized_on_leg_shapes(six_code):
    canon = six_code.canonicalized_on([5])
    # generator 0 restricts to X on the leg, generator 1 to Z, the rest
    # act trivially there
    restrictions = [s.restrict([5]).to_text() for s in canon.stabilizers]
    assert restrictions == ["X", "Z", "I", "I", "I"]
    assert spans_same_group(canon.stabilizers, six_code.stabilizers)
    assert canon.logical_x == six_code.logical_x
    assert canon.logical_z == six_code.logical_z


def test_canonicalized_on_two_legs():
    state = seven_qubit_state()
    canon = state.canonicalized_on([5, 6])
    restrictions = [s.restrict([5, 6]).to_text() for s in canon.stabilizers]
    assert restrictions == ["XI", "ZI", "IX", "IZ", "II", "II", "II"]
    assert spans_same_group(canon.stabilizers, state.stabilizers)
    canon.validate()


def test_canonicalized_on_requires_distinguishability():
    code = StabilizerCode.from_operators(
        ["ZZ"], logical_x=["XX"], logical_z=["ZI"]
    )
    assert not code.distinguishes_errors_on([1])
    with pytest.raises(ValueError):
        code.canonicalized_on([1])


def test_distinguishes_errors_on(six_code):
    state = seven_qubit_state()
    assert six_code.distinguishes_errors_on([5])
    assert state.distinguishes_errors_on([6])
    assert state.distinguishes_errors_on([5, 6])
    # 255 sub-Paulis on four legs cannot fit into 127 nontrivial syndromes
    assert not state.distinguishes_errors_on([0, 1, 2, 3])
    # 63 sub-Paulis on three legs cannot fit into 31 nontrivial syndromes
    assert not six_code.distinguishes_errors_on([0, 1, 2])


def enumerated_distinguishes(code, legs):
    """Reference: each of the 4^len(legs) - 1 nontrivial Paulis on ``legs``
    has a nontrivial syndrome."""
    for codes in itertools.product(range(4), repeat=len(legs)):
        if any(codes):
            op = PauliString.identity(code.n)
            for q, c in zip(legs, codes):
                op = op * PauliString.single(code.n, q, c)
            if not any(op.anticommutes(s) for s in code.stabilizers):
                return False
    return True


def test_distinguishes_errors_on_matches_enumeration(six_code, six_tensor, block_tensor):
    eleven = contract(six_tensor, block_tensor, LegBinding((5,), (0,))).code
    # every ordered tuple of distinct legs up to the given length
    for code, longest in ((six_code, 4), (block_tensor.code, 4), (eleven, 3)):
        for length in range(longest + 1):
            for legs in itertools.permutations(range(code.n), length):
                want = enumerated_distinguishes(code, legs)
                assert code.distinguishes_errors_on(legs) == want, legs
    with pytest.raises(ValueError):
        six_code.distinguishes_errors_on([1, 1])


def test_dependent_generators_rejected(six_code):
    gens = list(six_code.stabilizers)
    gens[4] = gens[0] * gens[1]  # right count, rank only 4
    with pytest.raises(DependentGeneratorsError):
        StabilizerCode.from_operators(
            gens,
            logical_x=six_code.logical_x,
            logical_z=six_code.logical_z,
        )
    # given pure errors skip the solve, so validate finds the rank short
    with pytest.raises(DependentGeneratorsError, match="generators are dependent"):
        StabilizerCode.from_operators(
            gens, six_code.logical_x, six_code.logical_z,
            pure_errors=six_code.pure_errors,
        )


def test_anticommuting_generators_rejected():
    with pytest.raises(ValueError):
        StabilizerCode.from_operators(["XI", "ZI"])


def _load_by_json(stabilizers, logical_x, logical_z, n):
    data = {"n": n, "stabilizers": stabilizers,
            "logical_x": logical_x, "logical_z": logical_z}
    return code_from_json_dict(data)


def _load_by_operators(stabilizers, logical_x, logical_z, n):
    return StabilizerCode.from_operators(
        stabilizers, logical_x=logical_x, logical_z=logical_z, n=n
    )


@pytest.mark.parametrize("load", [_load_by_operators, _load_by_json], ids=["operators", "json"])
@pytest.mark.parametrize(
    "logical_x, logical_z",
    [
        (["XI", "ZX"], ["ZI", "IZ"]),  # X_0 and X_1 anticommute
        (["XI", "IX"], ["ZX", "IZ"]),  # Z_0 and Z_1 anticommute
    ],
    ids=["x_pair", "z_pair"],
)
def test_anticommuting_logical_pair_rejected(load, logical_x, logical_z):
    # every X_a / Z_b relation holds; only the same-type pair is broken
    with pytest.raises(ValueError, match="must commute"):
        load([], logical_x, logical_z, 2)
    load([], ["XI", "IX"], ["ZI", "IZ"], 2)  # the valid basis loads


def test_permuted_round_trip(six_code):
    order = [3, 1, 4, 0, 5, 2]
    inverse = [order.index(q) for q in range(6)]
    back = six_code.permuted(order).permuted(inverse)
    assert back.stabilizers == six_code.stabilizers
    assert back.logical_x == six_code.logical_x
    assert back.pure_errors == six_code.pure_errors
    for bad in ([0, 0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [1, 2, 3, 4, 5, 6]):
        with pytest.raises(ValueError, match="permutation of range"):
            six_code.permuted(bad)


def test_class_bits_hold_at_most_32_logical_qubits():
    # class bits are one uint64 per operator: k = 33 needs 66 bits
    n = 33
    zeros = np.zeros((2 * n, 1), dtype=np.uint64)
    code = StabilizerCode(n, n, zeros, zeros.copy())
    with pytest.raises(ValueError, match="k = 33 logical qubits exceed 64 bits"):
        code.class_bits(zeros[:1], zeros[:1])


def test_permuted_moves_operators(six_code):
    perm = six_code.permuted([5, 0, 1, 2, 3, 4])
    perm.validate()
    texts = {s.to_text() for s in perm.stabilizers}
    # ZIZIII with qubit 5 pulled to the front becomes IZIZII
    assert "IZIZII" in texts


@st.composite
def codes_and_orders(draw):
    """An unvalidated "code" of random operators and a permutation of its qubits.

    ``permuted`` only moves operators, so they need not form a code.
    """
    n = draw(st.integers(min_value=1, max_value=140))
    k = draw(st.integers(min_value=0, max_value=min(3, n)))
    # a tableau holds 2n operators, too many bits for hypothesis to draw
    # one by one, so they come from a drawn seed
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = lambda: int.from_bytes(rng.bytes(-(-n // 8)), "little") & ((1 << n) - 1)
    groups = [[PauliString(n, bits(), bits()) for _ in range(size)]
              for size in (n - k, k, k, n - k)]
    order = draw(st.permutations(range(n)))
    return StabilizerCode.of(n, k, *groups), order


@given(codes_and_orders())
@settings(max_examples=60)
def test_permuted_equals_restrict(case):
    code, order = case
    moved = code.permuted(order)
    for got, want in (
        (moved.stabilizers, code.stabilizers),
        (moved.logical_x, code.logical_x),
        (moved.logical_z, code.logical_z),
        (moved.pure_errors, code.pure_errors),
    ):
        assert got == tuple(op.restrict(order) for op in want)


def _looped_queries(code, ops, picks):
    """Syndrome bits, class bits and pure errors by loops over anticommutes."""
    syn = [[int(op.anticommutes(s)) for s in code.stabilizers] for op in ops]
    cls = [sum(op.anticommutes(z) << a | op.anticommutes(x) << code.k + a
               for a, (x, z) in enumerate(zip(code.logical_x, code.logical_z)))
           for op in ops]
    pure = []
    for row in picks:
        err = PauliString.identity(code.n)
        for e, pick in zip(code.pure_errors, row):
            err = err * e if pick else err
        pure.append(err)
    return syn, cls, pure


def _check_queries_against_loops(code, rng, legs):
    ops = [PauliString(code.n, *(int.from_bytes(rng.bytes(-(-code.n // 8)), "little")
                                 & ((1 << code.n) - 1) for _ in "xz"))
           for _ in range(5)] + list(code.logical_x) + list(code.stabilizers[:2])
    picks = rng.integers(0, 2, (4, code.n - code.k), dtype=np.uint8)
    syn, cls, pure = _looped_queries(code, ops, picks)
    ex, ez = pack(ops, code.n)
    assert code.syndromes(ex, ez).tolist() == syn
    assert code.class_bits(ex, ez).tolist() == cls
    assert unpack(*code.pure_error_rows(picks), code.n) == pure
    # a (2, 2, ...) batch answers as its rows do
    assert np.array_equal(code.syndromes(ex[:4].reshape(2, 2, -1), ez[:4].reshape(2, 2, -1)),
                          np.array(syn[:4]).reshape(2, 2, -1))
    singles = [PauliString.single(code.n, q, c) for q in legs for c in (1, 3)]
    rows = [sum(op.anticommutes(s) << i for i, s in enumerate(code.stabilizers))
            for op in singles]
    assert code.distinguishes_errors_on(legs) == (gf2_rank(rows) == len(singles))


@given(codes_and_orders(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_packed_queries_match_anticommutes_loops(case, seed):
    # the operators need not form a code: each query is a parity or an XOR
    # of the rows, whatever they hold
    code, order = case
    rng = np.random.default_rng(seed)
    _check_queries_against_loops(code, rng, order[: int(rng.integers(0, 4))])


@pytest.mark.parametrize("radius", [2, 3])
def test_packed_queries_match_anticommutes_loops_on_holographic_codes(holo, radius):
    code = holo[radius][0].code
    rng = np.random.default_rng(radius)
    for size in (1, 2, 5, 18):
        legs = rng.choice(code.n, size, replace=False).tolist()
        _check_queries_against_loops(code, rng, legs)


@pytest.mark.parametrize("length", [5, 7])
def test_operators_of_another_length_are_rejected(six_code, length):
    # pack would pad a 5-qubit operator into the 6-qubit rows' one word
    op = PauliString.single(length, 0, "X")
    with pytest.raises(ValueError, match="wrong length for n=6"):
        six_code.syndrome(op)
    with pytest.raises(ValueError, match="wrong length for n=6"):
        six_code.logical_class(op)
    with pytest.raises(ValueError, match="wrong length for n=6"):
        leaf_probabilities(NoiseModel.depolarizing(6, 0.1), op)
    with pytest.raises(ValueError, match=re.escape("bits (1, 4) is not n - k = 5")):
        six_code.pure_error_rows(np.zeros((1, 4), dtype=np.uint8))
    with pytest.raises(ValueError, match=re.escape("distinct qubits of range(6)")):
        six_code.distinguishes_errors_on([6])


def test_json_round_trip(six_code):
    data = code_to_json_dict(six_code)
    assert data["n"] == 6 and data["k"] == 1
    back = code_from_json_dict(data)
    assert back.stabilizers == six_code.stabilizers
    assert back.logical_x == six_code.logical_x
    assert back.logical_z == six_code.logical_z
    # pure errors are optional and re-solved when missing
    del data["pure_errors"]
    resolved = code_from_json_dict(data)
    for i, err in enumerate(resolved.pure_errors):
        for j, stab in enumerate(resolved.stabilizers):
            assert err.commutes(stab) == (i != j)


@pytest.mark.parametrize("field, value, message", [
    ("stabilizers", "ZZ", "'stabilizers' must be an array of strings"),
    ("logical_x", [3], "'logical_x' must be an array of strings"),
    ("pure_errors", "XIIIII", "'pure_errors' must be an array of strings"),
    ("n", "x", "'n' must be an integer"),
    ("n", 6.0, "'n' must be an integer"),
    ("k", "a", "'k' must be an integer"),
    ("k", True, "'k' must be an integer"),
    ("k", 0, "declared k does not match the operator lists"),
])
def test_json_field_types_are_checked(six_code, field, value, message):
    # a string would otherwise be split into one-letter operators and a
    # bad integer reported by int() with no field name
    data = code_to_json_dict(six_code)
    data[field] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        code_from_json_dict(data)


@pytest.mark.parametrize("data", [["n"], "six_qubit", 5, None])
def test_json_top_level_must_be_an_object(data):
    # JSON that parses to anything but an object is not a code description
    with pytest.raises(ValueError, match="code description must be a JSON object"):
        code_from_json_dict(data)


def test_json_missing_field_is_named(six_code):
    data = code_to_json_dict(six_code)
    del data["stabilizers"]
    with pytest.raises(ValueError, match="missing field 'stabilizers'"):
        code_from_json_dict(data)


def test_solve_pure_errors_small_code():
    stabs = (PauliString.from_text("ZZI"), PauliString.from_text("IZZ"))
    errors = solve_pure_errors(stabs)
    assert len(errors) == 2
    for i, err in enumerate(errors):
        assert err.n == 3
        for j, stab in enumerate(stabs):
            assert err.commutes(stab) == (i != j)


def test_solve_pure_errors_rejects_mixed_lengths():
    stabs = [PauliString.from_text("ZZI"), PauliString.from_text("IZZI")]
    with pytest.raises(ValueError, match="mixed lengths"):
        solve_pure_errors(stabs)
    with pytest.raises(ValueError, match="mixed lengths"):
        solve_pure_errors(stabs[:1], logical_x=[PauliString.from_text("XXXX")])
    with pytest.raises(TypeError):
        solve_pure_errors(stabs[:1], n=5)


def test_gf2_rank():
    assert gf2_rank([0b101, 0b011, 0b110]) == 2
    assert gf2_rank([0b101, 0b011, 0b111]) == 3
    assert gf2_rank([]) == 0


def test_spans_same_group(six_code):
    gens = list(six_code.stabilizers)
    products = [gens[0] * gens[1], gens[1], gens[2] * gens[0], gens[3], gens[4]]
    assert spans_same_group(gens, products)
    assert not spans_same_group(gens, gens[:4])


def test_syndrome_text_round_trip():
    syn = Syndrome.from_text("+-+-")
    assert syn.to_text() == "+-+-"
    assert Syndrome.from_signs((1, -1, 1, -1)) == syn
    assert syn.bits == 0b1010


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 3995])
def test_syndrome_bit_array_matches_signs(length):
    rng = np.random.default_rng(length)
    drawn = int("".join(map(str, rng.integers(0, 2, size=length))) or "0", 2)
    for bits in (0, (1 << length) - 1, drawn):
        syn = Syndrome(length, bits)
        got = syn.bit_array()
        assert got.dtype == np.uint8 and got.shape == (length,)
        assert got.tolist() == [int(sign == "-") for sign in syn.to_text()]


def test_enumeration_is_complete(six_code):
    # every weight-one error lands in some coset: decode table sanity
    seen = set()
    for q, c in itertools.product(range(6), (1, 2, 3)):
        err = PauliString.single(6, q, c)
        seen.add(six_code.syndrome(err).bits)
    assert len(seen) > 1


def _words_of(code):
    return code.x.copy(), code.z.copy()


@pytest.mark.parametrize("field, change, message", [
    ("x", lambda x, z, n: (x.astype(np.int64), z), "x must be a uint64 array"),
    ("z", lambda x, z, n: (x, z.astype(np.uint32)), "z must be a uint64 array"),
    ("x", lambda x, z, n: (x[:-1], z), r"x must have 2n = 12 rows"),
    ("z", lambda x, z, n: (x, np.vstack([z, z[:1]])), r"z must have 2n = 12 rows"),
    ("x", lambda x, z, n: (np.hstack([x, x]), z), "x must have 1 words per row"),
    ("z", lambda x, z, n: (x, z[:, :0]), "z must have 1 words per row"),
    ("x", lambda x, z, n: (x | np.uint64(1 << n), z), "x has bits set past qubit n - 1"),
    ("z", lambda x, z, n: (x, z | np.uint64(1 << 63)), "z has bits set past qubit n - 1"),
])
def test_packed_constructor_names_the_bad_field(six_code, field, change, message):
    x, z = change(*_words_of(six_code), six_code.n)
    with pytest.raises(ValueError, match=message):
        StabilizerCode(6, 1, x, z)


def test_packed_constructor_rejects_k_above_n(six_code):
    with pytest.raises(ValueError, match="k must lie in"):
        StabilizerCode(6, 7, *_words_of(six_code))


def test_packed_constructor_checks_bits_past_a_full_word():
    # n = 70: the second word holds qubits 64..69 and nothing above
    x = np.zeros((140, 2), dtype=np.uint64)
    StabilizerCode(70, 0, x.copy(), x.copy())
    x[3, 1] = np.uint64(1 << 5)
    StabilizerCode(70, 0, x.copy(), x.copy())  # qubit 69 is the last
    x[3, 1] = np.uint64(1 << 6)
    with pytest.raises(ValueError, match="x has bits set past qubit n - 1 = 69"):
        StabilizerCode(70, 0, x, np.zeros_like(x))


def test_operator_constructor_rejects_bad_counts_and_lengths(six_code):
    groups = (six_code.stabilizers, six_code.logical_x, six_code.logical_z,
              six_code.pure_errors)
    with pytest.raises(ValueError, match="pure_errors must hold 5 operators"):
        StabilizerCode.of(6, 1, *groups[:3], groups[3][:4])
    with pytest.raises(ValueError, match="logical_x operator .* wrong length"):
        StabilizerCode.of(6, 1, groups[0], [PauliString.identity(5)], *groups[2:])


def test_code_from_operators_equals_code_from_words(six_code):
    rebuilt = StabilizerCode(6, 1, *_words_of(six_code))
    assert rebuilt == six_code and hash(rebuilt) == hash(six_code)
    assert rebuilt._groups is None  # operators are built on first use, once
    assert rebuilt.stabilizers == six_code.stabilizers
    assert rebuilt.pure_errors == six_code.pure_errors
    assert rebuilt.logical_x == six_code.logical_x
    assert rebuilt.logical_z == six_code.logical_z
    assert rebuilt.stabilizers is rebuilt.stabilizers


def test_code_equality_is_by_value_and_a_bool(six_code):
    same = StabilizerCode.of(6, 1, six_code.stabilizers, six_code.logical_x,
                             six_code.logical_z, six_code.pure_errors)
    assert (same == six_code) is True
    assert len({same, six_code}) == 1
    other = six_code.permuted([1, 0, 2, 3, 4, 5])
    assert (other == six_code) is False
    assert (six_code == "not a code") is False
    # the held rows cannot be written through the code
    with pytest.raises(ValueError):
        six_code.x[0, 0] = 0
