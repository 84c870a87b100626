"""Pauli string algebra: products, commutation, encodings."""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tenqec import PauliString
from tenqec.pauli import GATHER_ROWS, gather, pack, unpack


def all_paulis(n):
    for x in range(1 << n):
        for z in range(1 << n):
            yield PauliString(n, x, z)


@st.composite
def paulis(draw, n=None):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=24))
    x = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    z = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return PauliString(n, x, z)


@st.composite
def pauli_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    return draw(paulis(n=n)), draw(paulis(n=n))


@st.composite
def pauli_triples(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    return draw(paulis(n=n)), draw(paulis(n=n)), draw(paulis(n=n))


def test_text_round_trip_exhaustive_n2():
    for p in all_paulis(2):
        assert PauliString.from_text(p.to_text()) == p


def test_single_qubit_products():
    x = PauliString.from_text("X")
    y = PauliString.from_text("Y")
    z = PauliString.from_text("Z")
    i = PauliString.from_text("I")
    assert x * z == y
    assert z * x == y
    assert x * y == z
    assert y * z == x
    assert x * x == i
    assert i * y == y


def test_multiply_commutative_and_associative_exhaustive():
    # The phase-free product is plain XOR, so small n is fully checkable.
    for n in (1, 2):
        ops = list(all_paulis(n))
        for a, b in itertools.product(ops, repeat=2):
            assert a * b == b * a
        for a, b, c in itertools.product(ops, repeat=3):
            assert (a * b) * c == a * (b * c)


@given(pauli_triples())
def test_multiply_associative_random(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@given(pauli_pairs())
def test_commutes_symmetric(pair):
    a, b = pair
    assert a.commutes(b) == b.commutes(a)
    assert a.anticommutes(b) == (not a.commutes(b))


def test_symplectic_bilinear_exhaustive_n2():
    for n in (1, 2):
        ops = list(all_paulis(n))
        for a, b, c in itertools.product(ops, repeat=3):
            assert (a * b).commutes(c) == (a.commutes(c) == b.commutes(c))


@given(pauli_triples())
def test_symplectic_bilinear_random(triple):
    a, b, c = triple
    assert (a * b).commutes(c) == (a.commutes(c) == b.commutes(c))


@given(paulis())
def test_codes_round_trip(p):
    assert PauliString.from_codes(p.codes()) == p
    assert PauliString.from_text(p.to_text()) == p
    assert PauliString.from_key(p.n, p.key()) == p


def test_key_is_base_four_little_endian():
    # qubit 0 is the least significant base-4 digit
    p = PauliString.from_text("XIZ")
    assert p.codes() == (1, 0, 3)
    assert p.key() == 1 + 0 * 4 + 3 * 16


@given(pauli_pairs())
def test_product_key_is_xor_of_keys(pair):
    a, b = pair
    assert (a * b).key() == a.key() ^ b.key()


@given(st.lists(paulis(n=70), min_size=0, max_size=40), st.randoms())
def test_pack_unpack_gathers_columns(ops, rnd):
    columns = rnd.sample(range(70), rnd.randint(0, 70))
    x, z = pack(ops, 70)
    assert x.shape == z.shape == (len(ops), 2)
    moved = gather(x, columns), gather(z, columns)
    assert unpack(*moved, len(columns)) == [op.restrict(columns) for op in ops]


@pytest.mark.parametrize("rows", [0, 1, GATHER_ROWS - 1, GATHER_ROWS, GATHER_ROWS + 1,
                                  2 * GATHER_ROWS + 1])
@pytest.mark.parametrize("n", [7, 64, 130])
@pytest.mark.parametrize("order", ["ascending", "shuffled", "partial"])
def test_unpack_equals_restrict(rows, n, order):
    """Row counts across gather-block edges, widths off a byte and over words."""
    rng = np.random.default_rng([rows, n])
    bits = lambda: int.from_bytes(rng.bytes(-(-n // 8)), "little") & ((1 << n) - 1)
    ops = [PauliString(n, bits(), bits()) for _ in range(rows)]
    columns = {
        "ascending": list(range(n)),
        "shuffled": rng.permutation(n).tolist(),
        "partial": rng.choice(n, size=n // 3, replace=False).tolist(),
    }[order]
    x, z = (gather(half, columns) for half in pack(ops, n))
    assert x.shape == z.shape == (rows, max(1, -(-len(columns) // 64)))
    assert unpack(x, z, len(columns)) == [op.restrict(columns) for op in ops]


def test_single_places_one_operator():
    p = PauliString.single(5, 3, "Y")
    assert p.to_text() == "IIIYI"
    assert p.weight() == 1
    assert PauliString.single(5, 3, 2) == p


def test_identity_properties():
    i = PauliString.identity(7)
    assert i.is_identity()
    assert i.weight() == 0
    for p in (PauliString.from_text("XZYIIXZ"),):
        assert i * p == p
        assert i.commutes(p)


def test_weight_counts_non_identity_sites():
    assert PauliString.from_text("XIYZI").weight() == 3


def test_restrict_without_concat():
    p = PauliString.from_text("XZYIZ")
    assert p.restrict([0, 2]).to_text() == "XY"
    assert p.restrict([2, 0]).to_text() == "YX"
    assert p.without([1, 3]).to_text() == "XYZ"
    q = PauliString.from_text("ZI")
    assert p.concat(q).to_text() == "XZYIZZI"


@given(paulis(n=8))
def test_restrict_without_partition(p):
    kept = [0, 2, 5]
    rest = [q for q in range(8) if q not in kept]
    assert p.restrict(kept).codes() == tuple(p.code_at(q) for q in kept)
    assert p.without(kept).codes() == tuple(p.code_at(q) for q in rest)


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        PauliString.from_text("XQZ")


def test_single_rejects_garbage():
    with pytest.raises(ValueError, match="invalid Pauli character 'Q'"):
        PauliString.single(3, 0, "Q")
    with pytest.raises(ValueError, match="invalid Pauli character 'XY'"):
        PauliString.single(3, 0, "XY")


def test_mismatched_lengths_rejected():
    a = PauliString.from_text("XX")
    b = PauliString.from_text("XXX")
    with pytest.raises(ValueError):
        a * b  # noqa: B018
    with pytest.raises(ValueError):
        a.commutes(b)
