"""Phase-free multi-qubit Pauli operators in bit-packed symplectic form.

Single-qubit operators are numbered 0, 1, 2, 3 for I, X, Y, Z.  An n-qubit
operator is stored as a pair of integers (x, z) whose bit i describes qubit
i: X iff bit i of x is set, Z iff bit i of z is set, and Y iff both are.
Multiplication is a pair of word-parallel XORs and commutation is a parity
of two AND/popcount terms, so strings with thousands of qubits stay cheap.
Index strings (tuples of 0..3) and text like "XZYYXI" are views of the same
data.

The codes are chosen so that a qubit's code is (x XOR z) | z << 1, which is
linear in its (x, z) bits.  So the phase-free product is XOR on codes too,
and on base-4 keys:

    (a * b).key() == a.key() ^ b.key()

Keys of a group of Pauli strings can therefore be combined as plain ints.

For many operators at once, :func:`pack` turns them into rows of uint64
words, :func:`gather` moves chosen columns of such rows into new packed
rows, :func:`odd_overlaps` takes their symplectic parities against other
rows, and :func:`unpack` turns rows back into operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

PAULI_CHARS = "IXYZ"

_CHAR_TO_CODE = {c: i for i, c in enumerate(PAULI_CHARS)}
# I, X, Y, Z as their x bit, then as their z bit
_TEXT_BITS = (str.maketrans(PAULI_CHARS, "0110"), str.maketrans(PAULI_CHARS, "0011"))

# Rows per numpy gather in gather(): bounds the unpacked bit matrix.
GATHER_ROWS = 32


def _bits_to_code(x: int, z: int) -> int:
    """Map one qubit's (x, z) bit pair to its 0..3 code."""
    return ((x ^ z) & 1) | ((z & 1) << 1)


def _spread(bits: int) -> int:
    """Move bit i of a nonnegative integer to bit 2i."""
    return int("0".join(format(bits, "b")), 2)


def _code_to_bits(code: int) -> tuple[int, int]:
    """Map a 0..3 code to the (x, z) bit pair of that qubit."""
    low = code & 1
    high = code >> 1
    return low ^ high, high


@dataclass(frozen=True, slots=True)
class PauliString:
    """A phase-free Pauli operator on ``n`` qubits.

    Immutable and hashable; multiplication ignores phases entirely, so the
    group is (Z_2 x Z_2)^n and every element is its own inverse.
    """

    n: int
    x: int
    z: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("qubit count must be nonnegative")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits set beyond the qubit count")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse text like ``"XZYYXI"``; character i acts on qubit i."""
        text = text.upper()
        for c in text.strip(PAULI_CHARS):
            if c not in _CHAR_TO_CODE:
                raise ValueError(f"invalid Pauli character {c!r}")
        # each bit string, reversed, reads qubit 0 as its lowest bit
        x, z = (int(text.translate(bits)[::-1] or "0", 2) for bits in _TEXT_BITS)
        return cls(len(text), x, z)

    @classmethod
    def from_codes(cls, codes: Iterable[int]) -> "PauliString":
        """Build from an index string, a sequence of codes in 0..3."""
        x = z = 0
        n = 0
        for code in codes:
            if not 0 <= code <= 3:
                raise ValueError(f"invalid Pauli code {code}")
            xb, zb = _code_to_bits(code)
            x |= xb << n
            z |= zb << n
            n += 1
        return cls(n, x, z)

    @classmethod
    def single(cls, n: int, qubit: int, code: int | str) -> "PauliString":
        """A single-qubit operator embedded in ``n`` qubits."""
        if isinstance(code, str):
            if code.upper() not in _CHAR_TO_CODE:
                raise ValueError(f"invalid Pauli character {code!r}")
            code = _CHAR_TO_CODE[code.upper()]
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        if not 0 <= code <= 3:
            raise ValueError(f"invalid Pauli code {code}")
        xb, zb = _code_to_bits(code)
        return cls(n, xb << qubit, zb << qubit)

    @classmethod
    def from_key(cls, n: int, key: int) -> "PauliString":
        """Inverse of :meth:`key`: decode a base-4 integer index string."""
        if key < 0 or key >> (2 * n):
            raise ValueError(f"key {key} out of range for n={n}")
        return cls.from_codes((key >> (2 * i)) & 3 for i in range(n))

    # -- views -------------------------------------------------------------

    def code_at(self, qubit: int) -> int:
        """The 0..3 code acting on one qubit."""
        if not 0 <= qubit < self.n:
            raise ValueError(f"qubit {qubit} out of range for n={self.n}")
        return _bits_to_code(self.x >> qubit, self.z >> qubit)

    def codes(self) -> tuple[int, ...]:
        """The index-string view, one 0..3 code per qubit."""
        return tuple(_bits_to_code(self.x >> i, self.z >> i) for i in range(self.n))

    def key(self) -> int:
        """The index string packed as a base-4 integer, qubit i in digit i.

        Digit i is (x_i XOR z_i) | z_i << 1, so the key interleaves the bits
        of x XOR z (even places) with those of z (odd places).
        """
        return _spread(self.x ^ self.z) | _spread(self.z) << 1

    def to_text(self) -> str:
        return "".join(PAULI_CHARS[c] for c in self.codes())

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"PauliString({self.to_text()!r})"

    # -- group operations --------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Phase-free product: component-wise XOR of both bit vectors."""
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z)

    def commutes(self, other: "PauliString") -> bool:
        """True iff the symplectic inner product is even."""
        return not self.anticommutes(other)

    def anticommutes(self, other: "PauliString") -> bool:
        """True iff the symplectic inner product is odd."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) & 1 == 1

    def weight(self) -> int:
        """Number of qubits acted on non-trivially."""
        return (self.x | self.z).bit_count()

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    # -- reshaping ---------------------------------------------------------

    def restrict(self, qubits: Sequence[int]) -> "PauliString":
        """The sub-operator on the listed qubits, in the listed order.

        The qubit indices must be valid and distinct.  Passing a permutation
        of ``range(n)`` relabels the qubits.
        """
        if len(set(qubits)) != len(qubits):
            raise ValueError("restrict requires distinct qubit indices")
        x = z = 0
        for pos, q in enumerate(qubits):
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range for n={self.n}")
            x |= ((self.x >> q) & 1) << pos
            z |= ((self.z >> q) & 1) << pos
        return PauliString(len(qubits), x, z)

    def without(self, qubits: Sequence[int]) -> "PauliString":
        """Drop the listed qubits, keeping the rest in their original order.

        Equivalent to ``restrict`` on the complement but O(len(qubits))
        big-integer operations instead of O(n).
        """
        x, z, n = self.x, self.z, self.n
        for q in sorted(set(qubits), reverse=True):
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range for n={self.n}")
            low = (1 << q) - 1
            x = (x & low) | ((x >> (q + 1)) << q)
            z = (z & low) | ((z >> (q + 1)) << q)
            n -= 1
        return PauliString(n, x, z)

    def concat(self, other: "PauliString") -> "PauliString":
        """Juxtapose two operators; ``other`` lands on the higher qubits."""
        return PauliString(
            self.n + other.n,
            self.x | (other.x << self.n),
            self.z | (other.z << self.n),
        )


# ---------------------------------------------------------------------------
# Packed rows
# ---------------------------------------------------------------------------


def words(n: int) -> int:
    """64-bit words per packed row of ``n`` qubits (at least one)."""
    return max(1, -(-n // 64))


def pack(ops: Sequence[PauliString], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The x and z bits of ``ops`` as read-only (len(ops), words) uint64 arrays.

    Bit q of a row is qubit q, little-endian across the 64-bit words.  An
    operator on other than ``n`` qubits raises ValueError.
    """
    for op in ops:
        if op.n != n:
            raise ValueError(f"operator {op} has wrong length for n={n}")
    nbytes = 8 * words(n)
    raw = b"".join([op.x.to_bytes(nbytes, "little") for op in ops]
                   + [op.z.to_bytes(nbytes, "little") for op in ops])
    x, z = np.frombuffer(raw, dtype="<u8").reshape(2, len(ops), nbytes // 8)
    return x, z


def gather(rows: np.ndarray, columns: Sequence[int]) -> np.ndarray:
    """Packed rows whose bit i is bit ``columns[i]`` of each row of ``rows``.

    ``rows`` is a (rows, words) uint64 array as from :func:`pack`, and so
    is the result, with the words of len(columns) qubits.  The columns are
    gathered in blocks of GATHER_ROWS rows, with ``take``: a fancy index on
    the column axis returns an F-ordered array, which ``packbits`` along a
    row packs about 25 times slower than a C-ordered one.
    """
    cols = np.asarray(columns, dtype=np.intp)
    out = np.zeros((len(rows), words(len(cols))), dtype="<u8")
    out_bytes = out.view(np.uint8)
    for start in range(0, len(rows), GATHER_ROWS):
        block = rows[start : start + GATHER_ROWS]
        bits = np.unpackbits(block.view(np.uint8), axis=1, bitorder="little").take(cols, axis=1)
        packed = np.packbits(bits, axis=1, bitorder="little")
        del bits  # before the next block's bits are unpacked
        out_bytes[start : start + len(packed), : packed.shape[1]] = packed
    return out


def odd_overlaps(
    ex: np.ndarray, ez: np.ndarray, rows_x: np.ndarray, rows_z: np.ndarray
) -> np.ndarray:
    """Parities of symplectic products: (..., words) operators against
    (rows, words) packed rows, as a (..., rows) uint8 array of 0/1."""
    if ex.shape != ez.shape or ex.shape[-1:] != rows_x.shape[-1:]:
        raise ValueError(f"operators of shapes {ex.shape}, {ez.shape} "
                         f"against rows of shape {rows_x.shape}")
    overlap = (
        np.bitwise_count(ex[..., None, :] & rows_z)
        + np.bitwise_count(ez[..., None, :] & rows_x)
    ).sum(axis=-1, dtype=np.uint8)  # wraps mod 256, which keeps the parity
    return overlap & 1


def unpack(x: np.ndarray, z: np.ndarray, n: int) -> list[PauliString]:
    """The ``n``-qubit operators of packed rows, one per row of ``x``/``z``."""
    ints = lambda rows: [int.from_bytes(row.tobytes(), "little") for row in rows]
    return [PauliString(n, a, b) for a, b in zip(ints(x), ints(z))]
