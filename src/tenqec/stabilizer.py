"""Stabilizer codes: generators, logicals, pure errors, syndromes.

A code on n qubits with k logical qubits carries n-k stabilizer generators
S_i, logical representatives X_a / Z_a, and pure errors E_i satisfying
E_i S_j = (-1)^{delta_ij} S_j E_i.  Everything is phase-free: stabilizer
eigenvalues are taken as +1 and signs never enter the group algebra.  A
code holds them as packed tableaux; only this module reads their row
layout, and its queries are XORs and parities on those rows.

All qubit indices are 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .pauli import PauliString, gather, odd_overlaps, pack, unpack, words

ENUMERATION_CAP = 20  # largest n - k for which 2^(n-k) coset listings are allowed


class DependentGeneratorsError(ValueError):
    """The offered stabilizer set is not independent."""


# ---------------------------------------------------------------------------
# GF(2) linear algebra on bit-packed rows
# ---------------------------------------------------------------------------


def gf2_basis(rows: Iterable[int]) -> list[int]:
    """An echelon basis of the row space of packed bit rows.

    ``min(row, row ^ b)`` clears b's leading bit.  Each kept row lacks the
    leading bits of the rows kept before it, so one pass in insertion order
    reduces a row to zero exactly when it lies in their span.
    """
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return basis


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank of a bit-matrix whose rows are packed into integers."""
    return len(gf2_basis(rows))


def gf2_row_space(rows: Iterable[int]) -> tuple[int, ...]:
    """Canonical (reduced row echelon) basis of the row space."""
    basis = sorted(gf2_basis(rows), reverse=True)
    # reduce above pivots for a unique canonical form
    for i in range(len(basis)):
        pivot = 1 << (basis[i].bit_length() - 1)
        for j in range(i):
            if basis[j] & pivot:
                basis[j] ^= basis[i]
    return tuple(sorted(basis, reverse=True))


# ---------------------------------------------------------------------------
# Syndromes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Syndrome:
    """Measurement pattern of the stabilizer generators.

    Bit i of ``bits`` is set exactly when generator S_i reads -1.
    """

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 0 or self.bits >> self.length:
            raise ValueError("syndrome bits exceed length")

    @classmethod
    def from_signs(cls, signs: Iterable[int]) -> "Syndrome":
        bits = 0
        length = 0
        for s in signs:
            if s == -1:
                bits |= 1 << length
            elif s != 1:
                raise ValueError(f"syndrome signs must be +1/-1, got {s}")
            length += 1
        return cls(length, bits)

    @classmethod
    def from_text(cls, text: str) -> "Syndrome":
        """Parse '+-++...' with '-' marking a flipped generator."""
        try:
            return cls.from_signs(1 if c == "+" else -1 if c == "-" else None for c in text)
        except ValueError:
            raise ValueError(f"invalid syndrome text {text!r}") from None

    def bit_array(self) -> np.ndarray:
        """The (length,) uint8 array of the bits, 1 where a generator reads -1."""
        raw = self.bits.to_bytes((self.length + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=self.length,
                             bitorder="little")

    def to_text(self) -> str:
        return "".join("-" if (self.bits >> i) & 1 else "+" for i in range(self.length))

    def __str__(self) -> str:
        return self.to_text()


# ---------------------------------------------------------------------------
# The code itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class StabilizerCode:
    """An [[n, k]] stabilizer code with fixed operator representatives.

    The operators are held as packed x and z tableaux, (2n, words) uint64
    arrays with bit q of a row on qubit q, as :func:`tenqec.pauli.pack`
    writes them.  The rows are the n - k stabilizers, the n - k pure
    errors, the k logical X and the k logical Z, in that order.  The
    constructor checks only this form and raises ValueError naming the
    field it rejects; it holds the arrays, made read-only, without a copy.
    :meth:`of` packs operators into this form, and
    :meth:`from_operators` (or the JSON loader) also checks the relations.
    The operator tuples are built on first use and kept; no query builds them.
    Equality and the hash compare n, k and the rows.
    """

    n: int
    k: int
    x: np.ndarray
    z: np.ndarray
    # (stabilizers, pure errors, logical X, logical Z), built on first use
    _groups: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        n = self.n
        if not 0 <= self.k <= n:
            raise ValueError(f"k must lie in [0, n] for n={n}, got k={self.k}")
        for name, rows in (("x", self.x), ("z", self.z)):
            if not isinstance(rows, np.ndarray) or rows.dtype != np.uint64:
                raise ValueError(f"{name} must be a uint64 array, "
                                 f"got {getattr(rows, 'dtype', type(rows).__name__)}")
            if rows.ndim != 2 or len(rows) != 2 * n:
                raise ValueError(f"{name} must have 2n = {2 * n} rows, "
                                 f"got shape {rows.shape}")
            if rows.shape[1] != words(n):
                raise ValueError(f"{name} must have {words(n)} words per row for "
                                 f"n={n}, got {rows.shape[1]}")
        # the last word holds no bit past qubit n - 1: one test for both
        tail = np.uint64(n % 64)
        if tail and np.count_nonzero((self.x[:, -1] | self.z[:, -1]) >> tail):
            name = "x" if np.count_nonzero(self.x[:, -1] >> tail) else "z"
            raise ValueError(f"{name} has bits set past qubit n - 1 = {n - 1}")
        self.x.flags.writeable = self.z.flags.writeable = False

    # -- construction ------------------------------------------------------

    @classmethod
    def of(
        cls,
        n: int,
        k: int,
        stabilizers: Sequence[PauliString],
        logical_x: Sequence[PauliString],
        logical_z: Sequence[PauliString],
        pure_errors: Sequence[PauliString],
    ) -> "StabilizerCode":
        """Pack operators into a code, trusting their relations.

        Raises ValueError if an operator is not on n qubits, or if the
        counts are not n - k stabilizers and pure errors and k logicals
        of each type.
        """
        groups = tuple(map(tuple, (stabilizers, pure_errors, logical_x, logical_z)))
        for name, ops, count in zip(("stabilizers", "pure_errors", "logical_x", "logical_z"),
                                    groups, (n - k, n - k, k, k)):
            if len(ops) != count:
                raise ValueError(f"{name} must hold {count} operators for n={n}, "
                                 f"k={k}; got {len(ops)}")
            for op in ops:
                if op.n != n:
                    raise ValueError(f"{name} operator {op} has wrong length for n={n}")
        code = cls(n, k, *pack([op for ops in groups for op in ops], n))
        object.__setattr__(code, "_groups", groups)
        return code

    @classmethod
    def from_operators(
        cls,
        stabilizers: Sequence[PauliString | str],
        logical_x: Sequence[PauliString | str] = (),
        logical_z: Sequence[PauliString | str] = (),
        *,
        n: int | None = None,
        pure_errors: Sequence[PauliString | str] | None = None,
    ) -> "StabilizerCode":
        """Assemble and check a code; pure errors are solved for if absent."""
        stabs = tuple(_as_pauli(p) for p in stabilizers)
        lx = tuple(_as_pauli(p) for p in logical_x)
        lz = tuple(_as_pauli(p) for p in logical_z)
        ops = stabs + lx + lz
        if n is None:
            if not ops:
                raise ValueError("cannot infer n from an empty operator list")
            n = ops[0].n
        if len(lx) != len(lz):
            raise ValueError("logical_x and logical_z must pair up")
        k = len(lx)
        if len(stabs) != n - k:
            raise ValueError(
                f"need n-k={n - k} stabilizers for n={n}, k={k}; got {len(stabs)}"
            )
        if pure_errors is None:
            pure = tuple(solve_pure_errors(stabs, lx, lz))
        else:
            pure = tuple(_as_pauli(p) for p in pure_errors)
        code = cls.of(n, k, stabs, lx, lz, pure)
        code.validate()
        return code

    # -- operator views -----------------------------------------------------

    def _group(self, i: int) -> tuple[PauliString, ...]:
        if self._groups is None:
            ops = unpack(self.x, self.z, self.n)
            m = self.n - self.k
            cuts = (0, m, 2 * m, 2 * m + self.k, 2 * self.n)
            object.__setattr__(self, "_groups",
                               tuple(tuple(ops[a:b]) for a, b in zip(cuts, cuts[1:])))
        return self._groups[i]

    @property
    def stabilizers(self) -> tuple[PauliString, ...]:
        return self._group(0)

    @property
    def pure_errors(self) -> tuple[PauliString, ...]:
        return self._group(1)

    @property
    def logical_x(self) -> tuple[PauliString, ...]:
        return self._group(2)

    @property
    def logical_z(self) -> tuple[PauliString, ...]:
        return self._group(3)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StabilizerCode):
            return NotImplemented
        return (self.n, self.k) == (other.n, other.k) and bool(
            np.array_equal(self.x, other.x) and np.array_equal(self.z, other.z))

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.x.tobytes(), self.z.tobytes()))

    def validate(self) -> None:
        """Check every construction invariant; raise ValueError on failure.

        The stabilizer generators must be independent, and the operators
        must keep the symplectic pattern (lengths and counts are fixed by
        the tableau form):

        - S_i and S_j commute, as do X_a and X_b, and Z_a and Z_b;
        - X_a and Z_a commute with every S_j;
        - X_a and Z_b anticommute exactly when a == b;
        - E_i and S_j anticommute exactly when i == j;
        - E_i commutes with every X_a and Z_a, so a pure error has class 0,
          and no relation among the pure errors themselves is checked.
        """
        stabs, lx, lz = self.stabilizers, self.logical_x, self.logical_z
        if gf2_rank(_symplectic_row(s) for s in stabs) != len(stabs):
            raise DependentGeneratorsError("stabilizer generators are dependent")
        # (name, operators, name, operators, anticommute on the diagonal);
        # pairs within one group are checked once.
        relations = (
            ("stabilizer", stabs, "stabilizer", stabs, False),
            ("logical X", lx, "stabilizer", stabs, False),
            ("logical Z", lz, "stabilizer", stabs, False),
            ("logical X", lx, "logical X", lx, False),
            ("logical Z", lz, "logical Z", lz, False),
            ("logical X", lx, "logical Z", lz, True),
            ("pure error", self.pure_errors, "stabilizer", stabs, True),
            ("pure error", self.pure_errors, "logical X", lx, False),
            ("pure error", self.pure_errors, "logical Z", lz, False),
        )
        for name_a, ops_a, name_b, ops_b, diagonal in relations:
            for i, a in enumerate(ops_a):
                for j in range(i + 1 if name_a == name_b else 0, len(ops_b)):
                    want = diagonal and i == j
                    if a.anticommutes(ops_b[j]) != want:
                        raise ValueError(
                            f"{name_a} {i} and {name_b} {j} must "
                            f"{'anticommute' if want else 'commute'}"
                        )

    # -- queries, on packed rows or on one operator -------------------------

    def syndromes(self, ex: np.ndarray, ez: np.ndarray) -> np.ndarray:
        """Syndromes of (..., words) packed operators as (..., n - k) 0/1
        uint8: bit i is 1 when the operator anticommutes with S_i."""
        m = self.n - self.k
        return odd_overlaps(ex, ez, self.x[:m], self.z[:m])

    def pure_error_rows(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Packed (..., words) x and z of the pure errors of (..., n - k) 0/1
        syndrome bits, a right inverse of :meth:`syndromes`."""
        m = self.n - self.k
        if np.shape(bits)[-1:] != (m,):
            raise ValueError(f"syndrome length of bits {np.shape(bits)} is not n - k = {m}")
        flips = np.asarray(bits, dtype=np.uint8)[..., None]
        return tuple(np.bitwise_xor.reduce(t[m : 2 * m] * flips, axis=-2)
                     for t in (self.x, self.z))

    def class_bits(self, ex: np.ndarray, ez: np.ndarray) -> np.ndarray:
        """(...,) uint64 class bits of (..., words) packed operators: bit a is
        set when one anticommutes with Z_a, bit k + a when with X_a (k <= 32)."""
        k, m = self.k, self.n - self.k
        if k > 32:
            raise ValueError(f"class bits of k = {k} logical qubits exceed 64 bits")
        anti = odd_overlaps(ex, ez, self.x[2 * m :], self.z[2 * m :])
        # rows X_0 .. X_{k-1}, Z_0 .. Z_{k-1} set bits k .. 2k - 1, 0 .. k - 1
        weights = np.array([1 << (i + k) % (2 * k) for i in range(2 * k)], dtype=np.uint64)
        return anti.astype(np.uint64) @ weights

    def syndrome(self, error: PauliString) -> Syndrome:
        """Anticommutation pattern of ``error`` against the generators."""
        bits = np.packbits(self.syndromes(*pack([error], self.n))[0], bitorder="little")
        return Syndrome(self.n - self.k, int.from_bytes(bits.tobytes(), "little"))

    def logical_class(self, op: PauliString) -> PauliString | None:
        """The k-qubit class label of ``op``, or None outside the normalizer:
        label qubit a has an X (Z) part when ``op`` anticommutes with Z_a
        (X_a), so a logical representative is its own label."""
        ex, ez = pack([op], self.n)
        if self.syndromes(ex, ez).any():
            return None
        bits = int(self.class_bits(ex, ez)[0])
        return PauliString(self.k, bits & ((1 << self.k) - 1), bits >> self.k)

    def class_representative(self, label: PauliString) -> PauliString:
        """The product of X_a over the label's X components and Z_a over its
        Z components, a fixed coset representative of the class."""
        if label.n != self.k:
            raise ValueError("class label length must equal k")
        m, bits, x, z = self.n - self.k, label.x | label.z << self.k, 0, 0
        # logical rows X_0 .. X_{k-1}, Z_0 .. Z_{k-1}: bit i picks row 2m + i
        for i in (i for i in range(2 * self.k) if bits >> i & 1):
            x ^= int.from_bytes(self.x[2 * m + i].tobytes(), "little")
            z ^= int.from_bytes(self.z[2 * m + i].tobytes(), "little")
        return PauliString(self.n, x, z)

    def distance(self, max_weight: int) -> int | None:
        """Exhaustive code distance up to ``max_weight``; None if larger.

        Searches every Pauli of weight 1..max_weight for a normalizer
        element with a non-identity logical class.
        """
        for w in range(1, max_weight + 1):
            for qubits in itertools.combinations(range(self.n), w):
                for codes in itertools.product((1, 2, 3), repeat=w):
                    op = PauliString.identity(self.n)
                    for q, c in zip(qubits, codes):
                        op = op * PauliString.single(self.n, q, c)
                    label = self.logical_class(op)
                    if label is not None and not label.is_identity():
                        return w
        return None

    # -- leg analysis for contraction ---------------------------------------

    def distinguishes_errors_on(self, legs: Sequence[int]) -> bool:
        """True iff every nontrivial Pauli on ``legs`` has a distinct syndrome.

        The syndrome map is a group homomorphism, so this holds exactly when
        only the identity on the legs has a trivial syndrome, that is, when
        the syndromes of X and Z on each listed leg are linearly independent.
        """
        legs = list(legs)
        if len(set(legs)) != len(legs) or not all(0 <= q < self.n for q in legs):
            raise ValueError(f"legs {legs} must be distinct qubits of range({self.n})")
        # X_q's syndrome is column q of the stabilizers' z rows, Z_q's of their x rows
        q, m = np.array(legs, dtype=np.intp), self.n - self.k
        bits = [t[:m, q >> 6] >> (q & 63).astype(np.uint64) & 1 for t in (self.z, self.x)]
        cols = np.packbits(np.concatenate(bits, axis=1), axis=0, bitorder="little").T
        return gf2_rank(int.from_bytes(c.tobytes(), "little") for c in cols) == 2 * len(legs)

    def canonicalized_on(self, legs: Sequence[int]) -> "StabilizerCode":
        """Re-derive generators in leg-canonical form.

        After the rewrite, generator 2j acts as a single X on legs[j],
        generator 2j+1 as a single Z there, both trivially on the other
        listed legs; all later generators act trivially on every listed
        leg.  The group is unchanged: the rewrite only swaps generators and
        multiplies them together.  Logical representatives are untouched
        and pure errors are re-solved for the new generator order.
        """
        legs = list(legs)
        if not legs:
            return self
        if not self.distinguishes_errors_on(legs):
            raise ValueError(
                f"code cannot distinguish all errors on legs {legs}; "
                "canonical form does not exist"
            )
        gens = list(self.stabilizers)
        t = 0
        for leg in legs:
            # Probing with Z then X pins an X-type then a Z-type generator.
            for probe_code in (3, 1):
                probe = PauliString.single(self.n, leg, probe_code)
                pick = next(
                    (i for i in range(t, len(gens)) if gens[i].anticommutes(probe)),
                    None,
                )
                if pick is None:  # ruled out by the distinguishability check
                    raise AssertionError("canonicalization ran out of generators")
                gens[t], gens[pick] = gens[pick], gens[t]
                for i in range(len(gens)):
                    if i != t and gens[i].anticommutes(probe):
                        gens[i] = gens[i] * gens[t]
                t += 1
        pure = solve_pure_errors(gens, self.logical_x, self.logical_z)
        return StabilizerCode.of(self.n, self.k, gens, self.logical_x, self.logical_z, pure)

    # -- reshaping ----------------------------------------------------------

    def permuted(self, order: Sequence[int]) -> "StabilizerCode":
        """Relabel qubits so that new qubit i is old qubit ``order[i]``.

        Equal to ``restrict(order)`` on every operator, done as one packed
        column gather of the tableaux.
        """
        if sorted(order) != list(range(self.n)):
            raise ValueError("order must be a permutation of range(n)")
        return StabilizerCode(self.n, self.k, gather(self.x, order), gather(self.z, order))


def _as_pauli(op: PauliString | str) -> PauliString:
    return PauliString.from_text(op) if isinstance(op, str) else op


def _symplectic_row(op: PauliString) -> int:
    """Bit row whose dot with v = (vx | vz << n) is the symplectic product."""
    return op.z | (op.x << op.n)


# ---------------------------------------------------------------------------
# Pure-error solving
# ---------------------------------------------------------------------------


def solve_pure_errors(
    stabilizers: Sequence[PauliString],
    logical_x: Sequence[PauliString] = (),
    logical_z: Sequence[PauliString] = (),
) -> list[PauliString]:
    """Find pure errors E_i with E_i S_j anticommuting exactly when i == j.

    Solves one GF(2) linear system with n-k right-hand sides, eliminated
    by :func:`gf2_basis`; the extra rows force each E_i to commute with
    every logical representative, and a final symplectic sweep makes the
    E_i mutually commute, so the result is canonical for a given generator
    order.  The qubit count is the operators' common length; mixed
    lengths raise ValueError.  Raises DependentGeneratorsError when the
    generators are dependent (the system is singular).
    """
    stabilizers = list(stabilizers)
    lengths = {op.n for op in (*stabilizers, *logical_x, *logical_z)}
    if len(lengths) > 1:
        raise ValueError(f"operators of mixed lengths {sorted(lengths)}")
    if not stabilizers:
        return []
    (n,) = lengths
    m = len(stabilizers)
    # One equation per operator: its symplectic row above m right-hand-side
    # bits, bit t set when E_t must anticommute with it.  With the RHS below
    # the row, a basis row's leading bit is its pivot column, unless its row
    # part is zero, which makes the system singular.
    basis = gf2_basis(
        [(_symplectic_row(s) << m) | (1 << i) for i, s in enumerate(stabilizers)]
        + [_symplectic_row(op) << m for op in (*logical_x, *logical_z)]
    )
    if any(row >> m == 0 for row in basis):
        raise DependentGeneratorsError(
            "singular system: stabilizer generators are dependent"
        )
    # Leading bits are distinct, so sorting by value sorts by pivot.  Every
    # other coefficient of a row sits below its pivot, so sweeping pivots in
    # ascending order only reads already-fixed bits (free bits stay 0).
    basis.sort()
    mask = (1 << n) - 1
    errors = []
    for t in range(m):
        v = 0
        for row in basis:
            if (((row >> m) & v).bit_count() ^ (row >> t)) & 1:
                v |= 1 << (row.bit_length() - 1 - m)
        errors.append(PauliString(n, v & mask, v >> n))
    # Make the pure errors mutually commute; multiplying E_j by S_i leaves
    # every other required relation intact.
    for i in range(m):
        for j in range(i + 1, m):
            if errors[j].anticommutes(errors[i]):
                errors[j] = errors[j] * stabilizers[i]
    return errors


# ---------------------------------------------------------------------------
# Built-in codes
# ---------------------------------------------------------------------------

# Generator table for the [[6, 1, 3]] code and its ancilla-extended state.
# Column 0 is the logical reference qubit; columns 1-6 are the physical
# qubits of the six-qubit code.
_TABLE_ROWS: dict[str, str] = {
    "S1": "IZIZIII",
    "S2": "IXZYYXI",
    "S3": "IXXXXZI",
    "S4": "IIZZXIX",
    "S5": "IXYXYIZ",
    "X1": "XXZXZII",
    "Z1": "ZXYYXII",
}


def six_qubit_code() -> StabilizerCode:
    """The [[6, 1, 3]] code whose indicator tensor seeds the network center."""
    stabs = [_TABLE_ROWS[f"S{i}"][1:] for i in range(1, 6)]
    return StabilizerCode.from_operators(
        stabs,
        logical_x=[_TABLE_ROWS["X1"][1:]],
        logical_z=[_TABLE_ROWS["Z1"][1:]],
    )


def seven_qubit_state() -> StabilizerCode:
    """The [[7, 0]] stabilizer state obtained by adding the reference qubit.

    Its seven generators are the full rows of the generator table including
    the reference column, so the state's indicator tensor has one class of
    128 strings.
    """
    rows = [_TABLE_ROWS[name] for name in ("S1", "S2", "S3", "S4", "S5", "X1", "Z1")]
    return StabilizerCode.from_operators(rows)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def code_to_json_dict(code: StabilizerCode) -> dict:
    """Plain-text JSON description; Pauli operators as I/X/Y/Z strings."""
    return {
        "n": code.n,
        "k": code.k,
        "stabilizers": [s.to_text() for s in code.stabilizers],
        "logical_x": [a.to_text() for a in code.logical_x],
        "logical_z": [a.to_text() for a in code.logical_z],
        "pure_errors": [e.to_text() for e in code.pure_errors],
    }


def code_from_json_dict(data: dict) -> StabilizerCode:
    """Load a code description: integers ``n`` and ``k`` (optional) and
    arrays of Pauli strings, whose pure errors are optional and re-solved.
    A missing or mistyped field raises ValueError naming it; so does a non-object."""
    if not isinstance(data, dict):
        raise ValueError("code description must be a JSON object")
    for name in ("n", "stabilizers"):
        if name not in data:
            raise ValueError(f"code description missing field {name!r}")
    for name in ("n", "k"):
        if type(data.get(name, 0)) is not int:
            raise ValueError(f"code description field {name!r} must be an integer")
    for name in ("stabilizers", "logical_x", "logical_z", "pure_errors"):
        value = data.get(name, [])
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise ValueError(
                f"code description field {name!r} must be an array of strings")
    code = StabilizerCode.from_operators(
        data["stabilizers"], data.get("logical_x", []), data.get("logical_z", []),
        n=data["n"], pure_errors=data.get("pure_errors"),
    )
    if data.get("k", code.k) != code.k:
        raise ValueError("declared k does not match the operator lists")
    return code
