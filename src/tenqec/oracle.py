"""Brute-force reference implementations for cross-checking.

Everything here recomputes results by direct enumeration, sharing as
little machinery as possible with the production paths: class listings are
rebuilt from generator products, single-qubit algebra is rederived
from the Pauli layer at import time, and contraction is performed as a
literal sum over entry pairs; syndromes, pure errors and representatives
come from the code's operator tuples, not its packed queries.  These
routines are slow and size-capped; they exist so the fast paths have
something independent to agree with.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .decoder import LikelihoodTable, NoiseModel
from .pauli import PauliString
from .stabilizer import (
    ENUMERATION_CAP,
    StabilizerCode,
    Syndrome,
    solve_pure_errors,
)
from .tensor import CodeTensor, LegBinding, class_labels


# Coset members per block of ExhaustiveDecoder's sum: bounds its temporaries
# to O(SUM_ROWS * n) however large 2^(n-k) is.
SUM_ROWS = 1 << 12


class DuplicateEntryError(ValueError):
    """A contraction produced an entry of 2 or more: not an indicator tensor."""


def _single_product_table() -> np.ndarray:
    """The 4x4 single-qubit product table, derived from the Pauli layer."""
    table = np.empty((4, 4), dtype=np.uint8)
    for a in range(4):
        for b in range(4):
            prod = PauliString.single(1, 0, a) * PauliString.single(1, 0, b)
            table[a, b] = prod.code_at(0)
    return table


_PRODUCT = _single_product_table()


def _class_digit_tables(code: StabilizerCode) -> dict[PauliString, np.ndarray]:
    """Per-class digit tables rebuilt by doubling over the generators.

    Row r is the representative times the generators selected by r's bits:
    each generator appends the product of every row so far with it.
    """
    m = code.n - code.k
    if m > ENUMERATION_CAP:
        raise ValueError(f"code too large to enumerate (2^{m} per class)")
    gen_digits = [np.array(g.codes(), dtype=np.uint8) for g in code.stabilizers]
    out = {}
    for label in class_labels(code.k):
        rep = _product(code.n, [x for a, x in enumerate(code.logical_x) if label.x >> a & 1]
                       + [z for a, z in enumerate(code.logical_z) if label.z >> a & 1])
        rows = np.empty((1 << m, code.n), dtype=np.uint8)
        rows[0] = rep.codes()
        for j, g in enumerate(gen_digits):
            rows[1 << j : 2 << j] = _PRODUCT[rows[: 1 << j], g]
        out[label] = rows
    return out


def _product(n: int, ops: list[PauliString]) -> PauliString:
    """The phase-free product of ``ops``, the identity when there are none."""
    return functools.reduce(PauliString.__mul__, ops, PauliString.identity(n))


class ExhaustiveDecoder:
    """Class likelihoods by summing over every coset member."""

    def __init__(self, code: StabilizerCode) -> None:
        self.code = code
        self.tables = _class_digit_tables(code)

    def likelihoods(self, noise: NoiseModel, syndrome: Syndrome) -> LikelihoodTable:
        code = self.code
        if noise.n != code.n:
            raise ValueError(f"noise model has {noise.n} qubits, the code {code.n}")
        if syndrome.length != len(code.stabilizers):
            raise ValueError("syndrome length does not match generator count")
        picked = [e for i, e in enumerate(code.pure_errors) if syndrome.bits >> i & 1]
        err = np.array(_product(code.n, picked).codes(), dtype=np.uint8)
        cols = np.arange(code.n)
        labels = tuple(self.tables)
        values = np.zeros(len(labels))
        for i, label in enumerate(labels):
            table = self.tables[label]
            for start in range(0, len(table), SUM_ROWS):
                shifted = _PRODUCT[err, table[start : start + SUM_ROWS]]
                values[i] += noise.probs[cols, shifted].prod(axis=1).sum()
        return LikelihoodTable(labels=labels, mantissas=values, log_scale=0.0)


@dataclass(frozen=True, slots=True)
class ExhaustiveContraction:
    """Literal contraction output: class listings plus a rebuilt code."""

    classes: dict[PauliString, frozenset[int]]
    code: StabilizerCode


def exhaustive_contract(
    a: StabilizerCode | CodeTensor,
    b: StabilizerCode | CodeTensor,
    binding: LegBinding,
) -> ExhaustiveContraction:
    """Contract two code tensors by brute-force entry matching.

    Every pair of entries agreeing on the bound legs contributes one count
    to the placed index string (a's unbound legs first, then b's, both
    ascending; logical qubits a's then b's).  A count of 2 or more raises
    DuplicateEntryError, since the result could not be an indicator
    tensor.  The surviving listings are turned back into a stabilizer code
    without reference to the constructive contraction: generators are
    greedily extracted from the identity class, logical representatives
    are the smallest member of each unit-label class, and pure errors are
    re-solved from scratch.
    """
    code_a = a.code if isinstance(a, CodeTensor) else a
    code_b = b.code if isinstance(b, CodeTensor) else b
    tables_a = _class_digit_tables(code_a)
    tables_b = _class_digit_tables(code_b)
    a_unbound = [q for q in range(code_a.n) if q not in set(binding.left)]
    b_unbound = [q for q in range(code_b.n) if q not in set(binding.right)]
    n_out = len(a_unbound) + len(b_unbound)
    powers = 4 ** np.arange(n_out, dtype=object)

    classes: dict[PauliString, frozenset[int]] = {}
    for label_a, rows_a in tables_a.items():
        buckets: dict[tuple[int, ...], list[np.ndarray]] = {}
        for row in rows_a:
            key = tuple(int(row[leg]) for leg in binding.left)
            buckets.setdefault(key, []).append(row)
        for label_b, rows_b in tables_b.items():
            counts: dict[int, int] = {}
            for row_b in rows_b:
                key = tuple(int(row_b[leg]) for leg in binding.right)
                for row_a in buckets.get(key, ()):
                    digits = np.concatenate(
                        [row_a[a_unbound], row_b[b_unbound]]
                    )
                    placed = int((digits.astype(object) * powers).sum())
                    counts[placed] = counts.get(placed, 0) + 1
            doubled = [k for k, c in counts.items() if c > 1]
            if doubled:
                raise DuplicateEntryError(
                    f"entry {doubled[0]} of class {label_a.concat(label_b)} "
                    f"has multiplicity {counts[doubled[0]]}"
                )
            classes[label_a.concat(label_b)] = frozenset(counts)

    code = _code_from_listings(
        n_out, code_a.k + code_b.k, classes
    )
    return ExhaustiveContraction(classes=classes, code=code)


def _code_from_listings(
    n: int, k: int, classes: dict[PauliString, frozenset[int]]
) -> StabilizerCode:
    """Rebuild a stabilizer code from complete class listings."""
    identity_keys = classes[PauliString.identity(k)]
    expected = 1 << (n - k)
    if len(identity_keys) != expected:
        raise ValueError(
            f"identity class has {len(identity_keys)} members, "
            f"expected {expected}"
        )
    generators: list[PauliString] = []
    basis_rows: list[int] = []
    for key in sorted(identity_keys):
        op = PauliString.from_key(n, key)
        row = op.z | (op.x << n)
        for b in basis_rows:
            row = min(row, row ^ b)
        if row:
            basis_rows.append(row)
            generators.append(op)
            if len(generators) == n - k:
                break
    if len(generators) != n - k:
        raise ValueError("identity class does not span a full stabilizer group")

    logical_x = []
    logical_z = []
    for alpha in range(k):
        x_label = PauliString.single(k, alpha, "X")
        z_label = PauliString.single(k, alpha, "Z")
        logical_x.append(PauliString.from_key(n, min(classes[x_label])))
        logical_z.append(PauliString.from_key(n, min(classes[z_label])))

    pure = solve_pure_errors(tuple(generators), tuple(logical_x), tuple(logical_z))
    code = StabilizerCode.of(
        n=n,
        k=k,
        stabilizers=tuple(generators),
        logical_x=tuple(logical_x),
        logical_z=tuple(logical_z),
        pure_errors=tuple(pure),
    )
    code.validate()
    return code


def _op_class_bits(code: StabilizerCode, op: PauliString) -> int:
    """Class bits x | z << k of any operator, syndrome-carrying ones included."""
    return sum(op.anticommutes(z) << a | op.anticommutes(x) << code.k + a
               for a, (x, z) in enumerate(zip(code.logical_x, code.logical_z)))


def exhaustive_failure_rate(
    code: StabilizerCode,
    noise: NoiseModel,
    chooser,
) -> float:
    """Exact logical failure probability of a decoding rule.

    Enumerates all 4^n errors (n is capped at 8), computes each one's
    syndrome and logical class from per-qubit tables, and sums the
    probability of every error whose class differs from the one
    ``chooser`` picks for its syndrome.  ``chooser`` maps a Syndrome to a
    class label and is consulted once per syndrome.
    """
    n, k = code.n, code.k
    m = n - k
    if n > 8:
        raise ValueError("full error enumeration is capped at n = 8")
    if m > 12:
        raise ValueError("syndrome enumeration is capped at n - k = 12")
    if noise.n != n:
        raise ValueError(f"noise model has {noise.n} qubits, the code {n}")

    syn1 = np.zeros((n, 4), dtype=np.int64)
    cls1 = np.zeros((n, 4), dtype=np.int64)
    for q in range(n):
        for g in range(1, 4):
            op = PauliString.single(n, q, g)
            syn1[q, g] = sum(op.anticommutes(s) << i for i, s in enumerate(code.stabilizers))
            cls1[q, g] = _op_class_bits(code, op)

    count = 1 << (2 * n)
    indices = np.arange(count, dtype=np.int64)
    syndromes = np.zeros(count, dtype=np.int64)
    cls = np.zeros(count, dtype=np.int64)
    prob = np.ones(count)
    for q in range(n):
        dig = (indices >> (2 * q)) & 3
        syndromes ^= syn1[q, dig]
        cls ^= cls1[q, dig]
        prob *= noise.probs[q, dig]

    pure_cls = np.zeros(1 << m, dtype=np.int64)
    single = [_op_class_bits(code, e) for e in code.pure_errors]
    for s in range(1, 1 << m):
        low = (s & -s).bit_length() - 1
        pure_cls[s] = pure_cls[s ^ (1 << low)] ^ single[low]

    chosen = np.zeros(1 << m, dtype=np.int64)
    for s in range(1 << m):
        label = chooser(Syndrome(m, s))
        if label.n != k:
            raise ValueError(f"chooser returned a {label.n}-qubit label; k = {k}")
        chosen[s] = label.x | label.z << k

    failed = (cls ^ pure_cls[syndromes] ^ chosen[syndromes]) != 0
    return float(prob[failed].sum())
