"""Indicator tensors of stabilizer codes and their contraction.

The tensor of an [[n, k]] code assigns, to each k-qubit class label L and
each n-qubit index string g, a 0/1 entry marking whether the Pauli string
sigma^g lies in the coset (stabilizer group) * (representative of L).  Two
such tensors can be contracted over bound leg pairs; when one of the codes
can distinguish every error on its bound legs, the contraction is again the
indicator tensor of a stabilizer code, and that code is built here
constructively from a leg-canonical generator form instead of by summing
entries.

Index strings are base-4 keys whose XOR is the phase-free product, so class
listings are cosets of the identity class; :meth:`CodeTensor.self_check`
checks them as such, exhaustively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .pauli import PauliString
from .stabilizer import ENUMERATION_CAP, StabilizerCode, gf2_basis


class ContractionPreconditionError(ValueError):
    """Neither side can distinguish the errors on its bound legs."""


@dataclass(frozen=True, slots=True)
class LegBinding:
    """Pairs of bound legs: ``left[i]`` of one tensor meets ``right[i]``."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.left) != len(self.right):
            raise ValueError("left and right leg lists must pair up")
        if len(set(self.left)) != len(self.left) or len(set(self.right)) != len(self.right):
            raise ValueError("bound legs must be distinct on each side")
        if not self.left:
            raise ValueError("a binding needs at least one leg pair")


def class_labels(k: int) -> list[PauliString]:
    """All 4^k class labels in the fixed order I < X < Z < Y per qubit."""
    labels = []
    for codes in itertools.product((0, 1, 3, 2), repeat=k):
        labels.append(PauliString.from_codes(reversed(codes)))
    # itertools.product varies the last position fastest; reversing the code
    # tuple makes qubit 0 the fastest-varying (least significant) position.
    return labels


class CodeTensor:
    """A stabilizer code together with (possibly deferred) class listings.

    ``class_tables`` maps each class label to the frozen set of base-4 keys
    of its 2^(n-k) member strings.  Listings are materialized lazily and
    only when n - k is at most ENUMERATION_CAP; codes produced by large
    contractions simply carry their StabilizerCode.
    """

    def __init__(
        self,
        code: StabilizerCode,
        classes: Mapping[PauliString, frozenset[int]] | None = None,
    ) -> None:
        self.code = code
        self._classes: dict[PauliString, frozenset[int]] | None = (
            dict(classes) if classes is not None else None
        )

    @classmethod
    def from_code(cls, code: StabilizerCode) -> "CodeTensor":
        """Build with eagerly enumerated class listings."""
        tensor = cls(code)
        tensor.class_tables  # force materialization (and the cap check)
        return tensor

    @property
    def class_tables(self) -> dict[PauliString, frozenset[int]]:
        if self._classes is None:
            m = self.code.n - self.code.k
            if m > ENUMERATION_CAP:
                raise ValueError(
                    f"refusing to enumerate 2^{m} strings per class "
                    f"(cap is 2^{ENUMERATION_CAP})"
                )
            self._classes = {
                label: _coset_keys(self.code, label)
                for label in class_labels(self.code.k)
            }
        return self._classes

    def digit_tables(self) -> dict[PauliString, np.ndarray]:
        """Class listings as (entries, n) uint8 arrays of per-leg codes.

        Rows are sorted by key, so the tables are deterministic.
        """
        out = {}
        for label, keys in self.class_tables.items():
            table = np.empty((len(keys), self.code.n), dtype=np.uint8)
            for row, key in enumerate(sorted(keys)):
                for i in range(self.code.n):
                    table[row, i] = (key >> (2 * i)) & 3
            out[label] = table
        return out

    def self_check(self, *, seed: int = 7) -> "CheckReport":
        """Verify the indicator-tensor laws on the enumerated classes.

        Keys XOR as Pauli products, so the classes are checked as cosets of
        the identity class S: every class has 2^(n-k) strings and no string
        is in two (the tensor is 0/1); a GF(2) basis of S has n - k rows,
        each classifying as I (S is the stabilizer group); every class is
        ``r ^ S`` for its smallest member r, which classifies as the label;
        and ``r_a ^ r_b`` lies in class(L_a L_b) for every label pair.
        Syndromes and labels are linear in the key, so this proves every
        member's label and the product rule for every pair of members, with
        (n - k) + 4^k ``logical_class`` calls and nothing sampled.  ``seed``
        is unused; it stays because the benchmark's code-build workload
        passes it.
        """
        violations: list[str] = []
        code = self.code
        tables = self.class_tables
        expected = 1 << (code.n - code.k)
        seen: dict[int, PauliString] = {}
        for label, keys in tables.items():
            if len(keys) != expected:
                violations.append(
                    f"class {label or 'I'} has {len(keys)} strings, expected {expected}"
                )
            for key in keys:
                if key in seen:
                    violations.append(
                        f"string {key} appears in classes {seen[key]} and {label}"
                    )
                seen[key] = label
        identity = PauliString.identity(code.k)
        group = tables.get(identity, frozenset())
        basis = gf2_basis(group)
        if 1 << len(basis) != expected:
            violations.append(
                f"identity class spans {1 << len(basis)} strings, expected {expected}"
            )
        for row in basis:
            got = code.logical_class(PauliString.from_key(code.n, row))
            if got != identity:
                violations.append(f"identity-class basis row {row} classifies as {got}")
        reps = {label: min(keys) for label, keys in tables.items() if keys}
        for label, rep in reps.items():
            if frozenset(rep ^ s for s in group) != tables[label]:
                violations.append(f"class {label} is not the coset of its member {rep}")
            got = code.logical_class(PauliString.from_key(code.n, rep))
            if got != label:
                violations.append(
                    f"string {rep} listed under {label} but classifies as {got}"
                )
        for la, ra in reps.items():
            for lb, rb in reps.items():
                target = tables.get(la * lb)
                if target is None:
                    violations.append(f"missing product class {la * lb}")
                elif ra ^ rb not in target:
                    violations.append(
                        f"product of {ra} ({la}) and {rb} ({lb}) "
                        f"escapes class {la * lb}"
                    )
        return CheckReport(passed=not violations, violations=tuple(violations))


@dataclass(frozen=True, slots=True)
class CheckReport:
    passed: bool
    violations: tuple[str, ...] = field(default_factory=tuple)


def _coset_keys(code: StabilizerCode, label: PauliString) -> frozenset[int]:
    """Enumerate a logical class as every generator product times its
    representative, doubling the list once per generator.

    The products run on base-4 keys, where a product is an XOR.
    """
    keys = [code.class_representative(label).key()]
    for gen in code.stabilizers:
        g = gen.key()
        keys += [key ^ g for key in keys]
    return frozenset(keys)


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------


def contract(a: CodeTensor, b: CodeTensor, binding: LegBinding) -> CodeTensor:
    """Contract two code tensors over the bound leg pairs.

    Requires at least one side to distinguish every error on its bound
    legs; when both do, ``a`` supplies the canonical generator form (a
    deterministic choice).  The result's legs are a's unbound legs in
    order, then b's; its logical qubits are a's then b's.  The returned
    tensor carries the contracted StabilizerCode and enumerates its class
    listings lazily.

    One rule lifts every operator.  The canonical side c is put in
    leg-canonical form on its bound legs (see
    :meth:`StabilizerCode.canonicalized_on`), and each operator meets the
    :func:`pair_products` entry that matches its bound-leg action: an
    operator of the other side is paired with it, and one of c's has that
    action cleared by it.  Stabilizers and pure errors list the other
    side's rows, then c's rows after the canonical pairs.  The holographic
    assembler
    (:func:`tenqec.holographic.build_layout`) applies exactly this rule to
    packed tableaux, and a fold of this function over the same attachments
    is its reference.
    """
    codes, bound = (a.code, b.code), (binding.left, binding.right)
    _check_binding(binding, codes[0].n, codes[1].n)
    c = next((i for i in (0, 1) if codes[i].distinguishes_errors_on(bound[i])), None)
    if c is None:
        raise ContractionPreconditionError(
            "neither code distinguishes all errors on its bound legs; "
            "the contraction is not a stabilizer-code tensor"
        )
    d = 1 - c
    canon = codes[c].canonicalized_on(bound[c])
    rest = 2 * len(bound[c])
    products = pair_products(canon, len(bound[c]))
    drops = (sorted(binding.left), sorted(binding.right))
    id_d = PauliString.identity(codes[d].n)

    def lift(op: PauliString, side: int) -> PauliString:
        """Place one side's operator in the fixed output leg order."""
        match = products[op.restrict(bound[side]).key()]
        on_c, on_d = (op * match, id_d) if side == c else (match, op)
        first, second = (on_c, on_d) if c == 0 else (on_d, on_c)
        return first.without(drops[0]).concat(second.without(drops[1]))

    new_code = StabilizerCode.of(
        n=codes[0].n + codes[1].n - rest,
        k=codes[0].k + codes[1].k,
        stabilizers=tuple([lift(s, d) for s in codes[d].stabilizers]
                          + [lift(s, c) for s in canon.stabilizers[rest:]]),
        logical_x=tuple(lift(op, i) for i in (0, 1) for op in codes[i].logical_x),
        logical_z=tuple(lift(op, i) for i in (0, 1) for op in codes[i].logical_z),
        pure_errors=tuple([lift(e, d) for e in codes[d].pure_errors]
                          + [lift(e, c) for e in canon.pure_errors[rest:]]),
    )
    return CodeTensor(new_code)


def pair_products(canon: StabilizerCode, n_pairs: int) -> list[PauliString]:
    """Products of the leading canonical generator pairs, indexed by key.

    ``canon`` is leg-canonical on some bound legs (see
    :meth:`StabilizerCode.canonicalized_on`), so generators 2i and 2i+1
    act as X and Z on bound leg i.  Entry t is the unique product of those
    pairs that acts on bound leg i as base-4 digit i of t: I, X, Y, Z select
    nothing, the X generator, both, or the Z generator.
    """
    products = [PauliString.identity(canon.n)]
    for i in range(n_pairs):
        gx, gz = canon.stabilizers[2 * i], canon.stabilizers[2 * i + 1]
        factors = (PauliString.identity(canon.n), gx, gx * gz, gz)
        products = [p * f for f in factors for p in products]
    return products


def _check_binding(binding: LegBinding, n_left: int, n_right: int) -> None:
    for q in binding.left:
        if not 0 <= q < n_left:
            raise ValueError(f"bound leg {q} out of range for the left tensor")
    for q in binding.right:
        if not 0 <= q < n_right:
            raise ValueError(f"bound leg {q} out of range for the right tensor")
