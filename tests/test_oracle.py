"""Brute-force reference paths: they must agree with nothing shared."""

import numpy as np
import pytest

from tenqec import (
    CodeTensor,
    DuplicateEntryError,
    ExhaustiveDecoder,
    LegBinding,
    NoiseModel,
    PauliString,
    StabilizerCode,
    Syndrome,
    exhaustive_contract,
    exhaustive_failure_rate,
    likelihoods_network,
)


def test_exhaustive_likelihoods_total_mass(six_code):
    noise = NoiseModel.depolarizing(6, 0.21)
    oracle = ExhaustiveDecoder(six_code)
    total = 0.0
    for bits in range(32):
        table = oracle.likelihoods(noise, Syndrome(5, bits))
        total += sum(table.absolute(label) for label in table.labels)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_exhaustive_agrees_with_network(holo):
    layout, schedule = holo[1]
    noise = NoiseModel.depolarizing(6, 0.07)
    oracle = ExhaustiveDecoder(layout.code)
    for bits in (0, 3, 17, 31):
        syn = Syndrome(5, bits)
        a = oracle.likelihoods(noise, syn)
        b = likelihoods_network(layout, schedule, noise, syn)
        for label in a.labels:
            assert a.absolute(label) == pytest.approx(
                b.absolute(label), rel=1e-12
            )


def test_block_sum_matches_one_block(monkeypatch, six_code):
    """Summing each class in ragged blocks of 3 members changes nothing."""
    noise = NoiseModel.depolarizing(6, 0.13)
    whole = ExhaustiveDecoder(six_code).likelihoods(noise, Syndrome(5, 9))
    monkeypatch.setattr("tenqec.oracle.SUM_ROWS", 3)
    blocks = ExhaustiveDecoder(six_code).likelihoods(noise, Syndrome(5, 9))
    np.testing.assert_allclose(blocks.mantissas, whole.mantissas, rtol=1e-14)


def test_exhaustive_contract_rebuilds_valid_code(six_tensor, block_tensor):
    result = exhaustive_contract(six_tensor, block_tensor, LegBinding((5,), (0,)))
    result.code.validate()
    rebuilt = CodeTensor(result.code, result.classes)
    assert rebuilt.self_check().passed


def test_exhaustive_contract_detects_duplicates():
    a = CodeTensor.from_code(
        StabilizerCode.from_operators(["IZ"], logical_x=["XI"], logical_z=["ZI"])
    )
    b = CodeTensor.from_code(
        StabilizerCode.from_operators(["ZI"], logical_x=["IX"], logical_z=["IZ"])
    )
    with pytest.raises(DuplicateEntryError):
        exhaustive_contract(a, b, LegBinding((1,), (0,)))


def test_failure_rate_zero_noise(six_code, holo):
    layout, schedule = holo[1]
    noise = NoiseModel.depolarizing(6, 0.0)

    def chooser(syn):
        return PauliString.from_text("I")

    assert exhaustive_failure_rate(six_code, noise, chooser) == 0.0


def test_failure_rate_ml_beats_constant_chooser(six_code, holo):
    layout, schedule = holo[1]
    noise = NoiseModel.depolarizing(6, 0.2)

    def ml_chooser(syn):
        return likelihoods_network(
            layout, schedule, noise, syn
        ).argmax_class()

    def identity_chooser(syn):
        return PauliString.from_text("I")

    ml = exhaustive_failure_rate(six_code, noise, ml_chooser)
    naive = exhaustive_failure_rate(six_code, noise, identity_chooser)
    assert 0.0 < ml <= naive + 1e-12


def test_failure_rate_wrong_chooser_fails_often(six_code):
    noise = NoiseModel.depolarizing(6, 0.01)

    def wrong(syn):
        return PauliString.from_text("X")

    # at tiny p almost everything is in the identity class, so always
    # answering X is almost always a logical error
    assert exhaustive_failure_rate(six_code, noise, wrong) > 0.9


def test_failure_rate_caps():
    # an oversized stand-in: the operator constructor skips validation, so
    # identities can stand in for its pure errors
    stabs = ["Z" * 9] + ["I" * i + "ZZ" + "I" * (7 - i) for i in range(7)]
    big = StabilizerCode.of(
        9,
        1,
        tuple(PauliString.from_text(s) for s in stabs),
        (PauliString.from_text("X" * 9),),
        (PauliString.from_text("ZIIIIIIII"),),
        (PauliString.identity(9),) * 8,
    )
    noise = NoiseModel.depolarizing(9, 0.1)
    with pytest.raises(ValueError):
        exhaustive_failure_rate(big, noise, lambda s: PauliString.from_text("I"))


def test_chooser_called_once_per_syndrome(six_code):
    noise = NoiseModel.depolarizing(6, 0.1)
    calls = []

    def chooser(syn):
        calls.append(syn.bits)
        return PauliString.from_text("I")

    exhaustive_failure_rate(six_code, noise, chooser)
    assert sorted(calls) == list(range(32))


@pytest.mark.parametrize("qubits", [4, 9])
def test_noise_model_size_is_checked(six_code, qubits):
    # the reference must not read only the first six rows of a larger
    # model, nor index past the rows of a smaller one
    noise = NoiseModel.depolarizing(qubits, 0.1)
    with pytest.raises(ValueError, match=f"noise model has {qubits} qubits"):
        ExhaustiveDecoder(six_code).likelihoods(noise, Syndrome(5, 3))
    with pytest.raises(ValueError, match=f"noise model has {qubits} qubits"):
        exhaustive_failure_rate(six_code, noise, lambda s: PauliString.from_text("I"))


def test_chooser_label_size_is_checked(six_code):
    # a 2-qubit label on a k = 1 code must not be read as some 1-qubit class
    noise = NoiseModel.depolarizing(6, 0.1)
    with pytest.raises(ValueError, match="2-qubit label; k = 1"):
        exhaustive_failure_rate(six_code, noise, lambda s: PauliString.from_text("XI"))


def test_oracle_reads_no_packed_query(monkeypatch, holo):
    # the reference takes syndromes and pure errors from the operator
    # tuples, so it shares no parity kernel with the network and harness
    layout, schedule = holo[1]
    code = layout.code
    noise = NoiseModel.depolarizing(6, 0.12)
    syndromes = [Syndrome(5, bits) for bits in range(32)]
    network = [likelihoods_network(layout, schedule, noise, syn) for syn in syndromes]
    chosen = {syn.bits: table.argmax_class() for syn, table in zip(syndromes, network)}
    ml = exhaustive_failure_rate(code, noise, lambda syn: chosen[syn.bits])

    def refuse(*args):
        raise AssertionError("the oracle called a packed query")

    for name in ("syndromes", "pure_error_rows", "class_bits"):
        monkeypatch.setattr(StabilizerCode, name, refuse)
    oracle = ExhaustiveDecoder(code)
    for syn, want in zip(syndromes, network):
        got = oracle.likelihoods(noise, syn)
        for label in got.labels:
            assert got.absolute(label) == pytest.approx(want.absolute(label), rel=1e-12)
    assert exhaustive_failure_rate(code, noise, lambda syn: chosen[syn.bits]) == ml
    assert 0.0 < ml < 1.0
