"""The packed layout assembler against its reference, a fold of contract."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tenqec import (
    CodeTensor,
    LegBinding,
    StabilizerCode,
    build_layout,
    chain_layout,
    code_to_json_dict,
    contract,
    decoder,
    harness,
    holographic,
    pauli,
    seven_qubit_state,
    six_qubit_code,
    tensor,
)

# sha256 of json.dumps(code_to_json_dict(build_layout(r).code)), measured on
# the contraction-fold assembler that the packed one replaced.
CODE_DIGESTS = {
    1: "5919a91fd1fa24f1652f049f9999692c83e3f43607981e5fb24f3a4e394d7b3e",
    2: "efcae02ae23837922a28aad89ac8ea881ca8ec1b13d8d39e65b60d45e6a1e8c6",
    3: "5ab3328c16f61717c53a666689296bc7e84f1efc37f3c3e84a95b035e1ecbac5",
    4: "e0fa144b1107d1cd4451aa733282b8202fd56ba522309adda33213fd802f8e57",
}
# sha256 over the packed bytes, x then z, of the stabilizers, pure errors,
# logical X and logical Z of build_layout(5).code, measured on the
# one-node-at-a-time packed assembler that the per-layer one replaced.
RADIUS_FIVE_DIGEST = "04cd7e9588c7df5f2dbbd2539e49d59ea25241f28b09e0308ec8c5c4a85c0dc2"
CHAINS = ([(0, 5, 0)], [(0, 5, 0), (1, 6, 0)])


def contract_fold(attached):
    """Contract one block per node onto the seed, in order, with contract.

    Returns the code in contraction order and the (node, leg) slot of each
    of its qubits.
    """
    block = CodeTensor(seven_qubit_state())
    acc = CodeTensor(six_qubit_code())
    slots = [("c", leg) for leg in range(6)]
    for node in attached:
        left = tuple(leg for leg, _, _ in node.in_links)
        right = tuple(slots.index((parent, leg)) for _, parent, leg in node.in_links)
        acc = contract(block, acc, LegBinding(left, right))
        fresh = [(node.name, leg) for leg in range(7) if leg not in left]
        slots = fresh + [slot for i, slot in enumerate(slots) if i not in right]
    return acc.code, slots


def restricted(code, order):
    """``code`` with every operator restricted to ``order``, one at a time."""
    move = lambda ops: tuple(op.restrict(order) for op in ops)
    return StabilizerCode.of(code.n, code.k, move(code.stabilizers), move(code.logical_x),
                             move(code.logical_z), move(code.pure_errors))


def digest(code):
    return hashlib.sha256(json.dumps(code_to_json_dict(code)).encode()).hexdigest()


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_layout_code_equals_contract_fold(radius):
    layout = build_layout(radius)
    attached = [layout.nodes[name] for ring in layout.rings[1:] for name in ring]
    code, slots = contract_fold(attached)
    want = restricted(code, [slots.index(slot) for slot in layout.boundary])
    assert layout.code == want


@pytest.mark.parametrize("links", CHAINS)
def test_chain_code_equals_contract_fold(links):
    chain = chain_layout(links)
    code, slots = contract_fold([chain.nodes[name] for name in chain.rings[0][1:]])
    assert chain.code == code
    assert list(chain.boundary) == slots


def test_pinned_code_digests(holo):
    for radius, want in CODE_DIGESTS.items():
        assert digest(holo[radius][0].code) == want, radius


def symplectic_parities(x, z, ox, oz):
    """Parity of the symplectic product of packed rows (x, z) with one row."""
    counts = np.bitwise_count(x & oz) + np.bitwise_count(z & ox)
    return counts.sum(axis=1) & 1


@pytest.fixture(scope="module")
def radius_five_code():
    return build_layout(5).code


def test_radius_five_code_digest(radius_five_code):
    # the stored rows are the stabilizers, pure errors, logical X and logical
    # Z in order, so each group's x then z bytes are its rows' slices
    code = radius_five_code
    m = code.n - code.k
    h = hashlib.sha256()
    for rows in (slice(0, m), slice(m, 2 * m), slice(2 * m, 2 * m + code.k),
                 slice(2 * m + code.k, None)):
        for bits in (code.x[rows], code.z[rows]):
            h.update(bits.tobytes())
    assert h.hexdigest() == RADIUS_FIVE_DIGEST
    assert code._groups is None  # no operator was built


def test_radius_five_code(radius_five_code):
    code = radius_five_code
    assert (code.n, code.k) == (3996, 1)
    assert code.x.shape == code.z.shape == (2 * 3996, 63)
    sx, sz, ex, ez = code.x[:3995], code.z[:3995], code.x[3995:7990], code.z[3995:7990]
    # rows 0 and 1: logical X and logical Z
    ax, az = code.x[7990:], code.z[7990:]
    sample = np.random.default_rng(5).choice(3995, size=64, replace=False)
    for i in sample:
        anti = symplectic_parities(sx, sz, ex[i], ez[i])
        assert np.flatnonzero(anti).tolist() == [i]
    for row in (0, 1):
        assert not symplectic_parities(sx[sample], sz[sample], ax[row], az[row]).any()
    assert symplectic_parities(ax[:1], az[:1], ax[1], az[1]).tolist() == [1]


def test_builds_and_trials_make_no_per_row_operators(monkeypatch, holo):
    """Only the seed and the block kinds, alike at every radius, build
    PauliStrings; the tableau, the boundary gather and a chunk of trials
    stay on packed words."""
    made = []
    init = pauli.PauliString.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pauli.PauliString, "__init__", counted)
    counts = []
    for radius in (3, 4):
        made.clear()
        build_layout(radius)
        counts.append(len(made))
    assert counts[0] == counts[1] > 0
    layout, schedule = holo[4]
    made.clear()
    runner = harness.TrialRunner(layout, schedule,
                                 decoder.NoiseModel.depolarizing(layout.n, 0.15))
    runner.run_trial(7, 0, range(runner.chunk))
    assert made == []


def test_topology_only_builds_no_tensors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("topology-only build touched code tensors")

    monkeypatch.setattr(tensor.CodeTensor, "from_code", refuse)
    monkeypatch.setattr(StabilizerCode, "canonicalized_on", refuse)
    assert build_layout(4, with_code=False).n == 834


def test_benchmark_entry_points_resolve(monkeypatch):
    """Every name the traced benchmark wraps is still bound."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    names = [(owner, attr) for _, owner, attr, _ in spans.ENTRY_POINTS]
    names += [(pauli.PauliString, attr) for attr in spans.COUNTED]
    names += [(owner, "likelihoods_network") for owner in (decoder, harness)]
    names += [(tensor.CodeTensor, "from_code"), (tensor, "contract")]
    for owner, attr in names:
        spans._lookup(owner, attr)  # raises TraceError when the name is gone
    assert holographic.contract is tensor.contract
    # the trace patches the harness's own binding of the network decoder
    assert harness.likelihoods_network is decoder.likelihoods_network
    # one schedule derivation serves rings and chains
    chain = chain_layout([(0, 5, 0)])
    assert len(holographic.schedule_for(chain).steps) == len(chain.nodes)
    # code-build passes a seed to self_check, and the trace needs it to
    # classify through StabilizerCode.logical_class
    calls = []
    classify = StabilizerCode.logical_class

    def counted(code, op):
        calls.append(op)
        return classify(code, op)

    monkeypatch.setattr(StabilizerCode, "logical_class", counted)
    assert CodeTensor.from_code(six_qubit_code()).self_check(seed=5).passed
    assert calls
