"""The network decoder against a dense contraction at bond dimension > 1.

The exhaustive oracle enumerates only radius 1 and the chains, whose bonds
are all 1, so corner folding, deferred legs, the split tries and the
seed's ring closure are otherwise checked only against themselves.  The
reference here builds every node's dense 0/1 tensor from the oracle's
class digit tables, absorbs each leaf vector with ``np.tensordot`` and
contracts the layout graph greedily, always the connected pair with the
smallest result.  It reads only the layout graph (``LayoutNode.in_links``,
``children`` and the boundary) and shares no code with ``schedule_for``,
the split plans or the executor.  Every absorbed or merged tensor is
divided by its largest entry, the logs pooled, so no likelihood
underflows.  Since it reads any layout, generated chains of blocks are
checked against it too, and against the oracle where it enumerates.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import pure_error
from tenqec import (
    ExhaustiveDecoder,
    NoiseModel,
    PauliString,
    Syndrome,
    chain_layout,
    likelihoods_network,
    schedule_for,
    seven_qubit_state,
    six_qubit_code,
)
from tenqec.decoder import _packed_leaf_probabilities, argmax_labels
from tenqec.harness import TrialRunner
from tenqec.holographic import BLOCK_LEGS, CENTER_LEGS
from tenqec.oracle import _class_digit_tables
from tenqec.pauli import pack


def _dense(code, labels=None):
    """A code's (classes,) + (4,) * n indicator tensor, classes in
    ``labels`` order (all of them, in table order, by default)."""
    tables = _class_digit_tables(code)
    keys = list(tables) if labels is None else labels
    out = np.zeros((len(keys),) + (4,) * code.n)
    for i, label in enumerate(keys):
        out[(i, *tables[label].T)] = 1.0
    return out


def _scaled(tensor):
    scale = tensor.max()
    return (tensor / scale, np.log(scale)) if scale > 0 else (tensor, 0.0)


def dense_likelihoods(layout, leaves, labels):
    """The layout's class likelihoods as (mantissas, log scale) over
    ``labels``, by dense contraction.  An axis is named by the bond it
    carries, (child, child's leg), or is the seed's "label" axis."""
    seed = _dense(six_qubit_code(), labels)
    (block,) = _dense(seven_qubit_state())
    qubit_of = {slot: q for q, slot in enumerate(layout.boundary)}
    tensors, log_scale = {}, 0.0
    for name, node in layout.nodes.items():
        axes = {own: (name, own) for own, _, _ in node.in_links}
        axes.update({own: (child, leg) for own, child, leg in node.children})
        t = seed if node.kind == "center" else block
        names = ["label"] * (t.ndim - node.n_legs) + [
            axes.get(leg, leg) for leg in range(node.n_legs)]
        for leg in node.leaf_legs:
            at = names.index(leg)
            t = np.tensordot(t, leaves[qubit_of[name, leg]], axes=([at], [0]))
            del names[at]
        t, log = _scaled(t)
        tensors[name] = (t, names)
        log_scale += log
    while len(tensors) > 1:
        holders = {}
        for key, (_, names) in tensors.items():
            for bond in names:
                holders.setdefault(bond, []).append(key)
        pairs = {tuple(keys) for keys in holders.values() if len(keys) == 2}
        # the pair with the fewest axes left, ties by name
        _, i, j = min((len(set(tensors[i][1]) ^ set(tensors[j][1])), i, j)
                      for i, j in pairs)
        (a, a_names), (b, b_names) = tensors[i], tensors.pop(j)
        shared = [bond for bond in a_names if bond in b_names]
        merged = np.tensordot(a, b, axes=([a_names.index(e) for e in shared],
                                          [b_names.index(e) for e in shared]))
        merged, log = _scaled(merged)
        tensors[i] = (merged, [e for e in a_names + b_names if e not in shared])
        log_scale += log
    ((mantissas, names),) = tensors.values()
    assert names == ["label"]
    return mantissas, log_scale


def _leaf_table(code, noise, syndrome):
    """leaf[q, g] = probs[q, code of E_q * g] for the syndrome's pure error E."""
    codes = np.array(pure_error(code, syndrome).codes())
    return noise.probs[np.arange(code.n)[:, None], codes[:, None] ^ np.arange(4)]


def test_dense_reference_matches_the_oracle(holo):
    # the reference itself, on the one layout the oracle enumerates
    layout, schedule = holo[1]
    noise = NoiseModel.depolarizing(layout.n, 0.18)
    oracle = ExhaustiveDecoder(layout.code)
    for bits in (0, 7, 22):
        syndrome = Syndrome(5, bits)
        leaves = _leaf_table(layout.code, noise, syndrome)
        mantissas, log_scale = dense_likelihoods(layout, leaves, schedule.labels)
        want = oracle.likelihoods(noise, syndrome)
        np.testing.assert_allclose(mantissas * np.exp(log_scale),
                                   [want.absolute(label) for label in schedule.labels],
                                   rtol=1e-12)


@pytest.mark.parametrize("radius", [2, 3, 4])
@pytest.mark.parametrize("p", [0.05, 0.18, 0.3])
def test_network_matches_dense_reference(holo, radius, p):
    # at p = 0.05 a radius-4 likelihood is far below the smallest float,
    # so both sides compare rescaled mantissas
    layout, schedule = holo[radius]
    code = layout.code
    m = len(code.stabilizers)
    noise = NoiseModel.depolarizing(layout.n, p)
    rng = np.random.default_rng([radius, round(100 * p)])
    for _ in range(3):
        bits = int("".join(map(str, rng.integers(0, 2, m))), 2)
        leaves = _leaf_table(code, noise, Syndrome(m, bits))
        table = likelihoods_network(layout, schedule, noise, leaves=leaves)
        mantissas, log_scale = dense_likelihoods(layout, leaves, schedule.labels)
        np.testing.assert_allclose(mantissas * np.exp(log_scale - table.log_scale),
                                   table.mantissas, rtol=1e-10, atol=0)
        # the outer ring read from node tables
        rows = likelihoods_network(layout, schedule, noise,
                                   errors=code.pure_error_rows(Syndrome(m, bits).bit_array()[None]))
        np.testing.assert_allclose(mantissas * np.exp(log_scale - rows.log_scales[0]),
                                   rows.mantissas[0], rtol=1e-10, atol=0)


@st.composite
def chains(draw):
    """Valid ``chain_layout`` links of 0-4 blocks, each block on a free leg
    of the seed or of an earlier block, by any of its own legs; and a seed
    for the example's noise rows, leaf tables and errors."""
    free = [list(range(CENTER_LEGS))]
    links = []
    for _ in range(draw(st.integers(0, 4))):
        parent = draw(st.integers(0, len(free) - 1))
        leg = draw(st.sampled_from(tuple(free[parent])))
        own = draw(st.integers(0, BLOCK_LEGS - 1))
        free[parent].remove(leg)
        free.append([other for other in range(BLOCK_LEGS) if other != own])
        links.append((parent, leg, own))
    return links, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(chains())
def test_generated_chains_match_dense_reference(chain):
    # every bond is 1, but the schedule's grouping keys, split plans and
    # routes vary with the links, and the seed closes its ring with no
    # child, with one (no prefix) or with several, beside its leaf legs
    links, seed = chain
    layout = chain_layout(links)
    schedule = schedule_for(layout)
    code, n, batch = layout.code, layout.n, 3
    rng = np.random.default_rng(seed)
    noise = NoiseModel(rng.dirichlet(np.ones(4), size=n))
    leaves = rng.uniform(0.0, 1.0, size=(batch, n, 4))
    errors = [PauliString.from_codes(codes.tolist())
              for codes in rng.integers(0, 4, size=(batch, n))]
    ex, ez = pack(errors, n)
    by_leaves = likelihoods_network(layout, schedule, noise, leaves=leaves)
    by_errors = likelihoods_network(layout, schedule, noise, errors=(ex, ez))
    for weights, out in ((leaves, by_leaves),
                         (_packed_leaf_probabilities(noise, ex, ez), by_errors)):
        for b in range(batch):
            mantissas, log_scale = dense_likelihoods(layout, weights[b], schedule.labels)
            np.testing.assert_allclose(mantissas * np.exp(log_scale - out.log_scales[b]),
                                       out.mantissas[b], rtol=1e-10, atol=0)
    # batched rows are bit for bit their one-row calls
    for b in range(batch):
        one = likelihoods_network(layout, schedule, noise, leaves=leaves[b])
        row = likelihoods_network(layout, schedule, noise, errors=(ex[b : b + 1], ez[b : b + 1]))
        assert np.array_equal(by_leaves.mantissas[b], one.mantissas)
        assert by_leaves.log_scales[b] == one.log_scale
        assert np.array_equal(by_errors.mantissas[b], row.mantissas[0])
        assert by_errors.log_scales[b] == row.log_scales[0]
    # the Monte Carlo runner's own-error decode, in canonical label order,
    # decides as the decode of each syndrome's pure error (its constructor
    # checks that every pure error has class bits 0)
    runner = TrialRunner(layout, schedule, noise)
    canonical, _ = runner.canonical(ex, ez)
    pure = likelihoods_network(layout, schedule, noise,
                               errors=code.pure_error_rows(code.syndromes(ex, ez)))
    np.testing.assert_allclose(canonical, pure.mantissas, rtol=1e-12, atol=0)
    assert np.array_equal(argmax_labels(canonical), argmax_labels(pure.mantissas))
    if n - code.k <= 16:
        syndrome = code.syndrome(errors[0])
        table = likelihoods_network(layout, schedule, noise, syndrome)
        want = ExhaustiveDecoder(code).likelihoods(noise, syndrome)
        np.testing.assert_allclose(
            [table.absolute(label) for label in table.labels],
            [want.absolute(label) for label in table.labels], rtol=1e-10, atol=0)
