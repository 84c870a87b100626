"""Shared fixtures: built-in codes and cached holographic layouts, the
one-operator pure error and the group comparison that reference checks
read, the working memory of a schedule's first decode, and the Monte Carlo
chunks it learns."""

import tracemalloc

import numpy as np
import pytest

from tenqec import (
    CodeTensor,
    NoiseModel,
    build_layout,
    chain_layout,
    schedule_for,
    six_qubit_code,
    seven_qubit_state,
)
from tenqec.decoder import likelihoods_network
from tenqec.harness import chunk_size
from tenqec.pauli import unpack
from tenqec.stabilizer import gf2_row_space


def pure_error(code, syndrome):
    """The syndrome's pure error as one operator, from the code's packed
    pure-error rows."""
    return unpack(*code.pure_error_rows(syndrome.bit_array()[None]), code.n)[0]


def spans_same_group(a, b):
    """True iff two generator lists generate the same phase-free group:
    equal GF(2) row spaces of the operators' symplectic rows z | x << n."""
    def space(ops):
        return gf2_row_space(op.z | op.x << op.n for op in ops)
    return space(a) == space(b)


def first_call_memory(layout, noise, leaves=None, *, errors=None):
    """The ``tracemalloc`` peak of a ``leaves=`` or ``errors=`` decode on a
    fresh schedule, and the bytes of the buffer layout it learns.

    A schedule keeps its working memory in a buffer that ``tracemalloc``
    does not see, so only its first call, which allocates every array
    afresh, shows the peak; the layout it learns holds that call's most
    bytes live at once, and every later call works in it.
    """
    schedule = schedule_for(layout)
    tracemalloc.start()
    try:
        likelihoods_network(layout, schedule, noise, leaves=leaves, errors=errors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    batch = len(errors[0]) if leaves is None else 1 if leaves.ndim == 2 else len(leaves)
    (work,) = schedule.workspaces
    return peak, max(8 * batch * total for _, _, total in work.layouts.values())


def learned_chunk(layout, schedule):
    """Trials per Monte Carlo chunk on ``schedule``, after one ``errors=``
    decode of an identity row, which teaches a fresh schedule its layout."""
    identity = np.zeros((1, (layout.n + 63) // 64), dtype=np.uint64)
    likelihoods_network(layout, schedule, NoiseModel.depolarizing(layout.n, 0.18),
                        errors=(identity, identity))
    return chunk_size(schedule)


@pytest.fixture(scope="session")
def six_code():
    return six_qubit_code()


@pytest.fixture(scope="session")
def six_tensor(six_code):
    return CodeTensor.from_code(six_code)


@pytest.fixture(scope="session")
def block_tensor():
    return CodeTensor.from_code(seven_qubit_state())


@pytest.fixture(scope="session")
def holo():
    """Layouts and schedules for radii 1 through 4, built once."""
    out = {}
    for r in (1, 2, 3, 4):
        layout = build_layout(r)
        out[r] = (layout, schedule_for(layout))
    return out


@pytest.fixture(scope="session")
def holo5_topology():
    """Radius-5 layout without its stabilizer code (topology only)."""
    layout = build_layout(5, with_code=False)
    return layout, schedule_for(layout)


@pytest.fixture(scope="session")
def three_block_chain():
    """Two alike branches, with nodes that have both children and leaf legs."""
    layout = chain_layout([(0, 5, 0), (0, 2, 0), (1, 3, 1), (2, 3, 1)])
    return layout, schedule_for(layout)
