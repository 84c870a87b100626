"""Shared fixtures: built-in codes and cached holographic layouts, the
one-operator pure error that reference checks read, and the working memory
of a schedule's first decode."""

import tracemalloc

import pytest

from tenqec import (
    CodeTensor,
    build_layout,
    chain_layout,
    schedule_for,
    six_qubit_code,
    seven_qubit_state,
)
from tenqec.decoder import likelihoods_network
from tenqec.pauli import unpack


def pure_error(code, syndrome):
    """The syndrome's pure error as one operator, from the code's packed
    pure-error rows."""
    return unpack(*code.pure_error_rows(syndrome.bit_array()[None]), code.n)[0]


def first_call_memory(layout, noise, leaves):
    """The ``tracemalloc`` peak of a ``leaves=`` decode on a fresh schedule,
    and the bytes of the buffer layout it learns.

    A schedule keeps its working memory in a buffer that ``tracemalloc``
    does not see, so only its first call, which allocates every array
    afresh, shows the peak; the layout it learns holds that call's most
    bytes live at once, and every later call works in it.
    """
    schedule = schedule_for(layout)
    tracemalloc.start()
    try:
        likelihoods_network(layout, schedule, noise, leaves=leaves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    batch = 1 if leaves.ndim == 2 else len(leaves)
    (work,) = schedule.workspaces
    return peak, max(8 * batch * total for _, _, total in work.layouts.values())


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
