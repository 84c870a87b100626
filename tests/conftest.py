"""Shared fixtures: built-in codes and cached holographic layouts, and the
one-operator pure error that reference checks read."""

import pytest

from tenqec import (
    CodeTensor,
    build_layout,
    chain_layout,
    schedule_for,
    six_qubit_code,
    seven_qubit_state,
)
from tenqec.pauli import unpack


def pure_error(code, syndrome):
    """The syndrome's pure error as one operator, from the code's packed
    pure-error rows."""
    return unpack(*code.pure_error_rows(syndrome.bit_array()[None]), code.n)[0]


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
