import pytest

from sheffer.bitfunc import TruthTable
from sheffer.census import enumerate_all
from sheffer.closure import generate_closure

WITNESS_GATES_N3 = ["01", "07", "2B", "46", "68", "85", "96", "A8",
                    "E8", "E9", "F8", "FF"]


@pytest.fixture(scope="session")
def census3():
    """The 3-input census, shared by the acceptance and rendering tests."""
    return enumerate_all(3)


@pytest.fixture(scope="session")
def reports2():
    """Full witness closures of every 2-input gate, keyed (code, constants)."""
    out = {}
    for code in range(16):
        tt = TruthTable(2, code)
        for constants in (False, True):
            out[(code, constants)] = generate_closure(tt, constants)
    return out


@pytest.fixture(scope="session")
def witness_reports():
    """Full witness closures of the `WITNESS_GATES_N3` gates, keyed (code, constants)."""
    out = {}
    for text in WITNESS_GATES_N3:
        tt = TruthTable.from_hex(text, 3)
        for constants in (False, True):
            out[(tt.code, constants)] = generate_closure(tt, constants)
    return out
