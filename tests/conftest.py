import pytest

from sheffer.census import enumerate_all


@pytest.fixture(scope="session")
def census3():
    """The 3-input census, shared by the acceptance and rendering tests."""
    return enumerate_all(3)
