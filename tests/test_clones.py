import pytest

from sheffer.bitfunc import TruthTable
from sheffer.classify import classify
from sheffer.clones import membership

#: Dedekind numbers: the monotone functions of N inputs (OEIS A000372).
DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168}
#: Gates universal with constants: the paper's 2 + 4 at N=2 and 56 + 169 at N=3.
WITH_CONSTANTS = {1: 0, 2: 6, 3: 225, 4: 65342}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_membership_matches_scalar_classify(n):
    # Arities 2..4 are also checked through the census rows.
    columns = membership(n)
    for code in range(1 << (1 << n)):
        flags = classify(TruthTable(n, code))
        assert {name: bool(column[code]) for name, column in columns.items()} == {
            name: getattr(flags, name) for name in columns
        }, code


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_membership_counts(n):
    columns = membership(n)
    gates = 1 << (1 << n)
    assert all(len(column) == gates for column in columns.values())
    assert columns["monotone"].sum() == DEDEKIND[n]
    assert columns["affine"].sum() == 1 << (n + 1)
    # Only the two constants and the n projections are monotone and affine.
    assert columns["universal_with_constants"].sum() == WITH_CONSTANTS[n] == (
        gates - DEDEKIND[n] - (1 << (n + 1)) + n + 2
    )


@pytest.mark.parametrize("n", [0, 5, -1, 2.0, True, "3"])
def test_membership_rejects_unsupported_arity(n):
    with pytest.raises(ValueError):
        membership(n)
