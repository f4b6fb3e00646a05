"""Multiplicities against their definition, apart from the trace formula.

d_p(N) is the dimension of the Gamma-invariant p-forms in the eigenspace of
4 pi^2 N.  ``oracles.invariant_forms_row`` counts them by exact rank over
Q(i), orbit by orbit of the shell, and so checks what every other oracle
shares with the engine: the formula d_p = (1/|F|) sum tr_p(B) e(gamma, N),
the sign of its phase and the wedge action on Lambda^p.
"""

import pytest
from oracles import catalog_names, invariant_forms_row

from flatspec.families import catalog, kn_family
from flatspec.spectra import multiplicity_row


def _top(dim: int) -> int:
    return 8 if dim <= 4 else 4 if dim <= 6 else 2


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_rows_are_the_invariant_forms(name):
    # N <= 8 in dim <= 4, N <= 4 in dims 5-6, N <= 2 in dim 7; N = 0 is the
    # Betti numbers
    group = catalog(name)
    norms = tuple(range(_top(group.dim) + 1))
    (rows,) = multiplicity_row((group,), norms)
    assert tuple(invariant_forms_row(group, norm_sq) for norm_sq in norms) == rows


def test_k5_rows_are_the_invariant_forms():
    groups = tuple(kn_family(5))
    norms = (0, 1, 2, 3)
    for group, rows in zip(groups, multiplicity_row(groups, norms)):
        assert tuple(invariant_forms_row(group, norm_sq) for norm_sq in norms) == rows, group.label()


def test_the_phase_decides_rows_and_its_conjugate_does_not():
    # without the phase chi_v(s) = i^(-v.q_s) the oracle counts the forms
    # fixed by the linear parts alone, which breaks rows of every group of
    # dim <= 5 here; with it conjugated nothing moves, Lambda^p(B) being real
    groups = [catalog(name) for name in catalog_names()]
    groups = [group for group in groups if group.dim <= 5]
    norms = (0, 1, 2, 3)
    dropped = 0
    for group, rows in zip(groups, multiplicity_row(tuple(groups), norms)):
        assert tuple(invariant_forms_row(group, norm_sq, phase=-1) for norm_sq in norms) == rows
        unphased = [invariant_forms_row(group, norm_sq, phase=0) for norm_sq in norms]
        assert unphased[0] == rows[0], group.label()  # v = 0 carries no phase
        dropped += any(mine != row for mine, row in zip(unphased, rows))
    assert len(groups) == dropped == 14
