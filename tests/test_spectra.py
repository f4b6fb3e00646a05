"""Spectral engine: Krawtchouk traces, character sums, multiplicities."""

import importlib
import inspect
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import trace_p_oracle, z2_betti_closed_form, z2_closed_forms

from flatspec import lattice
from flatspec.arith import binomial
from flatspec.bieberbach import IsometryElement, SignedPermutation, is_orientable
from flatspec.families import catalog, hw_groups, kn_family, torus, z2_group, z2_parameters
from flatspec.lattice import ShellCapExceeded, shell_count, shell_vectors
from flatspec.spectra import (
    MultiplicityRow,
    betti_numbers,
    character_sum,
    compare_spectra,
    exterior_trace_coeffs,
    krawtchouk,
    krawtchouk_table,
    multiplicity_row,
    theorem_check,
)

# frozen from the published integer tables
KRAWTCHOUK_N3 = (
    (1, 1, 1, 1),
    (3, 1, -1, -3),
    (3, -1, -1, 3),
    (1, -1, 1, -1),
)
KRAWTCHOUK_N4 = (
    (1, 1, 1, 1, 1),
    (4, 2, 0, -2, -4),
    (6, 0, -2, 0, 6),
    (4, -2, 0, 2, -4),
    (1, -1, 1, -1, 1),
)


def test_krawtchouk_tables_match_published_values():
    assert krawtchouk_table(3) == KRAWTCHOUK_N3
    assert krawtchouk_table(4) == KRAWTCHOUK_N4


def test_krawtchouk_spot_values():
    assert krawtchouk(3, 2, 1) == -1
    assert krawtchouk(4, 1, 2) == 0
    for n in (1, 4, 7):
        for x in range(n + 1):
            assert krawtchouk(n, 0, x) == 1


def test_krawtchouk_range_errors():
    with pytest.raises(ValueError):
        krawtchouk(3, 4, 0)
    with pytest.raises(ValueError):
        krawtchouk(3, -1, 0)
    with pytest.raises(ValueError):
        krawtchouk(3, 1, 4)


@pytest.mark.parametrize("n", range(1, 17))
def test_krawtchouk_vanishing_sums(n):
    for j in range(1, n + 1):
        assert sum(krawtchouk(n, p, j) for p in range(n + 1)) == 0
    assert sum(krawtchouk(n, p, 0) for p in range(n + 1)) == 2**n


@pytest.mark.parametrize("n", range(2, 17))
def test_krawtchouk_parity_split_sums(n):
    for j in range(1, n):
        assert sum(krawtchouk(n, p, j) for p in range(0, n + 1, 2)) == 0
        assert sum(krawtchouk(n, p, j) for p in range(1, n + 1, 2)) == 0


# traces ---------------------------------------------------------------------


def test_trace_examples():
    swap_block = SignedPermutation((1, 0, 2), (1, 1, 1))  # diag(J, 1)
    assert exterior_trace_coeffs(swap_block)[1] == 1 == krawtchouk(3, 1, 1)
    for n in (2, 5):
        assert exterior_trace_coeffs(SignedPermutation.identity(n)) == tuple(
            binomial(n, p) for p in range(n + 1)
        )


def test_trace_of_order_four_block_matrix():
    # quarter-turn block plus diag(1,-1,-1,1); the trace on 2-forms is -1
    # (frozen from the wedge-basis oracle), while the dimension of its fixed
    # 2-forms is 3: the two quantities differ for order-4 elements.
    b = catalog("dim6/z4_Mp").holonomy[1].linear
    assert trace_p_oracle(b, 2) == -1
    assert exterior_trace_coeffs(b)[2] == -1
    assert betti_numbers(catalog("dim6/z4_Mp"))[2] == 3


def test_trace_oracle_examples():
    assert trace_p_oracle(SignedPermutation.identity(4), 2) == 6
    assert trace_p_oracle(SignedPermutation.diagonal((-1, -1, 1)), 2) == krawtchouk(3, 2, 2)
    mixed = SignedPermutation((1, 0, 2, 3), (1, 1, -1, 1))  # diag(J, -1, 1)
    assert trace_p_oracle(mixed, 2) == krawtchouk(4, 2, 2) == -2


def test_trace_errors():
    # det(Id + t*B) has degree n: one trace per degree 0..n
    assert len(exterior_trace_coeffs(SignedPermutation.identity(3))) == 4
    with pytest.raises(ValueError):
        trace_p_oracle(SignedPermutation.identity(3), -1)
    with pytest.raises(ValueError):
        trace_p_oracle(SignedPermutation.identity(13), 2)


@st.composite
def signed_permutations(draw, max_dim=8):
    n = draw(st.integers(1, max_dim))
    perm = tuple(draw(st.permutations(range(n))))
    signs = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
    return SignedPermutation(perm, signs)


@settings(deadline=None)
@given(signed_permutations())
def test_trace_agrees_with_wedge_oracle(b):
    assert exterior_trace_coeffs(b) == tuple(trace_p_oracle(b, p) for p in range(b.dim + 1))


@settings(deadline=None)
@given(signed_permutations())
def test_involution_traces_are_krawtchouk_values(b):
    if b.compose(b).is_identity():
        # the theta key has one pair per cycle of sign product +1
        x = b.dim - len(IsometryElement(b, (0,) * b.dim).theta_key())
        assert exterior_trace_coeffs(b) == tuple(krawtchouk(b.dim, p, x) for p in range(b.dim + 1))


# character sums ---------------------------------------------------------------


def test_character_sums_of_the_dimension_three_trio():
    expected = {
        "hw3/M1": ([-2, -2, -2], [0, 0, 0]),
        "hw3/M2": ([-2, 0, 0], [0, 0, 0]),
        "hw3/M3": ([-2, 0, -4], [0, 0, -8]),
    }
    for name, (at_one, at_five) in expected.items():
        group = catalog(name)
        assert [character_sum(group, e, 1) for e in group.holonomy[1:]] == at_one
        assert [character_sum(group, e, 5) for e in group.holonomy[1:]] == at_five


@pytest.mark.parametrize("n,j,h", [(3, 1, 0), (3, 0, 2), (4, 1, 1), (5, 0, 2), (6, 2, 1)])
def test_character_sum_closed_form_for_z2_generators(n, j, h):
    group = z2_group(n, j, h)
    length = n - 2 * j - h
    gamma = group.holonomy[1]
    assert character_sum(group, gamma, 1) == 2 * (length - 2)


def test_character_sum_requires_membership():
    group = catalog("hw3/M1")
    stranger = catalog("hw3/M2").holonomy[1]
    with pytest.raises(ValueError):
        character_sum(group, stranger, 1)


def test_character_sum_quarter_translation_is_real():
    # +v and -v contributions are conjugate, so the sum is one real integer
    group = catalog("dim6/z4_M")
    gamma = group.holonomy[1]
    assert type(character_sum(group, gamma, 1)) is int


def test_odd_c_folds_to_four_times_the_length():
    # [e1]L[1/4] in dimension 1: the m-th fixed vector weighs i^(-m), so the
    # odd m cancel and m = 2k leaves (-1)^k q^(4k^2), theta(-q^4); mapping
    # odd c to (1, 2) without the 4l fold would give -2 at N = 1
    element = IsometryElement(SignedPermutation.identity(1), (1,))
    assert element.theta_key() == ((4, 2),)
    assert [lattice.theta_counts(element.theta_key(), n) for n in (0, 1, 4, 16)] == [1, 0, -2, 2]


# multiplicities --------------------------------------------------------------


def test_d_p_examples():
    assert multiplicity_row(catalog("dim3/m10"), 1)[2] == 10
    assert multiplicity_row(torus(3), 1)[1] == 18
    assert multiplicity_row(catalog("hw3/M1"), 5)[1] == 18


def test_multiplicity_range_error():
    # a row holds d_0..d_n and nothing beyond
    assert len(multiplicity_row(torus(2), 1)) == 3


def test_aggregate_multiplicities():
    def row(name, norm_sq):
        return MultiplicityRow.from_group(catalog(name), norm_sq)

    for name in ("dim3/m10", "dim3/m02", "dim3/m01"):
        assert row(name, 1).d_f == 24
        assert row(name, 2).d_f == 48
    for name in ("dim4/m11", "dim4/m10", "dim4/m03", "dim4/m02", "dim4/m01"):
        assert row(name, 1).d_f == 64
        assert row(name, 2).d_f == 192
    hw = row("hw3/M1", 1)
    assert hw.d_e == hw.d_o == 6
    assert hw.d_f == 12


def test_full_dimension_three_tables():
    expected_one = {
        "dim3/m10": (2, 8, 10, 4),
        "dim3/m02": (2, 10, 10, 2),
        "dim3/m01": (3, 9, 9, 3),
    }
    expected_two = {
        "dim3/m10": (7, 19, 17, 5),
        "dim3/m02": (6, 18, 18, 6),
        "dim3/m01": (4, 16, 20, 8),
    }
    for name in expected_one:
        assert multiplicity_row(catalog(name), 1) == expected_one[name]
        assert multiplicity_row(catalog(name), 2) == expected_two[name]


def test_full_dimension_four_tables():
    expected_one = {
        "dim4/m11": (3, 16, 26, 16, 3),
        "dim4/m10": (4, 16, 24, 16, 4),
        "dim4/m03": (3, 18, 24, 14, 5),
        "dim4/m02": (4, 16, 24, 16, 4),
        "dim4/m01": (5, 18, 24, 14, 3),
    }
    expected_two = {
        "dim4/m11": (13, 48, 70, 48, 13),
        "dim4/m10": (11, 46, 72, 50, 13),
        "dim4/m03": (12, 48, 72, 48, 12),
        "dim4/m02": (10, 48, 76, 48, 10),
        "dim4/m01": (10, 44, 72, 52, 14),
    }
    for name in expected_one:
        assert multiplicity_row(catalog(name), 1) == expected_one[name]
        assert multiplicity_row(catalog(name), 2) == expected_two[name]


def test_hw_trio_tables():
    expected = {
        "hw3/M1": ((0, 6, 6, 0), (6, 18, 18, 6)),
        "hw3/M2": ((1, 5, 5, 1), (6, 18, 18, 6)),
        "hw3/M3": ((0, 4, 6, 2), (4, 16, 20, 8)),
    }
    for name, (at_one, at_five) in expected.items():
        assert multiplicity_row(catalog(name), 1) == at_one
        assert multiplicity_row(catalog(name), 5) == at_five


def test_multiplicity_row_dataclass():
    row = MultiplicityRow.from_group(catalog("hw3/M1"), 1)
    assert row.d == (0, 6, 6, 0)
    assert row.d_f == sum(row.d) == 12
    assert row.d_f == row.d_e + row.d_o
    assert row.to_json() == {
        "group": "hw3/M1",
        "N": 1,
        "d": [0, 6, 6, 0],
        "d_f": 12,
        "d_e": 6,
        "d_o": 6,
    }


@pytest.mark.parametrize("n", [2, 3, 5])
def test_torus_multiplicities_factor_through_binomials(n):
    t = torus(n)
    for norm_sq in (0, 1, 2, 4):
        size = shell_vectors(n, norm_sq).count
        assert multiplicity_row(t, norm_sq) == tuple(
            binomial(n, p) * size for p in range(n + 1)
        )


def test_hodge_duality_on_orientable_groups():
    for name in ("hw3/M1", "dim6/z4z2_M", "dim6/z4_Mp"):
        group = catalog(name)
        assert is_orientable(group)
        for norm_sq in range(6):
            row = multiplicity_row(group, norm_sq)
            assert row == row[::-1]


# Betti numbers ----------------------------------------------------------------


def test_betti_sequences_of_the_dimension_six_examples():
    assert betti_numbers(catalog("dim6/z4z2_M")) == (1, 2, 3, 4, 3, 2, 1)
    assert betti_numbers(catalog("dim6/z4z2_Mp")) == (1, 1, 1, 2, 1, 1, 1)
    assert betti_numbers(catalog("dim6/z4_M")) == (1, 2, 5, 8, 5, 2, 1)
    assert betti_numbers(catalog("dim6/z4_Mp")) == (1, 2, 3, 4, 3, 2, 1)


def test_hw_groups_are_rational_homology_spheres():
    for n in (3, 5):
        for group in hw_groups(n):
            b = betti_numbers(group)
            assert b[0] == b[n] == 1
            assert all(b[p] == 0 for p in range(1, n))


def test_z2_betti_closed_form_cross_check():
    for n in (3, 4, 5):
        for j, h in z2_parameters(n):
            group = z2_group(n, j, h)
            betti = betti_numbers(group)
            for p in range(n + 1):
                assert betti[p] == z2_betti_closed_form(j, h, n, p)


def test_z2_first_betti_number_is_free_rank():
    # H_1 = Z^(j+l) + torsion, so beta_1 must equal j + l
    for n in (3, 4, 6):
        for j, h in z2_parameters(n):
            length = n - 2 * j - h
            assert betti_numbers(z2_group(n, j, h))[1] == j + length


# theorem check ----------------------------------------------------------------


def test_theorem_check_examples():
    hw = theorem_check(catalog("hw3/M1"), 1)
    assert hw.rank == 2 and hw.ok
    assert hw.cases[1].d_f == 12 == 2 ** (3 - 2) * 6

    k4 = theorem_check(next(kn_family(4)), 1)
    assert k4.rank == 3 and k4.ok
    assert k4.cases[1].d_f == 16 == 2 * 8

    t = theorem_check(torus(3), 2)
    assert t.rank == 0 and t.ok
    assert t.cases[2].d_f == 2**3 * shell_vectors(3, 2).count


def test_theorem_check_rejects_non_elementary_holonomy():
    with pytest.raises(ValueError):
        theorem_check(catalog("dim6/z4_M"), 1)


def test_negative_nmax_is_rejected():
    # N <= -1 holds no case at all, so any verdict would be vacuous
    m1 = catalog("hw3/M1")
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        theorem_check(m1, -1)
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        compare_spectra(m1, catalog("dim3/m10"), "f", -1)
    assert len(theorem_check(m1, 0).cases) == 1
    assert compare_spectra(m1, catalog("hw3/M2"), "f", 0).equal


# comparison -------------------------------------------------------------------


def test_compare_hw_trio():
    m1, m2, m3 = (catalog(f"hw3/M{i}") for i in (1, 2, 3))
    assert compare_spectra(m1, m2, "f", 25).equal
    assert compare_spectra(m1, m2, "e", 25).equal
    assert compare_spectra(m1, m2, "o", 25).equal
    verdict = compare_spectra(m1, m2, 0, 1)
    assert verdict.first_difference == (1, 0, 1)
    # first distinguishing eigenvalue on 2-forms for M1 vs M3, frozen from
    # the engine scan (the published tables only show N = 1 and N = 5)
    verdict = compare_spectra(m1, m3, 2, 25)
    assert verdict.first_difference == (4, 3, 2)
    assert compare_spectra(m1, m3, "functions", 25).first_difference == (4, 3, 4)


def test_compare_dimension_six_pairs():
    m = catalog("dim6/z4z2_M")
    mp = catalog("dim6/z4z2_Mp")
    assert compare_spectra(m, mp, 0, 25).equal
    verdict = compare_spectra(m, mp, "f", 0)
    assert verdict.first_difference == (0, 16, 8)
    assert not compare_spectra(m, mp, "e", 0).equal
    assert not compare_spectra(m, mp, "o", 0).equal


def test_every_cap_check_gives_the_shell_message(monkeypatch):
    m1, m2 = catalog("hw3/M1"), catalog("hw3/M2")
    # the two spectra agree in mode f up to N = 4, so the scan reaches N = 5
    calls = (
        lambda: shell_vectors(3, 5),
        lambda: shell_count(3, 5),
        lambda: character_sum(m1, m1.holonomy[1], 5),
        lambda: compare_spectra(m1, m2, "f", 5),
        lambda: theorem_check(m1, 5),
    )
    monkeypatch.setattr(lattice, "SHELL_CAP", 4)
    for call in calls:
        with pytest.raises(ShellCapExceeded) as err:
            call()
        assert str(err.value) == "squared norm 5 exceeds the shell cap 4"
    monkeypatch.setattr(lattice, "SHELL_CAP", 5)
    for call in calls:
        call()
    with pytest.raises(ValueError):
        character_sum(m1, m1.holonomy[1], -1)


def _functions(module):
    """Every function a module defines, its classes' methods included."""
    for _name, obj in inspect.getmembers(module):
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for _n, f in inspect.getmembers(obj):
                if inspect.isfunction(f) or inspect.ismethod(f):
                    yield f
        elif callable(obj):
            yield obj


def test_no_function_takes_a_per_call_cap():
    import flatspec

    public = [getattr(flatspec, name) for name in flatspec.__all__]
    functions = [obj for obj in public if callable(obj) and not inspect.isclass(obj)]
    for info in pkgutil.iter_modules(flatspec.__path__):
        functions += _functions(importlib.import_module(f"flatspec.{info.name}"))
    assert len(functions) > 100
    taking_cap = [f.__qualname__ for f in functions if "cap" in inspect.signature(f).parameters]
    assert taking_cap == []


def test_every_cache_is_bounded():
    import flatspec

    maxsizes = {}
    for info in pkgutil.iter_modules(flatspec.__path__):
        for f in _functions(importlib.import_module(f"flatspec.{info.name}")):
            if hasattr(f, "cache_info"):
                maxsizes[f"{info.name}.{f.__qualname__}"] = f.cache_info().maxsize
    # a new cache must be named here; products, mask cosets, exterior
    # traces and cycles have none
    assert set(maxsizes) == {
        "bieberbach._interned_diagonal",
        "families.catalog",
        "lattice.theta_counts",
        "spectra.krawtchouk_table",
        "spectra.multiplicity_row",
    }
    # catalog's keys are catalog_names(), so the registry bounds it
    assert [name for name, size in maxsizes.items() if size is None] == ["families.catalog"]


def test_compare_mode_validation_and_dimension_check():
    m1 = catalog("hw3/M1")
    with pytest.raises(ValueError):
        compare_spectra(m1, torus(4), "f", 2)
    with pytest.raises(ValueError):
        compare_spectra(m1, catalog("hw3/M2"), "weird", 2)
    with pytest.raises(ValueError):
        compare_spectra(m1, catalog("hw3/M2"), 7, 2)
    assert compare_spectra(m1, catalog("hw3/M2"), "p1", 3).mode == "p1"


def test_theorem_isospectrality_within_families():
    # same covering torus and elementary abelian holonomy: equal on forms
    for left, right in [("dim3/m10", "dim3/m01"), ("dim4/m11", "dim4/m02")]:
        verdict = compare_spectra(catalog(left), catalog(right), "f", 15)
        assert verdict.equal


# closed forms -----------------------------------------------------------------


def test_z2_closed_forms_spot_values():
    assert z2_closed_forms(1, 0, 3, 0).d_0_at_1 == 2
    assert z2_closed_forms(0, 1, 3, 0).d_0_at_2 == 4
    assert z2_closed_forms(1, 1, 4, 2).d_p_at_1 == 26


def test_z2_closed_forms_parameter_validation():
    with pytest.raises(ValueError):
        z2_closed_forms(0, 0, 3, 0)
    with pytest.raises(ValueError):
        z2_closed_forms(1, 2, 4, 0)  # l = 0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_z2_closed_forms_match_engine(n):
    for j, h in z2_parameters(n):
        group = z2_group(n, j, h)
        row_one = multiplicity_row(group, 1)
        row_two = multiplicity_row(group, 2)
        for p in range(n + 1):
            forms = z2_closed_forms(j, h, n, p)
            assert forms.d_p_at_1 == row_one[p]
            assert forms.d_p_at_2 == row_two[p]
        assert z2_closed_forms(j, h, n, 0).d_0_at_1 == row_one[0]
        assert z2_closed_forms(j, h, n, 0).d_0_at_2 == row_two[0]


def test_z2_family_members_distinguished_on_functions():
    for n in (3, 4, 5):
        pairs = [
            (z2_closed_forms(j, h, n, 0).d_0_at_1, z2_closed_forms(j, h, n, 0).d_0_at_2)
            for j, h in z2_parameters(n)
        ]
        assert len(set(pairs)) == len(pairs)
