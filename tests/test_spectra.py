"""Spectral engine: Krawtchouk traces, character sums, multiplicities."""

import ast
import importlib
import inspect
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    binomial,
    catalog_names,
    enumerated_character_sum,
    krawtchouk,
    row_scan_theorem_check,
    trace_p_oracle,
    z2_betti_closed_form,
    z2_closed_forms,
)

from flatspec import lattice, spectra
from flatspec.bieberbach import (
    DIM_CAP,
    IsometryElement,
    SignedPermutation,
    classify_holonomy,
    is_orientable,
    krawtchouk_table,
)
from flatspec.families import (
    catalog,
    hw_groups,
    kn_family,
    torus,
    z2_family,
    z2_group,
    z2_parameters,
)
from flatspec.lattice import ShellCapExceeded, shell_vectors
from flatspec.spectra import (
    betti_numbers,
    character_sum,
    compare_spectra,
    multiplicity_row,
    row_value,
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


def test_krawtchouk_table_is_the_defining_sum_up_to_the_dimension_cap():
    # the table is made of exterior traces; the oracle sums binomials
    for n in range(DIM_CAP + 1):
        expected = tuple(tuple(krawtchouk(n, p, x) for x in range(n + 1)) for p in range(n + 1))
        assert krawtchouk_table(n) == expected


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
    assert swap_block.exterior_traces()[1] == 1 == krawtchouk(3, 1, 1)
    for n in (2, 5):
        assert SignedPermutation.identity(n).exterior_traces() == tuple(
            binomial(n, p) for p in range(n + 1)
        )


def test_trace_of_order_four_block_matrix():
    # quarter-turn block plus diag(1,-1,-1,1); the trace on 2-forms is -1
    # (frozen from the wedge-basis oracle), while the dimension of its fixed
    # 2-forms is 3: the two quantities differ for order-4 elements.
    b = catalog("dim6/z4_Mp").holonomy[1].linear
    assert trace_p_oracle(b, 2) == -1
    assert b.exterior_traces()[2] == -1
    assert betti_numbers([catalog("dim6/z4_Mp")])[0][2] == 3


def test_trace_oracle_examples():
    assert trace_p_oracle(SignedPermutation.identity(4), 2) == 6
    assert trace_p_oracle(SignedPermutation.diagonal((-1, -1, 1)), 2) == krawtchouk(3, 2, 2)
    mixed = SignedPermutation((1, 0, 2, 3), (1, 1, -1, 1))  # diag(J, -1, 1)
    assert trace_p_oracle(mixed, 2) == krawtchouk(4, 2, 2) == -2


def test_trace_errors():
    # det(Id + t*B) has degree n: one trace per degree 0..n
    assert len(SignedPermutation.identity(3).exterior_traces()) == 4
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
    assert b.exterior_traces() == tuple(trace_p_oracle(b, p) for p in range(b.dim + 1))


@settings(deadline=None)
@given(signed_permutations())
def test_involution_traces_are_krawtchouk_values(b):
    if b.compose(b) == SignedPermutation.identity(b.dim):
        # the theta key has one pair per cycle of sign product +1
        x = b.dim - len(IsometryElement(b, (0,) * b.dim).theta_key)
        assert b.exterior_traces() == tuple(krawtchouk(b.dim, p, x) for p in range(b.dim + 1))


# character sums ---------------------------------------------------------------


def test_character_sums_of_the_dimension_three_trio():
    expected = {
        "hw3/M1": ([-2, -2, -2], [0, 0, 0]),
        "hw3/M2": ([-2, 0, 0], [0, 0, 0]),
        "hw3/M3": ([-2, 0, -4], [0, 0, -8]),
    }
    for name, (at_one, at_five) in expected.items():
        sums = character_sum(catalog(name).holonomy[1:], 5)
        assert [series[1] for series in sums] == at_one
        assert [series[5] for series in sums] == at_five


@pytest.mark.parametrize("n,j,h", [(3, 1, 0), (3, 0, 2), (4, 1, 1), (5, 0, 2), (6, 2, 1)])
def test_character_sum_closed_form_for_z2_generators(n, j, h):
    group = z2_group(n, j, h)
    length = n - 2 * j - h
    gamma = group.holonomy[1]
    assert character_sum([gamma], 1)[0][1] == 2 * (length - 2)


def test_character_sum_needs_no_group():
    # e(gamma, N) depends on gamma alone: a coset that belongs to no built
    # group, with a 2-cycle, a negated axis and quarter translations
    element = IsometryElement(SignedPermutation((1, 0, 2, 3), (1, -1, -1, 1)), (1, 3, 2, 1))
    (series,) = character_sum([element], 12)
    assert series == [enumerated_character_sum(element, norm_sq) for norm_sq in range(13)]


def test_character_sum_quarter_translation_is_real():
    # +v and -v contributions are conjugate, so the sum is one real integer
    group = catalog("dim6/z4_M")
    gamma = group.holonomy[1]
    assert type(character_sum([gamma], 1)[0][1]) is int


def test_odd_c_folds_to_four_times_the_length():
    # [e1]L[1/4] in dimension 1: the m-th fixed vector weighs i^(-m), so the
    # odd m cancel and m = 2k leaves (-1)^k q^(4k^2), theta(-q^4); mapping
    # odd c to (1, 2) without the 4l fold would give -2 at N = 1
    element = IsometryElement(SignedPermutation.identity(1), (1,))
    assert element.theta_key == ((4, 2),)
    ((_key, series),) = lattice.theta_series([element.theta_key], 16)
    assert [series[n] for n in (0, 1, 4, 16)] == [1, 0, -2, 2]


# multiplicities --------------------------------------------------------------


def row_at(group, norm_sq):
    """The row of one group at one N."""
    ((row,),) = multiplicity_row((group,), (norm_sq,))
    return row


def test_d_p_examples():
    assert row_at(catalog("dim3/m10"), 1)[2] == 10
    assert row_at(torus(3), 1)[1] == 18
    assert row_at(catalog("hw3/M1"), 5)[1] == 18


def test_multiplicity_range_error():
    # a row holds d_0..d_n and nothing beyond
    assert len(row_at(torus(2), 1)) == 3


def test_aggregate_multiplicities():
    def value(name, norm_sq, mode):
        return row_value(row_at(catalog(name), norm_sq), mode)

    for name in ("dim3/m10", "dim3/m02", "dim3/m01"):
        assert value(name, 1, "f") == 24
        assert value(name, 2, "f") == 48
    for name in ("dim4/m11", "dim4/m10", "dim4/m03", "dim4/m02", "dim4/m01"):
        assert value(name, 1, "f") == 64
        assert value(name, 2, "f") == 192
    assert value("hw3/M1", 1, "e") == value("hw3/M1", 1, "o") == 6
    assert value("hw3/M1", 1, "f") == 12


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
        assert multiplicity_row((catalog(name),), (1, 2)) == ((expected_one[name], expected_two[name]),)


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
        assert multiplicity_row((catalog(name),), (1, 2)) == ((expected_one[name], expected_two[name]),)


def test_hw_trio_tables():
    expected = {
        "hw3/M1": ((0, 6, 6, 0), (6, 18, 18, 6)),
        "hw3/M2": ((1, 5, 5, 1), (6, 18, 18, 6)),
        "hw3/M3": ((0, 4, 6, 2), (4, 16, 20, 8)),
    }
    groups = tuple(map(catalog, expected))
    assert multiplicity_row(groups, (1, 5)) == tuple(expected.values())


def test_row_value():
    row = row_at(catalog("hw3/M1"), 1)
    assert row == (0, 6, 6, 0)
    assert row_value(row, "f") == sum(row) == 12
    assert row_value(row, "f") == row_value(row, "e") + row_value(row, "o")
    assert [row_value(row, f"p{k}") for k in range(4)] == list(row)
    assert row_value((1, 2, 4, 8), "e") == 5
    assert row_value((1, 2, 4, 8), "o") == 10


@pytest.mark.parametrize("n", [2, 3, 5])
def test_torus_multiplicities_factor_through_binomials(n):
    norms = (0, 1, 2, 4)
    (rows,) = multiplicity_row((torus(n),), norms)
    for norm_sq, row in zip(norms, rows):
        size = shell_vectors(n, norm_sq).count
        assert row == tuple(binomial(n, p) * size for p in range(n + 1))


def test_hodge_duality_on_orientable_groups():
    for name in ("hw3/M1", "dim6/z4z2_M", "dim6/z4_Mp"):
        group = catalog(name)
        assert is_orientable(group)
        for row in multiplicity_row((group,), tuple(range(6)))[0]:
            assert row == row[::-1]


# Betti numbers ----------------------------------------------------------------


def test_betti_sequences_of_the_dimension_six_examples():
    names = ("dim6/z4z2_M", "dim6/z4z2_Mp", "dim6/z4_M", "dim6/z4_Mp")
    assert betti_numbers(map(catalog, names)) == (
        (1, 2, 3, 4, 3, 2, 1),
        (1, 1, 1, 2, 1, 1, 1),
        (1, 2, 5, 8, 5, 2, 1),
        (1, 2, 3, 4, 3, 2, 1),
    )


def test_hw_groups_are_rational_homology_spheres():
    for n in (3, 5):
        for b in betti_numbers(hw_groups(n)):
            assert b[0] == b[n] == 1
            assert all(b[p] == 0 for p in range(1, n))


def test_z2_betti_closed_form_cross_check():
    for n in (3, 4, 5):
        for j, h in z2_parameters(n):
            (betti,) = betti_numbers([z2_group(n, j, h)])
            for p in range(n + 1):
                assert betti[p] == z2_betti_closed_form(j, h, n, p)


def test_z2_first_betti_number_is_free_rank():
    # H_1 = Z^(j+l) + torsion, so beta_1 must equal j + l
    for n in (3, 4, 6):
        for j, h in z2_parameters(n):
            length = n - 2 * j - h
            assert betti_numbers([z2_group(n, j, h)])[0][1] == j + length


# theorem check ----------------------------------------------------------------


def test_theorem_check_examples():
    # (group, n_max, d_f at N = n_max, 2^(n-k) r_n(N) with the group's rank k)
    for group, n_max, d_f, expected_f in (
        (catalog("hw3/M1"), 1, 12, 2 ** (3 - 2) * 6),
        (next(kn_family(4)), 1, 16, 2 ** (4 - 3) * 8),
        (torus(3), 2, 96, 2**3 * shell_vectors(3, 2).count),
    ):
        assert theorem_check([group], n_max) == [None]
        assert row_value(row_at(group, n_max), "f") == d_f == expected_f


def test_theorem_check_names_the_least_failing_norm(monkeypatch):
    true_row = spectra._certified_row

    def sabotage(break_f):
        # from N = 2 on, add one to d_0 (breaks d_f), or move one from d_1
        # to d_0 (keeps d_f, breaks d_e = d_o)
        def row(totals, order, label, norm_sq):
            d = true_row(totals, order, label, norm_sq)
            if norm_sq < 2:
                return d
            return (d[0] + 1, d[1] - (not break_f)) + d[2:]

        return row

    group = next(kn_family(4))
    for break_f in (True, False):
        monkeypatch.setattr(spectra, "_certified_row", sabotage(break_f))
        assert theorem_check([group], 1) == [None]
        assert theorem_check([group], 2) == [2]
        assert theorem_check([group], 5) == [2]


def _z2k_groups():
    """Every catalog group with holonomy Z2^k, the z2 family for n <= 8 (its
    swap blocks make groups that are not mask groups) and K_5."""
    groups = [catalog(name) for name in catalog_names()]
    groups = [g for g in groups if classify_holonomy(g).elementary_rank is not None]
    groups += [g for n in range(2, 9) for g in z2_family(n)]
    return groups + list(kn_family(5))


def test_z2k_traces_are_krawtchouk_values_of_the_key_length():
    # every coset of a Z2^k group is an involution, negating n - len(key)
    # directions: the fact the one theorem scan rests on
    groups = _z2k_groups()
    assert len(groups) == 143
    for group in groups:
        n = group.dim
        columns = [tuple(krawtchouk(n, p, x) for p in range(n + 1)) for x in range(n + 1)]
        for (key, traces), _count in group.signature:
            assert traces == columns[n - len(key)]
        for element in group.holonomy:
            assert element.linear.exterior_traces() == columns[n - len(element.theta_key)]


@pytest.mark.parametrize("n_max", [0, 2, 7, 20])
def test_theorem_check_matches_the_row_scan(monkeypatch, n_max):
    groups = _z2k_groups()
    for group in groups:
        assert theorem_check([group], n_max) == [row_scan_theorem_check(group, n_max)] == [None]
    # both name the same least failing N when d_0 is one too many from N = 3 on
    true_row = spectra._certified_row

    def sabotaged(totals, order, label, norm_sq):
        d = true_row(totals, order, label, norm_sq)
        return d if norm_sq < 3 else (d[0] + 1,) + d[1:]

    monkeypatch.setattr(spectra, "_certified_row", sabotaged)
    multiplicity_row.cache_clear()
    for group in groups:
        expected = 3 if n_max >= 3 else None
        assert theorem_check([group], n_max) == [row_scan_theorem_check(group, n_max)] == [expected]
    multiplicity_row.cache_clear()


def test_theorem_check_rejects_non_elementary_holonomy():
    with pytest.raises(ValueError):
        theorem_check([catalog("dim6/z4_M")], 1)


def test_theorem_check_takes_groups_of_one_dimension():
    with pytest.raises(ValueError, match=r"one dimension, got \[3, 4\]"):
        theorem_check([catalog("hw3/M1"), catalog("dim4/m11")], 1)
    assert theorem_check([], 3) == []
    assert theorem_check([catalog("hw3/M1"), catalog("dim3/m10"), catalog("hw3/M1")], 3) == [None] * 3


def test_negative_nmax_is_rejected():
    # N <= -1 holds no case at all, so any verdict would be vacuous
    m1 = catalog("hw3/M1")
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        theorem_check([m1], -1)
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        compare_spectra(m1, catalog("dim3/m10"), "f", -1)
    assert theorem_check([m1], 0) == [None]
    assert compare_spectra(m1, catalog("hw3/M2"), "f", 0) == ("f", None)


# comparison -------------------------------------------------------------------


def test_compare_hw_trio():
    m1, m2, m3 = (catalog(f"hw3/M{i}") for i in (1, 2, 3))
    assert compare_spectra(m1, m2, "f", 25) == ("f", None)
    assert compare_spectra(m1, m2, "e", 25) == ("e", None)
    assert compare_spectra(m1, m2, "o", 25) == ("o", None)
    assert compare_spectra(m1, m2, 0, 1) == ("p0", (1, 0, 1))
    # first distinguishing eigenvalue on 2-forms for M1 vs M3, frozen from
    # the engine scan (the published tables only show N = 1 and N = 5)
    assert compare_spectra(m1, m3, 2, 25) == ("p2", (4, 3, 2))
    assert compare_spectra(m1, m3, "functions", 25) == ("p0", (4, 3, 4))


def test_compare_dimension_six_pairs():
    m = catalog("dim6/z4z2_M")
    mp = catalog("dim6/z4z2_Mp")
    assert compare_spectra(m, mp, 0, 25) == ("p0", None)
    assert compare_spectra(m, mp, "f", 0) == ("f", (0, 16, 8))
    assert compare_spectra(m, mp, "e", 0)[1] is not None
    assert compare_spectra(m, mp, "o", 0)[1] is not None


def test_the_comparison_text_lives_in_the_cli_only():
    # spectra returns plain values and cli alone writes them out: spectra
    # defines no class, and only cli's source holds the verdict's words
    import flatspec

    sources = {
        info.name: inspect.getsource(importlib.import_module(f"flatspec.{info.name}"))
        for info in pkgutil.iter_modules(flatspec.__path__)
    }
    classes = [node.name for node in ast.walk(ast.parse(sources["spectra"])) if isinstance(node, ast.ClassDef)]
    assert classes == []
    for phrase in ("equal in mode", "unequal in mode"):
        assert [name for name, source in sources.items() if phrase in source] == ["cli"]
    verdict = compare_spectra(catalog("hw3/M1"), catalog("hw3/M3"), 2, 25)
    assert type(verdict) is tuple and len(verdict) == 2


def test_every_cap_check_gives_the_shell_message(monkeypatch):
    m1, m2 = catalog("hw3/M1"), catalog("hw3/M2")
    # the two spectra agree in mode f up to N = 4, so the scan reaches N = 5
    calls = (
        lambda: shell_vectors(3, 5),
        lambda: lattice.theta_series([((1, 0),) * 3], 5),
        lambda: character_sum(m1.holonomy[1:], 5),
        lambda: multiplicity_row((m1,), (5,)),
        lambda: compare_spectra(m1, m2, "f", 5),
        lambda: theorem_check([m1], 5),
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
        character_sum(m1.holonomy[1:], -1)


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

    functions = []
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
        "families.catalog",
        "bieberbach.krawtchouk_table",
        "spectra.multiplicity_row",
    }
    # catalog's keys are the registry's names, so the registry bounds it
    assert [name for name, size in maxsizes.items() if size is None] == ["families.catalog"]


def test_compare_mode_validation_and_dimension_check():
    m1 = catalog("hw3/M1")
    with pytest.raises(ValueError):
        compare_spectra(m1, torus(4), "f", 2)
    with pytest.raises(ValueError):
        compare_spectra(m1, catalog("hw3/M2"), "weird", 2)
    with pytest.raises(ValueError):
        compare_spectra(m1, catalog("hw3/M2"), 7, 2)
    assert compare_spectra(m1, catalog("hw3/M2"), "p1", 3)[0] == "p1"


def test_theorem_isospectrality_within_families():
    # same covering torus and elementary abelian holonomy: equal on forms
    for left, right in [("dim3/m10", "dim3/m01"), ("dim4/m11", "dim4/m02")]:
        assert compare_spectra(catalog(left), catalog(right), "f", 15) == ("f", None)


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
        ((row_one, row_two),) = multiplicity_row((z2_group(n, j, h),), (1, 2))
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
