"""Family constructors and the named catalog."""

import itertools
import time

import pytest
from oracles import canonical_key

from flatspec.bieberbach import GroupValidationError, is_torsion_free, validate
from flatspec.families import (
    KN_CAP,
    GhwArray,
    catalog,
    catalog_names,
    diagonal_group,
    family_members,
    family_size,
    free_parameter_count,
    free_positions,
    hw_groups,
    kn_array,
    kn_arrays,
    kn_family,
    kn_family_size,
    kn_group_from_array,
    torus,
    z2_family,
    z2_family_size,
    z2_group,
    z2_parameters,
)

# Z2 family -------------------------------------------------------------------


def test_z2_family_counts():
    assert len(z2_family(3)) == 3
    assert len(z2_family(4)) == 5
    assert z2_family_size(10) == (100 + 20 - 4) // 4 == 29


@pytest.mark.parametrize("n", range(2, 13))
def test_z2_family_size_closed_form(n):
    params = z2_parameters(n)
    assert len(params) == z2_family_size(n)
    numerator = n * n + 2 * n - (4 if n % 2 == 0 else 3)
    assert z2_family_size(n) == numerator // 4


def test_z2_group_structure():
    g = z2_group(4, 1, 1)
    assert g.order == 2
    assert g.name == "M[1,1]"
    assert is_torsion_free(g)
    report = validate(g)
    assert report.accepted and report.holonomy == "Z2"


def test_z2_group_rejects_bad_parameters():
    with pytest.raises(ValueError):
        z2_group(3, 0, 0)
    with pytest.raises(ValueError):
        z2_group(3, 2, 0)


# diagonal groups ---------------------------------------------------------------


def test_diagonal_group_builds_the_hw_didicosm():
    g = diagonal_group(
        [(-1, -1, 1), (-1, 1, -1)],
        [(2, 0, 2), (0, 2, 0)],
    )
    assert g.order == 4
    assert canonical_key(g) == canonical_key(catalog("hw3/M1"))


def test_diagonal_group_rejects_zero_translations():
    with pytest.raises(GroupValidationError) as err:
        diagonal_group([(-1, 1, 1)], [(0, 0, 0)])
    assert not err.value.report.torsion_free


def test_diagonal_group_argument_validation():
    with pytest.raises(ValueError):
        diagonal_group([(-1, 1)], [])
    with pytest.raises(ValueError):
        diagonal_group([], [])


# arrays ------------------------------------------------------------------------


def test_free_positions_and_count():
    assert free_positions(4) == [(0, 1), (0, 2), (1, 2)]
    assert free_parameter_count(2) == 0
    assert free_parameter_count(6) == 10


def test_klein_bottle_array():
    array = GhwArray.from_bits(2, ())
    assert array.entries == ((0, 0), (2, 2))
    assert array.column(0) == (0, 2)


def test_array_invariants_rejected():
    # wrong subdiagonal
    with pytest.raises(ValueError):
        GhwArray.from_rows([[0, 0], [0, "1/2"]])
    # odd parity row
    with pytest.raises(ValueError):
        GhwArray.from_rows([["1/2", 0], ["1/2", "1/2"]])
    # nonzero diagonal in a leading column
    with pytest.raises(ValueError):
        GhwArray.from_rows(
            [["1/2", 0, "1/2"], ["1/2", 0, "1/2"], [0, "1/2", "1/2"]]
        )
    # entry below the subdiagonal
    with pytest.raises(ValueError):
        GhwArray.from_rows(
            [[0, 0, 0], ["1/2", 0, "1/2"], ["1/2", "1/2", 0]]
        )
    # entries outside {0, 1/2}
    with pytest.raises(ValueError):
        GhwArray.from_rows([[0, 0], ["1/4", "1/4"]])


@pytest.mark.parametrize("n", [2, 3])
def test_exactly_the_family_arrays_are_accepted(n):
    members = {array.entries for array in kn_arrays(n)}
    accepted = set()
    for values in itertools.product((0, 2), repeat=n * n):
        entries = tuple(values[r * n : (r + 1) * n] for r in range(n))
        try:
            GhwArray(n, entries)
        except ValueError:
            continue
        accepted.add(entries)
    assert accepted == members


def test_every_single_flip_of_a_member_is_rejected():
    for array in kn_arrays(4):
        for r, c in itertools.product(range(4), repeat=2):
            rows = [list(row) for row in array.entries]
            rows[r][c] = 2 - rows[r][c]
            with pytest.raises(ValueError, match=r"^entry \(\d,\d\) must be (0|1/2)$"):
                GhwArray(4, tuple(map(tuple, rows)))


def test_array_round_trip_bits():
    for bits in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
        array = GhwArray.from_bits(4, bits)
        assert array.bits() == bits
    with pytest.raises(ValueError):
        GhwArray.from_bits(4, (0, 1))


def test_published_dimension_four_array_shape():
    # x = y = z = 0 member: second column (0, 0, 1/2, 0), last column derived
    array = GhwArray.from_bits(4, (0, 0, 0))
    assert array.column(0) == (0, 2, 0, 0)
    assert array.column(1) == (0, 0, 2, 0)
    assert array.column(2) == (0, 0, 0, 2)
    assert array.column(3) == (0, 2, 2, 2)
    # x = z = 0, y = 1/2 flips exactly entries (1,3) and the derived (1,4)
    array = GhwArray.from_bits(4, (0, 1, 0))
    assert array.entries[0] == (0, 0, 2, 2)


def test_kn_group_from_array_klein_bottle():
    group = kn_group_from_array(GhwArray.from_bits(2, ()))
    assert group.name == "K2"
    assert group.order == 2
    gamma = group.holonomy[1]
    assert gamma.linear.signs == (-1, 1)
    assert gamma.translation == (0, 2)


def test_kn_family_counts_and_keys():
    for n, expected in [(2, 1), (3, 2), (4, 8), (5, 64)]:
        family = list(kn_family(n))
        assert len(family) == expected
        assert len({canonical_key(g) for g in family}) == expected
        assert all(is_torsion_free(g) for g in family)


@pytest.mark.parametrize("n", range(2, 6))
def test_kn_array_is_the_indexed_member(n):
    arrays = list(kn_arrays(n))
    assert [kn_array(n, index) for index in range(len(arrays))] == arrays
    for index in (-1, len(arrays)):
        with pytest.raises(ValueError, match=rf"^index {index} outside 0..{len(arrays) - 1}$"):
            kn_array(n, index)


@pytest.mark.parametrize("n", range(2, 7))
def test_kn_array_equals_the_checked_array(n):
    # from_bits skips the entry checks; the checked constructor must agree
    for index in range(kn_family_size(n)):
        array = kn_array(n, index)
        assert array == GhwArray(n, array.entries)
        assert hash(array) == hash(GhwArray(n, array.entries))


def test_from_bits_keeps_its_own_checks():
    for n in (1, 0, -1):
        with pytest.raises(ValueError, match="arrays need n >= 2"):
            GhwArray.from_bits(n, ())


def test_kn_family_cap():
    with pytest.raises(ValueError):
        kn_family(9)
    with pytest.raises(ValueError):
        list(kn_arrays(1))


def test_sampled_kn_members_at_the_cap_within_budget():
    # every 8192nd K_8 member: 256 samples of the cost KN_CAP states
    from flatspec.spectra import theorem_check

    start = time.perf_counter()
    for index in range(0, kn_family_size(KN_CAP), 8192):
        assert theorem_check(kn_group_from_array(kn_array(KN_CAP, index)), 2).ok
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"256 K_8 members took {elapsed:.2f} s"


def test_kn_members_have_first_betti_number_one():
    from flatspec.spectra import betti_numbers

    for group in kn_family(4):
        assert betti_numbers(group)[1] == 1


def test_kn_three_matches_catalog_amphidicosms():
    plus, minus = kn_family(3)
    # +a2 lands on exactly the same coset representatives as the catalog entry
    assert canonical_key(plus) == canonical_key(catalog("hw3/M2"))
    assert canonical_key(minus) != canonical_key(catalog("hw3/M3"))
    # ... while -a2 is the same manifold in different coordinates: equal
    # spectra degree by degree
    from flatspec.spectra import compare_spectra

    for p in range(4):
        assert compare_spectra(minus, catalog("hw3/M3"), p, 10).equal


def test_kn_holonomy_rank():
    from flatspec.bieberbach import classify_holonomy

    for n in (2, 3, 4):
        for group in kn_family(n):
            assert classify_holonomy(group).elementary_rank == n - 1


# catalog -----------------------------------------------------------------------


def test_catalog_names_are_stable():
    assert set(catalog_names()) == {
        "dim3/m10",
        "dim3/m02",
        "dim3/m01",
        "dim4/m11",
        "dim4/m10",
        "dim4/m03",
        "dim4/m02",
        "dim4/m01",
        "hw3/M1",
        "hw3/M2",
        "hw3/M3",
        "dim6/z4z2_M",
        "dim6/z4z2_Mp",
        "dim6/z4_M",
        "dim6/z4_Mp",
        "hw5/H1",
        "hw5/H2",
        "hw5/H3",
        "hw7/H1",
        "hw7/H2",
        "hw7/H3",
    }


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog("dim3/m99")


def test_catalog_entries_validate():
    for name in catalog_names():
        report = validate(catalog(name))
        assert report.accepted, name


def test_catalog_hw_data_matches_published_columns():
    m1 = catalog("hw3/M1")
    g1, g2 = m1.generators
    assert g1.linear.signs == (-1, -1, 1)
    assert g1.translation == (2, 0, 2)
    assert g2.linear.signs == (-1, 1, -1)
    assert g2.translation == (0, 2, 0)
    # derived third representative: B3 = B1 B2 with b3 = B2 b1 + b2 mod 1
    b3 = next(e for e in m1.holonomy if e.linear.signs == (1, -1, -1))
    assert b3.translation == (2, 2, 2)


def test_catalog_dim6_data():
    m = catalog("dim6/z4z2_M")
    g1, g2 = m.generators
    assert g1.translation == (0, 0, 0, 0, 1, 0)
    assert g1.linear.order() == 4
    assert g2.translation == (0, 0, 0, 0, 0, 2)
    assert m.order == 8
    assert catalog("dim6/z4_M").order == 4


def test_catalog_z2_entries_are_the_family_members():
    assert catalog("dim3/m01").holonomy[1].linear.signs == (-1, 1, 1)
    assert catalog("dim4/m03").holonomy[1].linear.signs == (-1, -1, -1, 1)
    dicosm_labeled = catalog("dim3/m10").holonomy[1].linear
    assert dicosm_labeled.perm == (1, 0, 2)


# torus and HW samples ------------------------------------------------------------


def test_torus():
    t = torus(3)
    assert t.order == 1
    assert t.name == "T^3"
    with pytest.raises(ValueError):
        torus(0)


def test_catalog_builds_hw_groups_one_name_at_a_time():
    catalog.cache_clear()
    group = catalog("hw7/H2")
    assert group.name == "hw7/H2" and group.order == 64
    assert catalog.cache_info().currsize == 1
    assert hw_groups(7)[1] is group


def test_hw_groups_by_dimension():
    assert [g.label() for g in hw_groups(3)] == ["hw3/M1"]
    five = hw_groups(5)
    assert [g.label() for g in five] == ["hw5/H1", "hw5/H2", "hw5/H3"]
    assert len({canonical_key(g) for g in five}) == 3
    for group in five:
        report = validate(group)
        assert report.accepted
        assert report.holonomy == "Z2^4"
        assert report.orientable and report.diagonal_type
    with pytest.raises(ValueError):
        hw_groups(4)


def test_family_registry():
    for kind, n in [("z2", 4), ("kn", 4), ("hw-catalog", 3), ("hw-catalog", 7)]:
        members = list(family_members(kind, n))
        assert family_size(kind, n) == len(members)
        assert all(group.dim == n for group in members)
    assert [g.label() for g in family_members("hw-catalog", 3)] == ["hw3/M1", "hw3/M2", "hw3/M3"]
    for call in (family_members, family_size):
        with pytest.raises(ValueError, match="unknown family kind 'k9'"):
            call("k9", 4)
        with pytest.raises(ValueError, match="no built-in Hantzsche-Wendt data in dimension 4"):
            call("hw-catalog", 4)
