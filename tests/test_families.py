"""Family constructors and the named catalog."""

import hashlib
import itertools
import json
import sys
import time
from collections import Counter

import pytest
from oracles import canonical_key, catalog_names

from flatspec.bieberbach import (
    GroupValidationError,
    IsometryElement,
    SignedPermutation,
    is_torsion_free,
    validate,
)
from flatspec import families
from flatspec.families import (
    KN_CAP,
    GhwArray,
    catalog,
    family_members,
    family_size,
    free_parameter_count,
    free_positions,
    hw_groups,
    kn_array,
    kn_arrays,
    kn_byte_keys,
    kn_coset_keys,
    kn_family,
    kn_family_size,
    kn_group_from_array,
    kn_masks,
    kn_name,
    torus,
    z2_family,
    z2_group,
    z2_parameters,
)

# Z2 family -------------------------------------------------------------------


def test_z2_family_counts():
    assert len(z2_family(3)) == 3
    assert len(z2_family(4)) == 5
    assert family_size("z2", 10) == (100 + 20 - 4) // 4 == 29


@pytest.mark.parametrize("n", range(2, 13))
def test_z2_family_size_closed_form(n):
    # the closed form (n - [(n-1)/2]) * ([(n-1)/2] + 1) - 1, in one fraction
    numerator = n * n + 2 * n - (4 if n % 2 == 0 else 3)
    assert len(z2_parameters(n)) == family_size("z2", n) == numerator // 4


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


# sha256 prefixes of each catalog group's sorted JSON, of its validate
# report's sorted JSON and of its representatives in order, recorded before
# the catalog was built through one generator-row builder
CATALOG_PINS = {
    "dim3/m10": ("a8b8a09a8731a562", "90211b8e75c1826f", "dbfcf3e78e433e57"),
    "dim3/m02": ("7371d52f3da3d1a7", "6bd3ffb3f88b6db3", "68c742c4690b84f5"),
    "dim3/m01": ("192c9b6ae22eb28b", "5d4cedc96bd64027", "3c640cf02f0264f7"),
    "dim4/m11": ("4d8f57903709d293", "48cad82f535fdcff", "10bf5bcaf8c78755"),
    "dim4/m10": ("df44d8ed9240492f", "f7ca97fac3a8d28c", "82f3ae368f5b225a"),
    "dim4/m03": ("64fc32c727ec399c", "7eea63bf7a59702b", "845eb03e31ff2142"),
    "dim4/m02": ("137082f799ead252", "4375f026d7befc62", "70a0311b3e8a73e6"),
    "dim4/m01": ("166d2d5825d8d903", "b09a4bdb5212d44b", "84e935a296411463"),
    "hw3/M1": ("9bcafd9457545659", "367aa771d01bad87", "34f233ad240bba6b"),
    "hw3/M2": ("d8989800ad68e1d2", "823e3542e4c45246", "11df68b0fbcad73c"),
    "hw3/M3": ("209b855f995349e3", "8ce2044ff449b5d2", "28bbf9a7a1894496"),
    "dim6/z4z2_M": ("e6145a9f4b85c9f5", "0111f4cc9b714de0", "d4b72390d6c7e33e"),
    "dim6/z4z2_Mp": ("daa966ed641e0329", "afd25870b486c61f", "250d992970b21bc6"),
    "dim6/z4_M": ("c448f94502e20082", "a8d1f678b486379b", "6ed29808caa47858"),
    "dim6/z4_Mp": ("89562dfdb8a852ae", "a12956b3638a8867", "7c2ea2be54e90ddc"),
    "hw5/H1": ("95a8dcbf8d27cbdc", "8429145ebaefef4f", "a60fa4433d1c9e9a"),
    "hw5/H2": ("86b4c248177dbd18", "f1989d8bc87c5d7a", "8ce3eca2e6cbecc7"),
    "hw5/H3": ("b26470960b2b8911", "889d773daf7c8232", "11dcbef2536ec6ab"),
    "hw7/H1": ("2d032dee5a0bc973", "6b125282fca8aee6", "4ae07b8473541d96"),
    "hw7/H2": ("32cf764aeacd9ea4", "d0d7e5948a3f37cd", "092487862ee8e3e4"),
    "hw7/H3": ("b7084650f4bf17f3", "bcc6ebabb505168b", "b20ab7fe6f50dcd4"),
}


def test_the_catalog_pins_name_every_group():
    assert list(CATALOG_PINS) == catalog_names()


@pytest.mark.parametrize("name", list(CATALOG_PINS))
def test_every_catalog_group_keeps_its_recorded_form(name):
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    group = catalog(name)
    assert (
        digest(json.dumps(group.to_json(), sort_keys=True)),
        digest(json.dumps(validate(group).to_json(), sort_keys=True)),
        digest(" ".join(map(str, group.holonomy))),
    ) == CATALOG_PINS[name]


# generator rows ----------------------------------------------------------------


def test_generator_rows_build_the_hw_didicosm():
    g = families._generated_group([((0, 1, 2), (-1, -1, 1), (2, 0, 2)), ((0, 1, 2), (-1, 1, -1), (0, 2, 0))], "didicosm")
    assert g.order == 4
    assert canonical_key(g) == canonical_key(catalog("hw3/M1"))


def test_every_named_group_is_built_from_generator_rows(monkeypatch):
    # every catalog group and z2 member reaches expand_holonomy through the one checked builder
    callers = []
    expand = families.expand_holonomy

    def spy(*args, **kwargs):
        callers.append((kwargs["name"], sys._getframe(1).f_code.co_name))
        return expand(*args, **kwargs)

    monkeypatch.setattr(families, "expand_holonomy", spy)
    for name in catalog_names():
        families._CATALOG[name](name=name)  # catalog() would answer from its cache
    z2_family(5)
    names = catalog_names() + [f"M[{j},{h}]" for j, h in z2_parameters(5)]
    assert callers == [(name, "_generated_group") for name in names]


def test_generator_rows_reject_zero_translations():
    with pytest.raises(GroupValidationError) as err:
        families._generated_group([((0, 1, 2), (-1, 1, 1), (0, 0, 0))], "reflection")
    assert not err.value.report.torsion_free


# arrays ------------------------------------------------------------------------


def test_free_positions_and_count():
    assert free_positions(4) == [(0, 1), (0, 2), (1, 2)]
    assert free_parameter_count(2) == 0
    assert free_parameter_count(6) == 10


def test_klein_bottle_array():
    array = GhwArray.from_bits(2, ())
    assert array.entries == ((0, 0), (2, 2))
    assert [row[0] for row in array.entries] == [0, 2]


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


@pytest.mark.parametrize("value", [2.0, 0.0, False, True, 1])
def test_array_entries_are_int_quarter_units(value):
    # kn_group_from_array builds its generators unchecked from the columns,
    # so the array itself refuses any entry that is not the int 0 or 2
    entries = [list(row) for row in GhwArray.from_bits(3, (1,)).entries]
    entries[0][1 if value else 0] = value
    got = "1/4" if value == 1 and type(value) is int else repr(value)
    with pytest.raises(ValueError, match=rf"^entries must be 0 or 1/2, got {got}$"):
        GhwArray(3, tuple(map(tuple, entries)))


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
    assert list(zip(*array.entries)) == [(0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (0, 2, 2, 2)]
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


@pytest.mark.parametrize("n", range(2, 7))
def test_members_from_bits_match_the_built_groups(n):
    # the theorem sweep reads each member off its bits; the group path
    # builds it: the mask pairs, and the signature entries of the cosets
    # (the coset bytes decoded through kn_byte_keys, against signature),
    # agree as multisets
    bit_vectors = itertools.product((0, 1), repeat=free_parameter_count(n))
    members = list(kn_coset_keys(n))
    byte_keys = kn_byte_keys(n)
    assert len(members) == kn_family_size(n)
    for index, (bits, (member_bits, cosets)) in enumerate(zip(bit_vectors, members)):
        group = kn_group_from_array(kn_array(n, index))
        assert member_bits == bits and kn_name(n, bits) == group.name
        assert sorted(kn_masks(n, bits)) == sorted(g.half_masks for g in group.generators)
        assert Counter(map(byte_keys.__getitem__, cosets)) == Counter(dict(group.signature))


def _theorem_check_members(groups):
    """(label, cosets) and the code table, as theorem_check feeds its scan."""
    members = [(g.label(), tuple(sorted(e for e, count in g.signature for _ in range(count)))) for g in groups]
    return members, {entry: entry for _label, cosets in members for entry in cosets}


def test_the_sweep_rows_are_the_group_rows(monkeypatch):
    # every row the theorem scan certifies, recorded at the one
    # certification under the first member that needs it, against
    # multiplicity_row of the built group: a row depends on (|F|, N, w)
    # alone, w mapping each trace class T the member's cosets take to w_T(N),
    # the sum of e(key, N) over its cosets with traces T, so each distinct
    # row is certified once and every member resolves to it.  K_5 is fed as
    # sorted coset bytes, as the sweep feeds it; the z2 members with swap
    # blocks, which are no mask groups, as theorem_check feeds them
    from flatspec import lattice, spectra

    groups = list(kn_family(5))
    members = [(kn_name(5, bits), bytes(sorted(cosets))) for bits, cosets in kn_coset_keys(5)]
    inputs = [("kn", 5, groups, members, kn_byte_keys(5))]
    for n in range(4, 9):
        groups = [g for g in z2_family(n) if g.generators[0].half_masks is None]
        inputs.append(("z2", n, groups, *_theorem_check_members(groups)))
    certify = spectra._certified_row
    for kind, n, groups, members, keys in inputs:
        rows = {}

        def recorded(totals, order, label, norm_sq):
            rows[label, norm_sq] = certify(totals, order, label, norm_sq)
            return rows[label, norm_sq]

        monkeypatch.setattr(spectra, "_certified_row", recorded)
        checks = list(spectra.theorem_checks(members, keys, n, 12))
        monkeypatch.undo()
        assert checks == [(g.label(), None) for g in groups]
        first = {}
        norms = tuple(range(13))
        series = dict(lattice.theta_series([key for key, _traces in keys.values()], 12))
        group_rows = spectra.multiplicity_row(tuple(groups), norms)
        for group, (member_label, cosets), by_norm in zip(groups, members, group_rows):
            assert member_label == group.label()
            for norm_sq, row in zip(norms, by_norm):
                weights = {}
                for key, traces in map(keys.__getitem__, cosets):
                    weights[traces] = weights.get(traces, 0) + series[key][norm_sq]
                label = first.setdefault((group.order, norm_sq, frozenset(weights.items())), group.label())
                assert rows[label, norm_sq] == row
        assert len(rows) == len(first) <= len(members) * 13
        if kind == "kn":  # its members share rows
            assert len(members) == 64 and len(rows) < 64 * 13
    assert sum(len(members) for *_rest, members, _keys in inputs[1:]) == 33


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("n_max", [2, 5])
def test_the_two_feeders_agree_under_sabotage(monkeypatch, capsys, n, n_max):
    # the cli sweep feeds the scan sorted coset bytes, theorem_check the
    # built groups' theta keys: with d_0 one too many from N = 3 on, both
    # name the same least failing N for every member
    from flatspec import cli, spectra

    true_row, scan = spectra._certified_row, spectra.theorem_checks

    def sabotaged(totals, order, label, norm_sq):
        d = true_row(totals, order, label, norm_sq)
        return d if norm_sq < 3 else (d[0] + 1,) + d[1:]

    swept = []

    def recorded(*args):
        for label, failing in scan(*args):
            swept.append((label, failing))
            yield label, failing

    monkeypatch.setattr(spectra, "_certified_row", sabotaged)
    monkeypatch.setattr(spectra, "theorem_checks", recorded)
    spectra.multiplicity_row.cache_clear()
    code = cli.main(["family", "kn", "--dim", str(n), "--verify-theorem", str(n_max)])
    capsys.readouterr()
    monkeypatch.setattr(spectra, "theorem_checks", scan)
    groups = list(kn_family(n))
    expected = 3 if n_max >= 3 else None
    assert code == (2 if expected else 0)
    assert swept == list(zip([g.label() for g in groups], spectra.theorem_check(groups, n_max)))
    assert [failing for _label, failing in swept] == [expected] * len(groups)
    spectra.multiplicity_row.cache_clear()


@pytest.mark.parametrize("n", range(2, 7))
def test_kn_members_are_torsion_free_by_construction(n):
    # the lemma of kn_group_from_array, over every coset byte 16 x + b of
    # every member: a coset negating x > 0 axes translates b >= 1 of the
    # others by 1/2, and none negates all n; is_torsion_free agrees on
    # every built member up to K_5
    for _bits, keys in kn_coset_keys(n):
        assert all(byte < 16 or byte % 16 for byte in keys)
        assert all(byte // 16 != n for byte in keys)
    if n <= 5:
        assert all(is_torsion_free(group) for group in kn_family(n))


@pytest.mark.parametrize("n", range(2, 6))
def test_coset_keys_are_the_built_cosets(n):
    # byte S of a member's keys is 16 x + b for the product of the
    # generators in the bit set S, read off the built group's mask pairs
    members = list(kn_coset_keys(n))
    assert [bits for bits, _keys in members] == [array.bits() for array in kn_arrays(n)]
    for bits, keys in members:
        masks = [g.half_masks for g in kn_group_from_array(GhwArray.from_bits(n, bits)).generators]
        assert len(keys) == 1 << (n - 1)
        for subset, key in enumerate(keys):
            neg = trans = 0
            for c in range(n - 1):
                if subset >> c & 1:
                    neg, trans = neg ^ masks[c][0], trans ^ masks[c][1]
            assert key == 16 * neg.bit_count() + (trans & ~neg).bit_count()


@pytest.mark.parametrize("n", range(2, 6))
def test_kn_generators_equal_the_checked_elements(n):
    # kn_group_from_array skips the element checks and carries each
    # generator's mask pair; the checking constructors must agree
    for array in kn_arrays(n):
        generators = kn_group_from_array(array).generators
        checked = tuple(
            IsometryElement(SignedPermutation.diagonal(-1 if k == c else 1 for k in range(n)), column)
            for c, column in zip(range(n - 1), zip(*array.entries))
        )
        assert generators == checked
        assert list(map(hash, generators)) == list(map(hash, checked))
        assert [vars(g)["half_masks"] for g in generators] == [g.half_masks for g in checked]


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
    indices = range(0, kn_family_size(KN_CAP), 8192)
    groups = [kn_group_from_array(kn_array(KN_CAP, index)) for index in indices]
    assert theorem_check(groups, 2) == [None] * len(indices)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"256 K_8 members took {elapsed:.2f} s"


def test_kn_members_have_first_betti_number_one():
    from flatspec.spectra import betti_numbers

    for betti in betti_numbers(kn_family(4)):
        assert betti[1] == 1


def test_kn_three_matches_catalog_amphidicosms():
    plus, minus = kn_family(3)
    # +a2 lands on exactly the same coset representatives as the catalog entry
    assert canonical_key(plus) == canonical_key(catalog("hw3/M2"))
    assert canonical_key(minus) != canonical_key(catalog("hw3/M3"))
    # ... while -a2 is the same manifold in different coordinates: equal
    # spectra degree by degree
    from flatspec.spectra import compare_spectra

    for p in range(4):
        assert compare_spectra(minus, catalog("hw3/M3"), p, 10)[1] is None


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
    # each kind on both sides of every limit: n = 2 and the caps hold members
    inside = [
        ("z2", 2), ("z2", 4), ("z2", 64), ("kn", 2), ("kn", 4), ("hw-catalog", 3), ("hw-catalog", 7)
    ]
    for kind, n in inside:
        members = list(family_members(kind, n))
        assert family_size(kind, n) == len(members)
        assert all(group.dim == n for group in members)
    assert [g.label() for g in family_members("hw-catalog", 3)] == ["hw3/M1", "hw3/M2", "hw3/M3"]
    outside = {
        ("k9", 4): "unknown family kind 'k9'",
        ("z2", 1): "the family needs dimension >= 2, got n=1",
        ("z2", 65): "dimension 65 exceeds the cap of 64",
        ("kn", 1): "the family needs n >= 2, got 1",
        ("kn", 9): "dimension 9 exceeds the family cap 8",
        ("hw-catalog", 4): "no built-in Hantzsche-Wendt data in dimension 4",
    }
    for (kind, n), message in outside.items():
        for call in (family_members, family_size):
            with pytest.raises(ValueError) as err:
                call(kind, n)
            assert str(err.value) == message
