"""The theta-series engine against shell enumeration, and identities that
hold whatever engine computes the spectrum."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    binomial,
    catalog_names,
    enumerated_character_sums,
    recursive_theta_counts,
    reference_row,
    trace_p_oracle,
)

from test_group_algebra import CASES
from test_translation_format import reference_torsion_free

from flatspec import cli
from flatspec.bieberbach import (
    DIM_CAP,
    IsometryElement,
    SignedPermutation,
    classify_holonomy,
    coset_is_torsion_free,
)
from flatspec.families import (
    GhwArray,
    catalog,
    free_parameter_count,
    kn_family,
    kn_group_from_array,
    torus,
    z2_family,
    z2_group,
    z2_parameters,
)
from flatspec.lattice import SHELL_CAP, fixed_vectors, shell_vectors, theta_series
from flatspec.spectra import character_sum, multiplicity_row


def series_of(key, top):
    """The coefficients 0..top of one theta key, by the walk."""
    ((_key, series),) = theta_series([key], top)
    return series


def shell_count(n, norm_sq):
    """r_n(N), the torus key's coefficient."""
    return series_of(((1, 0),) * n, norm_sq)[norm_sq]


def _kn_member(n, bits):
    return kn_group_from_array(GhwArray.from_bits(n, bits))


kn_members = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.integers(0, 1), min_size=free_parameter_count(n), max_size=free_parameter_count(n)
    ).map(lambda bits: _kn_member(n, bits))
)
z2_members = st.integers(2, 6).flatmap(
    lambda n: st.sampled_from(z2_parameters(n)).map(lambda jh: z2_group(n, *jh))
)
catalog_groups = st.sampled_from(catalog_names()).map(catalog)
quarter_groups = st.sampled_from([n for n in catalog_names() if n.startswith("dim6/z4")]).map(
    catalog
)
groups = st.one_of(catalog_groups, kn_members, z2_members, quarter_groups)


@settings(deadline=None)
@given(groups, st.integers(0, 12))
def test_character_sums_and_rows_match_enumeration(group, norm_sq):
    sums = enumerated_character_sums(group, norm_sq)
    assert [series[norm_sq] for series in character_sum(group.holonomy, norm_sq)] == sums
    assert multiplicity_row((group,), (norm_sq,)) == ((reference_row(group, sums),),)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 8), st.integers(0, 30))
def test_shell_count_matches_enumeration(n, norm_sq):
    assert shell_count(n, norm_sq) == shell_vectors(n, norm_sq).count


@st.composite
def cosets(draw):
    """Any coset B L_q with n <= 6 and q in quarter units 0..3, group or not."""
    n = draw(st.integers(1, 6))
    perm = tuple(draw(st.permutations(range(n))))
    signs = tuple(draw(st.sampled_from((1, -1))) for _ in range(n))
    translation = tuple(draw(st.integers(0, 3)) for _ in range(n))
    return IsometryElement(SignedPermutation(perm, signs), translation)


@settings(deadline=None)
@given(cosets(), st.integers(0, 12))
def test_theta_key_counts_the_fixed_shell(element, norm_sq):
    counts = [0, 0, 0, 0]
    for v in fixed_vectors(shell_vectors(element.dim, norm_sq), element.linear):
        counts[sum(q * x for q, x in zip(element.translation, v)) % 4] += 1
    # v and -v pair i^-1 with i^1, so the sum is real: count_0 - count_2
    assert counts[1] == counts[3]
    assert series_of(element.theta_key, norm_sq)[norm_sq] == counts[0] - counts[2]
    assert coset_is_torsion_free(element) == reference_torsion_free(element)


# the catalog (dim6/z4* included), K_n for n <= 5, the Z2 family for n <= 6,
# T^3 and the hyperoctahedral B_3 and B_4
@pytest.mark.parametrize("label", list(CASES))
def test_signature_sums_the_traces_of_each_key(label):
    # each (theta key, one coset's traces) with the number of cosets that have both
    group = CASES[label]
    expected = {}
    for element in group.holonomy:
        traces = tuple(trace_p_oracle(element.linear, p) for p in range(group.dim + 1))
        expected[element.theta_key, traces] = expected.get((element.theta_key, traces), 0) + 1
    signature = group.signature
    assert dict(signature) == expected
    assert len(signature) == len(expected)
    assert group.signature is signature


@pytest.mark.parametrize(
    "label", [label for label, g in CASES.items() if classify_holonomy(g).elementary_rank is not None]
)
def test_only_the_identity_key_weighs_on_d_f(label):
    # sum_p tr_p(B) = det(I + B), which is 0 for an involution B != I
    group = CASES[label]
    identity_key = ((1, 0),) * group.dim
    for (key, traces), _count in group.signature:
        assert sum(traces) == (2**group.dim if key == identity_key else 0), key


def test_theta_counts_of_small_products():
    assert series_of((), 3) == [1, 0, 0, 0]
    # theta(q^2) and theta(-q^2) at N = 2: m = +-1, with sign -1 for c = 2
    assert series_of(((2, 0),), 2)[2] == 2
    assert series_of(((2, 2),), 2)[2] == -2
    # theta(q) theta(-q^2) at N = 3: (m_1, m_2) = (+-1, +-1), each of sign -1
    assert series_of(((1, 0), (2, 2)), 3)[3] == -4
    with pytest.raises(ValueError, match="c in"):
        series_of(((1, 1),), 1)


def test_theta_counts_match_the_recursion_on_every_catalog_and_k5_key():
    groups = [*map(catalog, catalog_names()), *kn_family(5)]
    keys = {key for group in groups for (key, _traces), _count in group.signature}
    assert len(keys) == 24
    for key, series in theta_series(keys, 60):
        assert series == [recursive_theta_counts(key, norm_sq) for norm_sq in range(61)], key


def _random_keys(seed: int, count: int):
    # in any order, not only sorted as IsometryElement.theta_key makes them
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple((rng.choice((1, 2, 3, 4, 8)), rng.choice((0, 2))) for _ in range(rng.randint(0, 8)))


def test_theta_counts_match_the_recursion_on_random_keys():
    keys = list(_random_keys(300, 300))
    walked = dict(theta_series(keys, 200))
    assert len(walked) == len(set(keys))
    for key in keys:
        assert walked[key] == [recursive_theta_counts(key, norm_sq) for norm_sq in range(201)], key


def test_theta_counts_match_the_recursion_where_the_table_grows_and_at_the_cap():
    # every top reads the same coefficients: N = 2^k - 1 and 2^k, up to SHELL_CAP
    norms = sorted({v for k in range(14) for v in (2**k - 1, 2**k)} | {8193, 9001, SHELL_CAP})
    keys = [((1, 0),) * 8, ((1, 2),) * 3 + ((2, 0), (4, 2)), *_random_keys(301, 2)]
    for top in (norms[len(norms) // 2], SHELL_CAP):
        for key, series in theta_series(keys, top):
            expected = [recursive_theta_counts(key, norm_sq) for norm_sq in norms if norm_sq <= top]
            assert [series[norm_sq] for norm_sq in norms if norm_sq <= top] == expected, key


@pytest.mark.parametrize("key", [((1, 1),), ((1, 0), (2, 3)), ((1, 3), (1, 0)), ((4, 1), (1, 2), (2, 5))])
def test_a_bad_theta_key_pair_raises_as_in_the_recursion(key):
    for norm_sq in (0, 5, 200):
        with pytest.raises(ValueError) as tabled:
            series_of(key, norm_sq)
        with pytest.raises(ValueError) as recursive:
            recursive_theta_counts(key, norm_sq)
        assert str(tabled.value) == str(recursive.value)


# engine-independent identities -------------------------------------------------


def _euler_groups():
    yield from kn_family(5)
    yield from z2_family(6)
    for name in catalog_names():
        yield catalog(name)


def test_euler_characteristic_of_every_row_vanishes():
    # Hodge theory pairs d_p(N) between degrees for N > 0; at N = 0 the
    # alternating sum is the Euler characteristic, 0 for a flat manifold.
    for group in _euler_groups():
        (rows,) = multiplicity_row((group,), tuple(range(31)))
        for norm_sq, row in enumerate(rows):
            assert sum((-1) ** p * d for p, d in enumerate(row)) == 0, (group.label(), norm_sq)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def jacobi_r4(n):
    return 1 if n == 0 else 8 * sum(d for d in _divisors(n) if d % 4)


def jacobi_r8(n):
    return 1 if n == 0 else 16 * sum((-1) ** (n + d) * d**3 for d in _divisors(n))


@pytest.mark.parametrize("n,jacobi", [(4, jacobi_r4), (8, jacobi_r8)])
def test_torus_rows_follow_jacobi(n, jacobi):
    shells = series_of(((1, 0),) * n, 1000)
    (rows,) = multiplicity_row((torus(n),), tuple(range(1001)))
    for norm_sq, row in enumerate(rows):
        size = jacobi(norm_sq)
        assert shells[norm_sq] == size
        assert row == tuple(binomial(n, p) * size for p in range(n + 1))


def test_torus_row_far_out_in_dimension_eight():
    size = jacobi_r8(2000)
    assert multiplicity_row((torus(8),), (2000,)) == ((tuple(binomial(8, p) * size for p in range(9)),),)


def test_torus_row_at_the_shell_cap_in_dimension_eight():
    # the largest row the cap admits, within its stated cost
    multiplicity_row.cache_clear()
    start = time.perf_counter()
    ((row,),) = multiplicity_row((torus(8),), (SHELL_CAP,))
    elapsed = time.perf_counter() - start
    size = jacobi_r8(SHELL_CAP)
    assert row == tuple(binomial(8, p) * size for p in range(9))
    assert elapsed < 10.0, f"multiplicity_row(torus(8), {SHELL_CAP}) took {elapsed:.2f} s"


def test_torus_row_at_the_shell_cap_in_dimension_sixty_four():
    # the costliest torus row the caps admit, within bieberbach.DIM_CAP's stated cost
    multiplicity_row.cache_clear()
    start = time.perf_counter()
    ((row,),) = multiplicity_row((torus(DIM_CAP),), (SHELL_CAP,))
    elapsed = time.perf_counter() - start
    size = shell_count(DIM_CAP, SHELL_CAP)
    assert row == tuple(binomial(DIM_CAP, p) * size for p in range(DIM_CAP + 1))
    assert elapsed < 20.0, f"multiplicity_row(torus({DIM_CAP}), {SHELL_CAP}) took {elapsed:.2f} s"


def test_compare_to_the_shell_cap_in_dimension_sixteen(capsys):
    multiplicity_row.cache_clear()
    start = time.perf_counter()
    code = cli.main(["compare", "torus:16", "torus:16", "--nmax", "10000"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out == "T^16 vs T^16: equal in mode f for all N <= 10000\n"
    assert elapsed < 15.0, f"compare torus:16 torus:16 --nmax 10000 took {elapsed:.2f} s"
