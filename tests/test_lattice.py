"""Shell enumeration against the theta-series oracle and brute-force filters."""

import ast
import importlib
import inspect
import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatspec import lattice
from flatspec.arith import binomial
from flatspec.bieberbach import IsometryElement, SignedPermutation
from flatspec.lattice import (
    ShellCapExceeded,
    fixed_vectors,
    shell_vectors,
    theta_counts,
)


def theta_shell_counts(n: int, n_max: int) -> list[int]:
    """Coefficients of (sum_m q^(m^2))^n up to q^n_max, by direct convolution."""
    base = [0] * (n_max + 1)
    base[0] = 1
    m = 1
    while m * m <= n_max:
        base[m * m] = 2
        m += 1
    result = [0] * (n_max + 1)
    result[0] = 1
    for _ in range(n):
        fresh = [0] * (n_max + 1)
        for i, a in enumerate(result):
            if a == 0:
                continue
            for j, b in enumerate(base[: n_max + 1 - i]):
                if b:
                    fresh[i + j] += a * b
        result = fresh
    return result


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shell_sizes_match_theta_series(n):
    counts = theta_shell_counts(n, 20)
    for norm_sq in range(21):
        assert shell_vectors(n, norm_sq).count == counts[norm_sq]


def test_shell_3_1_exact_vectors():
    assert shell_vectors(3, 1).vectors == (
        (-1, 0, 0),
        (0, -1, 0),
        (0, 0, -1),
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_shell_norm_two_size(n):
    assert shell_vectors(n, 2).count == 4 * binomial(n, 2)


def test_shell_3_5_has_24_vectors():
    assert shell_vectors(3, 5).count == 24


@pytest.mark.parametrize("n", [1, 2, 5])
def test_zero_shell_is_origin(n):
    assert shell_vectors(n, 0).vectors == ((0,) * n,)


def test_shell_order_and_negation_closure():
    shell = shell_vectors(4, 6)
    assert list(shell.vectors) == sorted(shell.vectors)
    assert len(set(shell.vectors)) == shell.count
    vectors = set(shell.vectors)
    for v in vectors:
        assert tuple(-x for x in v) in vectors
        assert sum(x * x for x in v) == 6


def test_shell_cap_error_names_the_cap(monkeypatch):
    monkeypatch.setattr(lattice, "SHELL_CAP", 49)
    with pytest.raises(ShellCapExceeded) as err:
        shell_vectors(3, 50)
    assert str(err.value) == "squared norm 50 exceeds the shell cap 49"
    # one kind for every limit error, like HolonomyExpansionError
    assert isinstance(err.value, ValueError)


def test_shell_cap_env_override(monkeypatch):
    # the cap is a constant read at each call, so patching it takes effect
    monkeypatch.setattr(lattice, "SHELL_CAP", 3)
    with pytest.raises(ShellCapExceeded):
        shell_vectors(2, 4)
    assert shell_vectors(2, 2).count == 4


def test_no_module_reads_the_environment():
    # every limit is a module constant: no setting may come from os.environ
    import flatspec

    environment = {"environ", "environb", "getenv", "getenvb"}
    reads = []
    for info in pkgutil.iter_modules(flatspec.__path__):
        source = inspect.getsource(importlib.import_module(f"flatspec.{info.name}"))
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and node.attr in environment:
                reads.append(f"{info.name}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{info.name}: {a.name}" for a in node.names if a.name in environment]
    assert reads == []


def test_shell_rejects_bad_arguments():
    with pytest.raises(ValueError):
        shell_vectors(0, 1)
    with pytest.raises(ValueError):
        shell_vectors(2, -1)


# fixed vectors ------------------------------------------------------------


def test_fixed_vectors_examples():
    shell = shell_vectors(3, 1)
    b = SignedPermutation.diagonal((-1, 1, 1))
    assert fixed_vectors(shell, b) == ((0, -1, 0), (0, 0, -1), (0, 0, 1), (0, 1, 0))
    assert fixed_vectors(shell, SignedPermutation.identity(3)) == shell.vectors
    empty = fixed_vectors(shell_vectors(3, 5), SignedPermutation.diagonal((-1, -1, 1)))
    assert empty == ()


def test_fixed_vectors_dimension_mismatch():
    with pytest.raises(ValueError):
        fixed_vectors(shell_vectors(3, 1), SignedPermutation.identity(2))


@st.composite
def signed_permutations(draw, max_dim=6):
    n = draw(st.integers(1, max_dim))
    perm = tuple(draw(st.permutations(range(n))))
    signs = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
    return SignedPermutation(perm, signs)


@settings(deadline=None)
@given(signed_permutations(), st.integers(0, 12))
def test_fixed_vectors_agree_with_brute_filter(b, norm_sq):
    shell = shell_vectors(b.dim, norm_sq)
    brute = tuple(v for v in shell.vectors if b.apply(v) == v)
    assert fixed_vectors(shell, b) == brute
    # one integer per positive cycle: the theta series counts the same set
    assert theta_counts(IsometryElement(b, (0,) * b.dim).theta_key(), norm_sq) == len(brute)


def fixed_space_dim(b: SignedPermutation) -> int:
    """dim ker(B - Id) as the theta key reads it: one pair per cycle of
    sign product +1, whatever the translation."""
    return len(IsometryElement(b, (0,) * b.dim).theta_key())


def test_fixed_space_dim_examples():
    swap_block = SignedPermutation((1, 0, 2), (1, 1, 1))  # diag(J, 1)
    assert fixed_space_dim(swap_block) == 2
    for n in (1, 3, 6):
        assert fixed_space_dim(SignedPermutation.identity(n)) == n
    mostly_flipped = SignedPermutation.diagonal((-1, -1, -1, 1))
    assert fixed_space_dim(mostly_flipped) == 1


def _rank_over_q(matrix: list[list]) -> int:
    """Row rank by fraction-exact Gaussian elimination."""
    from fractions import Fraction

    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_fixed_space_dim_matches_rational_rank():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 6)
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        b = SignedPermutation(tuple(perm), tuple(signs))
        # build B - Id column by column from the action on basis vectors
        columns = []
        for j in range(n):
            basis = tuple(1 if k == j else 0 for k in range(n))
            columns.append(b.apply(basis))
        matrix = [[columns[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
        assert fixed_space_dim(b) == n - _rank_over_q(matrix)
