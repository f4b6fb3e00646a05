"""Seeded input files for the benchmark, written without importing flatspec.

Group files use the interchange form the CLI reads: ``{"dim", "name",
"generators": [{"perm" (1-based), "signs", "translation"}]}``.  The
generators are written straight from the paper's parameters:

* a K_n member from its free bit vector: generator c (c < n - 1) negates
  axis c and translates by column c of the {0, 1/2} array, whose entries
  are the subdiagonal 1/2, the free bits above the diagonal and a last
  column that makes every row sum to 0 mod 1;
* a Z2-family member from (j, h): j swap blocks, h sign flips and the
  translation e_n / 2.
"""

from __future__ import annotations

import json
import random
from pathlib import Path


def free_positions(n: int) -> list[tuple[int, int]]:
    """0-based free array entries (r, c) with r < c <= n - 2, lexicographic."""
    return [(r, c) for r in range(n - 1) for c in range(r + 1, n - 1)]


def kn_size(n: int) -> int:
    """Number of K_n members, 2^((n-1)(n-2)/2)."""
    return 2 ** len(free_positions(n))


def kn_bits(n: int, index: int) -> tuple[int, ...]:
    """Bit vector of the member at a lexicographic index, as the CLI orders them."""
    count = len(free_positions(n))
    return tuple((index >> (count - 1 - i)) & 1 for i in range(count))


def kn_label(n: int, bits) -> str:
    text = "".join(str(b) for b in bits)
    return f"K{n}[{text}]" if text else f"K{n}"


def _half(bit: int):
    return "1/2" if bit else 0


def kn_member(n: int, bits, zero_translation: int | None = None) -> dict:
    """K_n member JSON.  With ``zero_translation = c`` generator c keeps its
    reflection but loses its translation, so the group has torsion."""
    halves = [[0] * n for _ in range(n)]
    for c in range(n - 1):
        halves[c + 1][c] = 1
    for (r, c), bit in zip(free_positions(n), bits):
        halves[r][c] = bit
    for r in range(n):
        halves[r][n - 1] = sum(halves[r][: n - 1]) % 2
    generators = []
    for c in range(n - 1):
        column = [0] * n if c == zero_translation else [halves[r][c] for r in range(n)]
        generators.append(
            {
                "perm": list(range(1, n + 1)),
                "signs": [-1 if k == c else 1 for k in range(n)],
                "translation": [_half(v) for v in column],
            }
        )
    name = kn_label(n, bits)
    if zero_translation is not None:
        name += f"-zero{zero_translation + 1}"
    return {"dim": n, "name": name, "generators": generators}


def z2_parameters(n: int) -> list[tuple[int, int]]:
    """All (j, h) with 0 <= j <= (n-1)//2, 0 <= h < n - 2j and j + h != 0."""
    return [(j, h) for j in range((n - 1) // 2 + 1) for h in range(n - 2 * j) if j + h]


def z2_member(n: int, j: int, h: int) -> dict:
    """Z2-family member JSON: diag(J,..,J, -1,..,-1, 1,..,1) L_{e_n/2}."""
    perm = list(range(1, n + 1))
    signs = [1] * n
    for k in range(j):
        perm[2 * k], perm[2 * k + 1] = 2 * k + 2, 2 * k + 1
    for i in range(2 * j, 2 * j + h):
        signs[i] = -1
    translation = [0] * (n - 1) + ["1/2"]
    return {
        "dim": n,
        "name": f"M[{j},{h}]",
        "generators": [{"perm": perm, "signs": signs, "translation": translation}],
    }


def draw_kn_indices(rng: random.Random, n: int, count: int) -> list[int]:
    """Distinct K_n member indices."""
    return rng.sample(range(kn_size(n)), count)


def write_group(directory: Path, obj: dict) -> str:
    """Write one group file named after the group and return its path."""
    directory.mkdir(parents=True, exist_ok=True)
    safe = obj["name"].replace("[", "_").replace("]", "").replace(",", "_")
    path = directory / f"{safe}.json"
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)
