"""Engine-independent checks of flatspec's output.

Nothing here imports flatspec.  The lattice count r_n(N), the number of
integer vectors of squared norm N in Z^n, comes from a sum-of-squares
recursion, and everything else from how the benchmark built its inputs:

* every row: sum_p (-1)^p d_p(N) = 0, that is d_e = d_o; d_f, d_e and
  d_o are the sums of the row; and 0 <= d_p(N) <= C(n, p) r_n(N);
* d_0(0) = 1;
* d_p = d_{n-p} when every generator has determinant 1;
* d_f = 2^(n-k) r_n(N) for holonomy Z2^k (the paper's theorem, whose
  other half d_e = d_o is the Euler identity), which also fixes every
  compare verdict between such groups;
* validate reports what the input's construction implies;
* a K_n sweep passes every member once and ends with the count line.

Each check returns None for a correct output, else the reason it failed.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

from inputs import kn_bits, kn_label, kn_size


@lru_cache(maxsize=None)
def shell_counts(n: int, top: int) -> tuple[int, ...]:
    """r_n(N) for N = 0..top."""
    squares = [0] * (top + 1)
    root = 0
    while root * root <= top:
        squares[root * root] += 1 if root == 0 else 2
        root += 1
    counts = [1] + [0] * top
    for _ in range(n):
        counts = [
            sum(counts[m - s] * squares[s] for s in range(m + 1) if squares[s])
            for m in range(top + 1)
        ]
    return tuple(counts)


def shell_count(n: int, norm_sq: int) -> int:
    return shell_counts(n, norm_sq)[norm_sq]


def z2k_value(n: int, rank: int, norm_sq: int, mode: str) -> int:
    """d_f, d_e or d_o of a Z2^rank group by the theorem."""
    full = 2 ** (n - rank) * shell_count(n, norm_sq)
    return full if mode == "f" else full // 2


def expected_comparison(n: int, left_rank: int, right_rank: int, mode: str, n_max: int):
    """(N, left, right) of the first difference, or None if equal up to n_max."""
    for norm_sq in range(n_max + 1):
        a = z2k_value(n, left_rank, norm_sq, mode)
        b = z2k_value(n, right_rank, norm_sq, mode)
        if a != b:
            return norm_sq, a, b
    return None


def _load_json(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def _row_error(group: dict, norm_sq: int, row: dict) -> str | None:
    n = group["dim"]
    d = row.get("d")
    where = f"{group['label']} N={norm_sq}"
    if not isinstance(d, list) or len(d) != n + 1:
        return f"{where}: expected {n + 1} multiplicities, got {d!r}"
    if any(type(v) is not int or v < 0 for v in d):
        return f"{where}: multiplicities must be integers >= 0, got {d}"
    if (row.get("d_f"), row.get("d_e"), row.get("d_o")) != (sum(d), sum(d[0::2]), sum(d[1::2])):
        return f"{where}: d_f, d_e, d_o do not match the row {d}"
    if sum(d[0::2]) != sum(d[1::2]):
        return f"{where}: Euler identity fails, sum (-1)^p d_p != 0 for {d}"
    shell = shell_count(n, norm_sq)
    if any(v > math.comb(n, p) * shell for p, v in enumerate(d)):
        return f"{where}: some d_p exceeds C(n, p) r_n(N) with r_n(N) = {shell}"
    if norm_sq == 0 and d[0] != 1:
        return f"{where}: d_0(0) = {d[0]}, expected 1"
    if group["orientable"] and d != d[::-1]:
        return f"{where}: orientable but d_p != d_(n-p) in {d}"
    rank = group["rank"]
    if rank is not None and sum(d) != z2k_value(n, rank, norm_sq, "f"):
        return f"{where}: d_f = {sum(d)}, theorem gives 2^(n-k) r_n(N) = {z2k_value(n, rank, norm_sq, 'f')}"
    return None


def check_spectrum(expect: dict, code: int, stdout: str) -> str | None:
    """``expect``: groups [{label, dim, orientable, rank}] and norms."""
    if code != 0:
        return f"exit code {code}"
    obj, error = _load_json(stdout)
    if error:
        return error
    rows = obj.get("rows") if isinstance(obj, dict) else None
    wanted = [(group, norm_sq) for norm_sq in expect["norms"] for group in expect["groups"]]
    if not isinstance(rows, list) or len(rows) != len(wanted):
        return f"expected {len(wanted)} rows"
    for row, (group, norm_sq) in zip(rows, wanted):
        if (row.get("group"), row.get("N")) != (group["label"], norm_sq):
            return f"row {row.get('group')} N={row.get('N')} where {group['label']} N={norm_sq} was due"
        error = _row_error(group, norm_sq, row)
        if error:
            return error
    return None


def check_sweep(expect: dict, code: int, stdout: str) -> str | None:
    """``expect``: dim and nmax of ``family kn --verify-theorem``."""
    n, n_max = expect["dim"], expect["nmax"]
    if code != 0:
        return f"exit code {code}"
    total = kn_size(n)
    lines = stdout.splitlines()
    wanted = {f"{kn_label(n, kn_bits(n, i))}: pass (N <= {n_max})" for i in range(total)}
    passes = lines[:-1]
    if len(passes) != total or set(passes) != wanted:
        missing = len(wanted - set(passes))
        return f"expected {total} distinct pass lines, got {len(passes)} lines, {missing} missing"
    final = f"{total}/{total} groups satisfy d_f = 2^(n-k)|shell| and d_e = d_o"
    if not lines or lines[-1] != final:
        return f"last line is not {final!r}"
    return None


def check_compare(expect: dict, code: int, stdout: str) -> str | None:
    """``expect``: dim, left and right {label, rank}, mode and nmax."""
    if code != 0:
        return f"exit code {code}"
    obj, error = _load_json(stdout)
    if error:
        return error
    left, right = expect["left"], expect["right"]
    diff = expected_comparison(expect["dim"], left["rank"], right["rank"], expect["mode"], expect["nmax"])
    wanted = {
        "left": left["label"],
        "right": right["label"],
        "mode": expect["mode"],
        "n_max": expect["nmax"],
        "equal": diff is None,
        "first_difference": None if diff is None else dict(zip(("N", "left", "right"), diff)),
    }
    if obj != wanted:
        return f"verdict {obj!r}, expected {wanted!r}"
    return None


def check_validate(expect: dict, code: int, stdout: str) -> str | None:
    """``expect``: label, dim, rank, orientable and whether it is accepted."""
    accept = expect["accept"]
    if code != (0 if accept else 2):
        return f"exit code {code} for a group that should be {'accepted' if accept else 'rejected'}"
    obj, error = _load_json(stdout)
    if error:
        return error
    rank = expect["rank"]
    wanted = {
        "dim": expect["dim"],
        "name": expect["label"],
        "accepted": accept,
        "closure": True,
        "cocycle": True,
        "torsion_free": accept,
        "holonomy_order": 2**rank,
        "holonomy": f"Z2^{rank}",
        "elementary_rank": rank,
        "diagonal_type": True,
        "orientable": expect["orientable"],
    }
    if not isinstance(obj, dict):
        return "report is not a JSON object"
    wrong = sorted(key for key, value in wanted.items() if obj.get(key) != value)
    if wrong:
        return "report fields " + ", ".join(f"{k}={obj.get(k)!r}" for k in wrong) + " are wrong"
    return None


CHECKS = {
    "spectrum": check_spectrum,
    "sweep": check_sweep,
    "compare": check_compare,
    "validate": check_validate,
}
