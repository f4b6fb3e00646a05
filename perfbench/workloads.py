"""The benchmark's workloads: seeded job lists of flatspec CLI invocations.

Two workloads, each made of two parts that stress different layers:

* spectrum-compare: spectrum-deep (deep spectrum tables) and compare-scan
  (compare pairs that run to the end or stop at N = 0);
* sweep-validate: kn-sweep (the theorem on every K_6 member) and
  validate-input (large groups, half of them to be rejected).

Pairing the parts gives each run enough work to average out the machine's
drift while every part is still measured; the detail line of a run gives
each job's own wall time.

Every job carries what the checker needs to know about its inputs, the work
items it is credited with when it passes, and the number of multiplicity
rows its output needs.  The seed picks group members and compare modes; the
cost of a round does not depend on it, because every K_n member has the
same holonomy group and the long and early compare pairs keep fixed shares.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from check import expected_comparison
from inputs import (
    draw_kn_indices,
    kn_bits,
    kn_label,
    kn_member,
    kn_size,
    write_group,
    z2_member,
    z2_parameters,
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY keeps the smoke test quick."""

    z4_norms: int  # spectrum-deep: N = 0..z4_norms for the dim-6 Z4 examples
    kn_dim: int  # spectrum-deep: K_n members ...
    kn_norms: int  # ... with N = 0..kn_norms
    kn_members: int
    sweep_dim: int  # kn-sweep: family kn --dim sweep_dim --verify-theorem sweep_nmax
    sweep_nmax: int
    compare_dim: int
    compare_nmax: int
    compare_pairs: int  # pairs of each kind, long and early
    validate_dim: int
    validate_files: int  # files of each kind, intact and corrupted


FULL = Sizes(40, 7, 16, 3, 6, 2, 6, 20, 4, 8, 2)
TINY = Sizes(3, 5, 3, 2, 4, 2, 4, 3, 1, 5, 1)


@dataclass(frozen=True)
class Job:
    label: str
    kind: str  # names the checker in check.CHECKS
    argv: tuple[str, ...]
    expect: dict
    items: int  # rows (spectrum, compare) or groups (sweep, validate)
    rows_needed: int


# Quarter translations and complex characters; every generator has
# determinant 1, and none of the holonomy groups is elementary abelian.
Z4_GROUPS = ("dim6/z4z2_M", "dim6/z4z2_Mp", "dim6/z4_M", "dim6/z4_Mp")

MODES = ("f", "e", "o")


def _norms(top: int) -> list[int]:
    return list(range(top + 1))


def _kn_facts(n: int, bits) -> dict:
    return {"label": kn_label(n, bits), "dim": n, "orientable": False, "rank": n - 1}


def _spectrum_job(label: str, groups: list[dict], specs, norms: list[int]) -> Job:
    rows = len(groups) * len(norms)
    argv = ("spectrum", *specs, "--norms", ",".join(map(str, norms)), "--json")
    return Job(label, "spectrum", argv, {"groups": groups, "norms": norms}, rows, rows)


def spectrum_deep(rng: random.Random, sizes: Sizes, directory: Path) -> list[Job]:
    z4 = [{"label": name, "dim": 6, "orientable": True, "rank": None} for name in Z4_GROUPS]
    n = sizes.kn_dim
    members = [kn_bits(n, i) for i in draw_kn_indices(rng, n, sizes.kn_members)]
    paths = [write_group(directory, kn_member(n, bits)) for bits in members]
    return [
        _spectrum_job("z4", z4, Z4_GROUPS, _norms(sizes.z4_norms)),
        _spectrum_job(
            f"k{n}-members", [_kn_facts(n, bits) for bits in members], paths, _norms(sizes.kn_norms)
        ),
    ]


def kn_sweep(rng: random.Random, sizes: Sizes, directory: Path) -> list[Job]:
    n, n_max = sizes.sweep_dim, sizes.sweep_nmax
    argv = ("family", "kn", "--dim", str(n), "--verify-theorem", str(n_max))
    members = kn_size(n)
    return [Job("sweep", "sweep", argv, {"dim": n, "nmax": n_max}, members, members * (n_max + 1))]


def _compare_job(label: str, n: int, n_max: int, mode: str, left, right, paths) -> Job:
    diff = expected_comparison(n, left["rank"], right["rank"], mode, n_max)
    rows = 2 * ((n_max if diff is None else diff[0]) + 1)
    expect = {"dim": n, "left": left, "right": right, "mode": mode, "nmax": n_max}
    argv = ("compare", *paths, "--mode", mode, "--nmax", str(n_max), "--json")
    return Job(label, "compare", argv, expect, rows, rows)


def compare_scan(rng: random.Random, sizes: Sizes, directory: Path) -> list[Job]:
    """Long pairs: two K_n members, equal for every N by the theorem, so the
    scan runs to nmax.  Early pairs: a K_n member (k = n - 1) against a
    Z2-family member (k = 1), unequal at N = 0."""
    n, n_max = sizes.compare_dim, sizes.compare_nmax
    indices = iter(draw_kn_indices(rng, n, 3 * sizes.compare_pairs))
    jobs = []
    for pair in range(sizes.compare_pairs):
        a, b, c = (kn_member(n, kn_bits(n, next(indices))) for _ in range(3))
        z2 = z2_member(n, *rng.choice(z2_parameters(n)))
        for kind, left, right, right_rank in (("long", a, b, n - 1), ("early", c, z2, 1)):
            paths = [write_group(directory, left), write_group(directory, right)]
            jobs.append(
                _compare_job(
                    f"{kind}{pair}",
                    n,
                    n_max,
                    rng.choice(MODES),
                    {"label": left["name"], "rank": n - 1},
                    {"label": right["name"], "rank": right_rank},
                    paths,
                )
            )
    return jobs


def validate_input(rng: random.Random, sizes: Sizes, directory: Path) -> list[Job]:
    """Intact K_n members must be accepted.  In the others one generator's
    translation is zeroed, which leaves a reflection, so they must be
    rejected for torsion."""
    n = sizes.validate_dim
    jobs = []
    for i, index in enumerate(draw_kn_indices(rng, n, 2 * sizes.validate_files)):
        accept = i % 2 == 0
        obj = kn_member(n, kn_bits(n, index), None if accept else rng.randrange(n - 1))
        expect = {"label": obj["name"], "dim": n, "rank": n - 1, "orientable": False, "accept": accept}
        argv = ("validate", write_group(directory, obj))
        jobs.append(Job(f"{'accept' if accept else 'reject'}{i // 2}", "validate", argv, expect, 1, 0))
    return jobs


def spectrum_compare(rng: random.Random, sizes: Sizes, directory: Path) -> list[Job]:
    return spectrum_deep(rng, sizes, directory) + compare_scan(rng, sizes, directory)


def sweep_validate(rng: random.Random, sizes: Sizes, directory: Path) -> list[Job]:
    return kn_sweep(rng, sizes, directory) + validate_input(rng, sizes, directory)


WORKLOADS = {
    "spectrum-compare": spectrum_compare,
    "sweep-validate": sweep_validate,
}


def build_jobs(workload: str, seed: int, sizes: Sizes, directory: Path) -> list[Job]:
    """The job list of one round; the same seed gives the same jobs and files."""
    return WORKLOADS[workload](random.Random(seed), sizes, directory)
