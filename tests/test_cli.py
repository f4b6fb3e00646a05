"""CLI: golden outputs, interchange formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from flatspec import families, graphs, lattice, spectra
from flatspec.bieberbach import IsometryElement, SignedPermutation
from flatspec.cli import main
from flatspec.graphs import graph_of
from flatspec.spectra import multiplicity_row

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
DATA = HERE / "data"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def assert_golden(capsys, name, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert out == expected


def test_krawtchouk_goldens(capsys):
    assert_golden(capsys, "krawtchouk_n3.txt", "krawtchouk", "3")
    assert_golden(capsys, "krawtchouk_n4.txt", "krawtchouk", "4")


def test_krawtchouk_json_and_csv(capsys):
    code, out = run(capsys, "krawtchouk", "3", "--json")
    assert code == 0
    assert json.loads(out)["values"][2] == [3, -1, -1, 3]
    code, out = run(capsys, "krawtchouk", "2", "--csv")
    assert out.splitlines() == ["p,0,1,2", "0,1,1,1", "1,2,0,-2", "2,1,-1,1"]


def test_krawtchouk_range_is_enforced(capsys):
    code, out = run(capsys, "krawtchouk", "65")
    assert code == 2
    assert "error" in json.loads(out)


def test_dimension_cap_is_enforced_where_groups_are_built(capsys, tmp_path):
    swap = list(range(1, 66))
    swap[:2] = [2, 1]
    path = tmp_path / "dim65.json"
    path.write_text(json.dumps({"dim": 65, "generators": [{"perm": swap, "signs": [1] * 65}]}))
    message = "dimension 65 exceeds the cap of 64"
    for spec in ("torus:65", str(path)):
        code, out = run(capsys, "spectrum", spec, "--norms", "0,1,2")
        assert code == 2
        assert json.loads(out) == {"error": message}
    code, out = run(capsys, "validate", str(path))
    report = json.loads(out)
    assert code == 2 and not report["accepted"]
    assert report["error"] == message


@pytest.mark.parametrize("dim", [-1, 0])
def test_a_dimension_below_one_is_refused(capsys, tmp_path, dim):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"dim": dim}), encoding="utf-8")
    message = f"dimension must be >= 1, got {dim}"
    # main returns, so no traceback reaches the user
    for spec in (str(path), f"torus:{dim}"):
        code, out = run(capsys, "spectrum", spec, "--norms", "0,1")
        assert code == 2 and json.loads(out) == {"error": message}
    code, out = run(capsys, "validate", str(path))
    report = json.loads(out)
    assert code == 2 and not report["accepted"]
    assert report["error"] == message


def test_an_inconsistent_cocycle_names_its_translations(capsys, tmp_path):
    # the swap with translation (1/4, 1/4) squares to the identity with (1/2, 1/2)
    path = tmp_path / "inconsistent.json"
    generator = {"perm": [2, 1], "signs": [1, 1], "translation": ["1/4", "1/4"]}
    path.write_text(json.dumps({"dim": 2, "generators": [generator]}), encoding="utf-8")
    code, out = run(capsys, "spectrum", str(path), "--norms", "1")
    assert code == 2
    assert json.loads(out) == {
        "error": "inconsistent cocycle: linear part [e1,e2] carries translations "
        "(0, 0) and (1/2, 1/2) mod 1"
    }


def test_spectrum_goldens(capsys):
    assert_golden(
        capsys, "spectrum_dim3.txt",
        "spectrum", "dim3/m10", "dim3/m02", "dim3/m01", "--norms", "1,2",
    )
    assert_golden(
        capsys, "spectrum_dim4.txt",
        "spectrum", "dim4/m11", "dim4/m10", "dim4/m03", "dim4/m02", "dim4/m01",
        "--norms", "1,2",
    )
    assert_golden(
        capsys, "spectrum_hw3.txt",
        "spectrum", "hw3/M1", "hw3/M2", "hw3/M3", "--norms", "1,5", "--char-sums",
    )
    assert_golden(
        capsys, "spectrum_dim3.csv",
        "spectrum", "dim3/m10", "dim3/m02", "dim3/m01", "--norms", "1,2", "--csv",
    )
    assert_golden(capsys, "spectrum_torus3.txt", "spectrum", "torus:3", "--norms", "1")


def test_spectrum_repeated_norm_prints_one_block_per_listed_norm(capsys):
    argv = ("spectrum", "dim3/m10", "dim3/m02", "--norms", "1,0,1")
    code, out = run(capsys, *argv)
    assert code == 0
    blocks = out.rstrip("\n").split("\n\n")
    assert [block.splitlines()[0] for block in blocks] == ["N=1", "N=0", "N=1"]
    for block in blocks:
        assert [line.split()[0] for line in block.splitlines()[2:]] == ["dim3/m10", "dim3/m02"]
    assert blocks[0] == blocks[2]
    code, out = run(capsys, *argv, "--json")
    assert [(r["group"], r["N"]) for r in json.loads(out)["rows"]] == [
        ("dim3/m10", 1), ("dim3/m02", 1), ("dim3/m10", 0), ("dim3/m02", 0), ("dim3/m10", 1), ("dim3/m02", 1)
    ]
    code, out = run(capsys, *argv, "--csv")
    assert len(out.splitlines()) == 1 + 6


def test_spectrum_json_contains_parity_split(capsys):
    code, out = run(capsys, "spectrum", "hw3/M1", "--norms", "1", "--json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row == {"group": "hw3/M1", "N": 1, "d": [0, 6, 6, 0], "d_f": 12, "d_e": 6, "d_o": 6}


def test_spectrum_char_sums_json(capsys):
    code, out = run(capsys, "spectrum", "hw3/M3", "--norms", "5", "--json", "--char-sums")
    payload = json.loads(out)
    assert payload["char_sums"][0]["e"] == [
        {"re": 0, "im": 0},
        {"re": 0, "im": 0},
        {"re": -8, "im": 0},
    ]


def test_char_sums_of_a_k13_member_within_budget(capsys, tmp_path):
    # one membership check per coset: 4095 of them
    bits = [index % 2 for index in range(families.free_parameter_count(13))]
    group = families.kn_group_from_array(families.GhwArray.from_bits(13, bits))
    path = tmp_path / "k13.json"
    path.write_text(json.dumps(group.to_json()), encoding="utf-8")
    start = time.perf_counter()
    code, out = run(capsys, "spectrum", str(path), "--norms", "1", "--json", "--char-sums")
    elapsed = time.perf_counter() - start
    assert code == 0 and len(json.loads(out)["char_sums"][0]["e"]) == 4095
    assert elapsed < 2.0, f"--char-sums of a K_13 member took {elapsed:.2f} s"


def test_spectrum_from_group_file(capsys, tmp_path):
    path = tmp_path / "didicosm.json"
    from flatspec.families import catalog

    path.write_text(json.dumps(catalog("hw3/M1").to_json()), encoding="utf-8")
    code, out = run(capsys, "spectrum", str(path), "--norms", "1", "--csv")
    assert code == 0
    assert out.splitlines()[1] == "hw3/M1,1,0,6,6,0,12"


def test_spectrum_rejects_mixed_dimensions(capsys):
    code, out = run(capsys, "spectrum", "hw3/M1", "torus:4", "--norms", "1")
    assert code == 2
    assert "dimension" in json.loads(out)["error"]


def test_betti_golden(capsys):
    assert_golden(
        capsys, "betti_dim6.txt",
        "betti", "dim6/z4z2_M", "dim6/z4z2_Mp", "dim6/z4_M", "dim6/z4_Mp",
    )


def test_compare_golden_and_text(capsys):
    assert_golden(
        capsys, "compare_m1_m3_p2.json",
        "compare", "hw3/M1", "hw3/M3", "--mode", "2", "--nmax", "25", "--json",
    )
    code, out = run(capsys, "compare", "hw3/M1", "hw3/M2", "--mode", "f", "--nmax", "25")
    assert code == 0
    assert "equal in mode f for all N <= 25" in out
    code, out = run(capsys, "compare", "dim6/z4z2_M", "dim6/z4z2_Mp", "--mode", "p0")
    assert "equal" in out and "unequal" not in out


def test_family_counts(capsys):
    assert run(capsys, "family", "kn", "--dim", "4", "--count-only") == (0, "8\n")
    assert run(capsys, "family", "kn", "--dim", "8", "--count-only") == (0, "2097152\n")
    assert run(capsys, "family", "z2", "--dim", "4", "--count-only") == (0, "5\n")
    assert run(capsys, "family", "hw-catalog", "--dim", "3", "--count-only") == (0, "3\n")
    assert run(capsys, "family", "hw-catalog", "--dim", "5", "--count-only") == (0, "3\n")


@pytest.mark.parametrize(
    "kind, dim",
    [("z2", n) for n in range(2, 7)] + [("kn", n) for n in range(2, 6)]
    + [("hw-catalog", n) for n in (3, 5, 7)],
)
def test_family_count_matches_the_stream(capsys, kind, dim):
    code, count = run(capsys, "family", kind, "--dim", str(dim), "--count-only")
    assert code == 0
    code, out = run(capsys, "family", kind, "--dim", str(dim))
    assert code == 0
    assert int(count) == len(out.splitlines())


def test_family_stream_is_valid_group_json(capsys):
    code, out = run(capsys, "family", "z2", "--dim", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    from flatspec.bieberbach import group_from_json

    names = [group_from_json(json.loads(line)).name for line in lines]
    assert names == ["M[0,1]", "M[0,2]", "M[1,0]"]


def test_family_verify_theorem(capsys):
    code, out = run(capsys, "family", "kn", "--dim", "4", "--verify-theorem", "6")
    assert code == 0
    assert out.splitlines()[-1] == "8/8 groups satisfy d_f = 2^(n-k)|shell| and d_e = d_o"
    assert out.count("pass") == 8


def test_family_verify_theorem_reports_failures(capsys, monkeypatch):
    # every row, whichever path summed it, passes the one certification
    true_row = spectra._certified_row

    def sabotaged(totals, order, label, norm_sq):
        d = true_row(totals, order, label, norm_sq)
        return d if norm_sq < 2 else (d[0] + 1,) + d[1:]

    monkeypatch.setattr(spectra, "_certified_row", sabotaged)
    code, out = run(capsys, "family", "kn", "--dim", "4", "--verify-theorem", "3")
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 9
    assert all(line.endswith(": FAIL (N <= 3)") for line in lines[:8])
    assert lines[-1] == "0/8 groups satisfy d_f = 2^(n-k)|shell| and d_e = d_o"


def test_family_graphs_golden(capsys):
    assert_golden(capsys, "family_k4_graphs.txt", "family", "kn", "--dim", "4", "--graphs")


def test_graph_all_prints_the_family_graphs(capsys):
    assert_golden(capsys, "family_k4_graphs.txt", "graph", "--dim", "4", "--all")
    code, out = run(capsys, "graph", "--dim", "4", "--all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 8
    assert payload[0]["edges"] == [[2, 1], [2, 4], [3, 2], [3, 4], [4, 3], [4, 4]]


def test_graph_all_json_is_a_list_even_of_one(capsys):
    # K_2 has a single member
    code, out = run(capsys, "graph", "--dim", "2", "--all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0]["n"] == 2
    code, out = run(capsys, "graph", "--dim", "2", "--index", "0", "--json")
    assert json.loads(out) == payload[0]


def test_family_sweep_holds_few_groups(capsys, monkeypatch):
    # each member costs two rows (N = 0, 1), so a full row cache pins
    # maxsize // 2 groups, plus the one being checked; the bit sweep
    # reads its members off their bits and holds none
    alive = weakref.WeakSet()
    most = 0
    build = families.kn_group_from_array

    def tracked(array):
        nonlocal most
        group = build(array)
        alive.add(group)
        most = max(most, len(alive))
        return group

    monkeypatch.setattr(families, "kn_group_from_array", tracked)
    multiplicity_row.cache_clear()
    code, out = run(capsys, "family", "kn", "--dim", "5", "--verify-theorem", "1")
    assert code == 0
    assert out.splitlines()[-1].startswith("64/64 ")
    assert most <= multiplicity_row.cache_info().maxsize // 2 + 1


def test_family_sweep_takes_the_mask_walk(capsys, monkeypatch):
    # no product, cycle, element order or theta key, and no representatives
    def refuse(*args):
        raise AssertionError("the sweep read element data")

    for cls, name, patch in (
        (IsometryElement, "compose", refuse),
        (IsometryElement, "theta_key", property(refuse)),
        (SignedPermutation, "cycles", property(refuse)),
        (SignedPermutation, "order", refuse),
    ):
        monkeypatch.setattr(cls, name, patch)
    # and no group: the members are read off their bits
    built = []
    for name in ("kn_group_from_array", "expand_holonomy"):
        monkeypatch.setattr(families, name, lambda *args, name=name: built.append(name))
    guarded = run(capsys, "family", "kn", "--dim", "5", "--verify-theorem", "2")
    assert built == []
    monkeypatch.undo()
    assert guarded == run(capsys, "family", "kn", "--dim", "5", "--verify-theorem", "2")
    assert guarded[0] == 0 and guarded[1].splitlines()[-1].startswith("64/64 ")


# sha256 prefixes of the stdout of every family sweep for n <= 6 and n_max in
# (0, 2, 5), recorded before the kn and group sweeps shared one scan; each
# run exits 0
SWEEP_STDOUT = {
    ("z2", 2, 0): "64a2110ea38f98da",
    ("z2", 2, 2): "550cea5c994c1e98",
    ("z2", 2, 5): "4c5b9f93d4595b8b",
    ("z2", 3, 0): "02d3c12431bcf90c",
    ("z2", 3, 2): "bf4c226ab8adf46b",
    ("z2", 3, 5): "067519738f86c9bd",
    ("z2", 4, 0): "3365eddf5cc24955",
    ("z2", 4, 2): "08bdb3963ce366e8",
    ("z2", 4, 5): "5641802e80f6555d",
    ("z2", 5, 0): "df35955365c817f0",
    ("z2", 5, 2): "f62db443e17ba7ff",
    ("z2", 5, 5): "4c0d7d95b4761e0f",
    ("z2", 6, 0): "64348ff02675e16f",
    ("z2", 6, 2): "f07316b1d278e627",
    ("z2", 6, 5): "06b9cc4f606b9f94",
    ("kn", 2, 0): "a826bcac0870549c",
    ("kn", 2, 2): "7d70c392b428b51c",
    ("kn", 2, 5): "c30cb67de42064be",
    ("kn", 3, 0): "e39915dbd1057d2f",
    ("kn", 3, 2): "4e151056e4c46b1a",
    ("kn", 3, 5): "e22748fefd98a977",
    ("kn", 4, 0): "e0abc58e16b2bba2",
    ("kn", 4, 2): "a6b39dbb27115586",
    ("kn", 4, 5): "0959705ebcba18b9",
    ("kn", 5, 0): "a02cdb191597ffc9",
    ("kn", 5, 2): "f10179a5e769a757",
    ("kn", 5, 5): "0464724ef6829e6b",
    ("kn", 6, 0): "2571212356492f57",
    ("kn", 6, 2): "ff6cf8b6cb1060fa",
    ("kn", 6, 5): "b33f9ed6851d00ca",
    ("hw-catalog", 3, 0): "0037d88b937ea243",
    ("hw-catalog", 3, 2): "7683d230038e9aea",
    ("hw-catalog", 3, 5): "1d0aff9585a15d57",
    ("hw-catalog", 5, 0): "5a42d11d24154326",
    ("hw-catalog", 5, 2): "bdf7f7290f8ac494",
    ("hw-catalog", 5, 5): "3f27db89bd3b9bae",
    ("hw-catalog", 7, 5): "f1d3a23f080a990c",
    ("z2", 16, 5): "f81b6fb113d41626",
}


@pytest.mark.parametrize("kind, dim, n_max", list(SWEEP_STDOUT))
def test_every_sweep_prints_its_recorded_stdout(capsys, kind, dim, n_max):
    code, out = run(capsys, "family", kind, "--dim", str(dim), "--verify-theorem", str(n_max))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == SWEEP_STDOUT[kind, dim, n_max]


# sha256 prefixes of the stdout of every z2 listing for n = 2..8 and of the
# three hw-catalog listings, recorded before the catalog and the z2 members
# were built through one generator-row builder; each run exits 0
LISTING_STDOUT = {
    ("z2", 2): "2e9083ec6a65fa8c",
    ("z2", 3): "42098b6f9ac11515",
    ("z2", 4): "e7caad48587016ec",
    ("z2", 5): "0ecf0a80ab0ab6f7",
    ("z2", 6): "6c9f6c734dd2bc49",
    ("z2", 7): "8511e4a8508d356b",
    ("z2", 8): "6a756d6c527dbfa1",
    ("hw-catalog", 3): "ca24b5a91bc6fbef",
    ("hw-catalog", 5): "ad987b0d419cec21",
    ("hw-catalog", 7): "0b7c40860087124b",
}


@pytest.mark.parametrize("kind, dim", list(LISTING_STDOUT))
def test_every_listing_prints_its_recorded_stdout(capsys, kind, dim):
    code, out = run(capsys, "family", kind, "--dim", str(dim))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == LISTING_STDOUT[kind, dim]


def test_the_k7_theorem_sweep_within_budget(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "family", "kn", "--dim", "7", "--verify-theorem", "2")
    elapsed = time.perf_counter() - start
    assert code == 0 and out.splitlines()[-1].startswith("32768/32768 ")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "3ce7d37d4129252c"
    assert elapsed < 2.0, f"the K_7 sweep took {elapsed:.2f} s"


def test_the_z2_theorem_sweep_at_the_dimension_cap_within_budget(capsys):
    # 1055 members to N = 10: each row's Krawtchouk sum runs over the two x
    # a member's cosets take, not over all 65
    start = time.perf_counter()
    code, out = run(capsys, "family", "z2", "--dim", "64", "--verify-theorem", "10")
    elapsed = time.perf_counter() - start
    assert code == 0 and out.splitlines()[-1].startswith("1055/1055 ")
    assert elapsed < 2.0, f"the dim-64 z2 sweep took {elapsed:.2f} s"


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("n_max", [0, 1, 4])
def test_the_theorem_sweep_prints_the_group_paths_lines(capsys, dim, n_max):
    # the sweep reads its members off their arrays; the group path builds
    # each one and scans it with theorem_check
    members = list(families.kn_family(dim))
    verdicts = list(zip([g.label() for g in members], spectra.theorem_check(members, n_max)))
    passed = sum(failing is None for _label, failing in verdicts)
    lines = [f"{label}: {'pass' if failing is None else 'FAIL'} (N <= {n_max})" for label, failing in verdicts]
    lines.append(f"{passed}/{len(verdicts)} groups satisfy d_f = 2^(n-k)|shell| and d_e = d_o")
    expected = (0 if passed == len(verdicts) else 2, "\n".join(lines) + "\n")
    assert run(capsys, "family", "kn", "--dim", str(dim), "--verify-theorem", str(n_max)) == expected


@pytest.mark.parametrize(
    "dim, n_max, message",
    [
        ("1", "2", "the family needs n >= 2, got 1"),
        ("9", "2", "dimension 9 exceeds the family cap 8"),
        ("9", "-1", "dimension 9 exceeds the family cap 8"),
        ("4", "10001", "squared norm 10001 exceeds the shell cap 10000"),
    ],
)
def test_the_theorem_sweep_checks_its_input_first(capsys, dim, n_max, message):
    code, out = run(capsys, "family", "kn", "--dim", dim, "--verify-theorem", n_max)
    assert (code, json.loads(out)) == (2, {"error": message})


def test_negative_nmax_is_an_error(capsys):
    code, out = run(capsys, "family", "kn", "--dim", "3", "--verify-theorem", "-1")
    assert (code, json.loads(out)) == (2, {"error": "n_max must be >= 0, got -1"})
    code, out = run(capsys, "compare", "hw3/M1", "dim3/m10", "--nmax", "-1")
    assert (code, json.loads(out)) == (2, {"error": "n_max must be >= 0, got -1"})


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_graph_all_json_streams_the_list_bytes(capsys, dim):
    code, out = run(capsys, "graph", "--dim", str(dim), "--all", "--json")
    payload = [graph_of(array).to_json() for array in families.kn_arrays(dim)]
    assert code == 0 and out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "--dim", "5", "--all", "--json"),
        ("graph", "--dim", "5", "--all"),
        ("family", "kn", "--dim", "5", "--graphs"),
    ],
)
def test_graph_output_holds_one_graph_at_a_time(capsys, monkeypatch, argv):
    # each member is printed before the next graph is made
    alive = weakref.WeakSet()
    most = 0
    printed = []
    build = graphs.graph_of

    def tracked(array):
        nonlocal most
        printed.append(len(capsys.readouterr().out))
        graph = build(array)
        alive.add(graph)
        most = max(most, len(alive))
        return graph

    monkeypatch.setattr(graphs, "graph_of", tracked)
    code, _out = run(capsys, *argv)
    assert code == 0 and len(printed) == 64 and most == 1
    assert all(printed[1:]), printed


def test_family_graphs_build_no_groups(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("--graphs built a group")

    monkeypatch.setattr(families, "expand_holonomy", refuse)
    assert_golden(capsys, "family_k4_graphs.txt", "family", "kn", "--dim", "4", "--graphs")


def test_family_kn_count_beyond_the_cap(capsys):
    code, out = run(capsys, "family", "kn", "--dim", "9", "--count-only")
    assert code == 2
    assert json.loads(out) == {"error": "dimension 9 exceeds the family cap 8"}


def test_family_graphs_requires_kn(capsys):
    code, out = run(capsys, "family", "z2", "--dim", "3", "--graphs")
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ("--count-only", "--verify-theorem", "2"),
        ("--count-only", "--graphs"),
        ("--verify-theorem", "2", "--graphs"),
    ],
)
def test_family_output_flags_exclude_each_other(capsys, flags):
    # each picks what family prints, so none may silently drop another
    for kind in ("kn", "z2"):
        with pytest.raises(SystemExit) as exit_info:
            main(["family", kind, "--dim", "4", *flags])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "hw3/M1", "--norms", "1", "--json", "--csv"),
        ("krawtchouk", "3", "--json", "--csv"),
        ("graph", "--dim", "4", "--all", "--index", "99"),
    ],
    ids=["spectrum-json-csv", "krawtchouk-json-csv", "graph-all-index"],
)
def test_format_and_member_flags_exclude_each_other(capsys, argv):
    # each picks what the command prints, so none may silently drop another
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


ARRAY_ALONE = "--array takes no --dim, --index or --all"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("spectrum", "hw3/M1", "--norms", "1", "--csv", "--char-sums"),
         "--char-sums has no CSV form: use --json or the table"),
        (("graph", "--array", str(DATA / "k4_array.json"), "--dim", "4"), ARRAY_ALONE),
        (("graph", "--array", str(DATA / "k4_array.json"), "--index", "0"), ARRAY_ALONE),
        (("graph", "--array", str(DATA / "k4_array.json"), "--all"), ARRAY_ALONE),
        (("graph", "--array", str(DATA / "k4_array.json"), "--all", "--json"), ARRAY_ALONE),
    ],
    ids=["csv-char-sums", "array-dim", "array-index", "array-all", "array-all-json"],
)
def test_flags_that_would_be_ignored_are_refused(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": message}


def test_a_closed_pipe_ends_the_run_quietly():
    # the reader takes one line and closes: the writer prints nothing more,
    # exits nonzero and reports nothing on stderr
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "flatspec.cli", "graph", "--dim", "6", "--all"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"// K6[0000000000]\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) != 0
    assert stderr == b""


def test_graph_golden_and_json(capsys):
    assert_golden(capsys, "graph_klein.dot", "graph", "--dim", "2")
    code, out = run(capsys, "graph", "--dim", "4", "--index", "0", "--json")
    assert json.loads(out)["edges"] == [[2, 1], [2, 4], [3, 2], [3, 4], [4, 3], [4, 4]]


def test_graph_index_picks_the_lexicographic_member(capsys):
    from flatspec.families import kn_arrays
    from flatspec.graphs import graph_of

    for index, array in enumerate(kn_arrays(4)):
        code, out = run(capsys, "graph", "--dim", "4", "--index", str(index), "--json")
        assert code == 0
        assert json.loads(out) == graph_of(array).to_json()


def test_graph_index_builds_one_array(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "graph", "--dim", "8", "--index", "2097151", "--json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    graph = json.loads(out)
    assert graph["n"] == 8
    # every free bit set: all 21 free entries plus the forced ones
    assert [1, 7] in graph["edges"] and [8, 8] in graph["edges"]


def test_family_count_errors_are_kept(capsys):
    # the count fails where the listing fails, with the same line
    for kind, dim in [("kn", "1"), ("kn", "9"), ("z2", "1"), ("z2", "65"), ("hw-catalog", "4")]:
        code, out = run(capsys, "family", kind, "--dim", dim, "--count-only")
        assert code == 2
        assert "error" in json.loads(out)
        assert run(capsys, "family", kind, "--dim", dim) == (code, out)


def test_hw_names_resolve_through_the_catalog(capsys):
    code, out = run(capsys, "betti", "hw5/H2", "--json")
    assert code == 0
    assert json.loads(out)["rows"][0]["group"] == "hw5/H2"


def test_graph_from_array_file(capsys):
    code, out = run(capsys, "graph", "--array", str(DATA / "k4_array.json"), "--json")
    assert code == 0
    assert json.loads(out)["n"] == 4


def test_graph_index_out_of_range(capsys):
    code, out = run(capsys, "graph", "--dim", "3", "--index", "5")
    assert code == 2
    assert json.loads(out) == {"error": "index 5 outside 0..1"}


def test_validate_accepts_klein_bottle(capsys):
    code, out = run(capsys, "validate", str(DATA / "klein.json"))
    assert code == 0
    expected = (GOLDEN / "validate_klein.json").read_text(encoding="utf-8")
    assert out == expected


def test_validate_rejects_point_reflection(capsys):
    code, out = run(capsys, "validate", str(DATA / "point_reflection.json"))
    assert code == 2
    report = json.loads(out)
    assert report["accepted"] is False
    assert report["torsion_free"] is False


def test_validate_rejects_unsupported_denominator(capsys, tmp_path):
    path = tmp_path / "thirds.json"
    path.write_text(
        json.dumps(
            {
                "dim": 1,
                "generators": [{"perm": [1], "signs": [-1], "translation": ["1/3"]}],
            }
        ),
        encoding="utf-8",
    )
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert "denominator" in json.loads(out)["error"]


# a reflection orbifold: diag(-1, 1) with no translation fixes a line
REFLECTION = {"dim": 2, "generators": [{"perm": [1, 2], "signs": [-1, 1], "translation": [0, 0]}]}


def test_group_files_with_torsion_are_rejected(capsys, tmp_path):
    path = tmp_path / "reflection.json"
    path.write_text(json.dumps(REFLECTION), encoding="utf-8")
    for argv in (
        ("spectrum", str(path), "--norms", "1"),
        ("betti", str(path)),
        ("compare", str(path), "torus:2", "--nmax", "3"),
        ("compare", "torus:2", f"file:{path}", "--nmax", "3"),
    ):
        code, out = run(capsys, *argv)
        assert code == 2, argv
        payload = json.loads(out)
        assert set(payload) == {"error", "report"}
        assert payload["report"]["torsion_free"] is False
        assert payload["report"]["name"] == "reflection.json"


def _generator(**fields):
    return {"perm": [1, 2], "signs": [-1, 1], "translation": [0, "1/2"], **fields}


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"dim": 2, "generators": [_generator(translation=[0, 0.5])]}, "cannot parse 0.5"),
        ({"dim": 2, "generators": [_generator(translation=[0, True])]}, "cannot parse True"),
        ({"dim": 2, "generators": [_generator(perm=[1.9, 2])]}, "perm must be a JSON integer"),
        ({"dim": 2, "generators": [_generator(signs=[-1.5, True])]}, "signs must be a JSON integer"),
        ({"dim": 2, "generators": [_generator(signs=[-1, True])]}, "signs must be a JSON integer"),
        ({"dim": 2.0, "generators": [_generator()]}, "dim must be a JSON integer"),
        ({"dim": True, "generators": []}, "dim must be a JSON integer"),
        ([{"dim": 2}], "expected a JSON object at the top level"),
    ],
)
def test_malformed_group_json_is_an_error(capsys, tmp_path, payload, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    for argv in (("validate", str(path)), ("spectrum", str(path), "--norms", "1")):
        code, out = run(capsys, *argv)
        assert code == 2, argv
        assert message in json.loads(out)["error"], argv


@pytest.mark.parametrize(
    "command,payload,message",
    [
        ("validate", {"generators": []}, "a group needs the field 'dim'"),
        ("validate", {"dim": 2, "generators": [5]}, "generator 1 must be a JSON object, got 5"),
        ("graph", {"n": 2}, "an array needs the field 'rows'"),
        (
            "spectrum",
            {"dim": 3, "generators": [{"perm": [1, 1, 2], "signs": [1, 1, 1]}]},
            "perm [1, 1, 2] is not a permutation of 1..3",
        ),
        # a string or number where the file needs an array
        (
            "validate",
            {
                "dim": 3,
                "generators": [{"perm": [1, 2, 3], "signs": [1, -1, -1], "translation": "012"}],
            },
            "translation must be a JSON array, got '012'",
        ),
        ("validate", {"dim": 2, "generators": 5}, "generators must be a JSON array, got 5"),
        (
            "validate",
            {"dim": 2, "generators": [_generator(perm=5)]},
            "perm must be a JSON array, got 5",
        ),
        (
            "spectrum",
            {"dim": 2, "generators": [_generator(signs="-1")]},
            "signs must be a JSON array, got '-1'",
        ),
        (
            "spectrum",
            {"dim": 1, "generators": [{"perm": [1], "signs": [1], "translation": "1/2"}]},
            "translation must be a JSON array, got '1/2'",
        ),
        ("graph", {"rows": "0110"}, "rows must be a JSON array, got '0110'"),
        ("graph", {"rows": [[0, "1/2"], "10"]}, "row 2 must be a JSON array, got '10'"),
        # a name that is neither a string nor null
        ("spectrum", {"dim": 1, "name": 5}, "name must be a JSON string or null, got 5"),
        ("spectrum", {"dim": 1, "name": ["a"]}, "name must be a JSON string or null, got ['a']"),
        ("validate", {"dim": 1, "name": {}}, "name must be a JSON string or null, got {}"),
    ],
    ids=[
        "no-dim",
        "int-generator",
        "no-rows",
        "repeated-perm",
        "string-translation",
        "int-generators",
        "int-perm",
        "string-signs",
        "rational-translation",
        "string-rows",
        "string-row",
        "int-name",
        "list-name",
        "object-name",
    ],
)
def test_malformed_json_names_the_field_as_written(capsys, tmp_path, command, payload, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    argv = {
        "validate": ("validate", str(path)),
        "graph": ("graph", "--array", str(path)),
        "spectrum": ("spectrum", str(path), "--norms", "1"),
    }[command]
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": message}


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"rows": [[0, 0], [0.5, 0.5]]}, "cannot parse 0.5"),
        ([[0, 0], ["1/2", "1/2"]], "expected a JSON object at the top level"),
    ],
)
def test_malformed_array_json_is_an_error(capsys, tmp_path, payload, message):
    path = tmp_path / "array.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out = run(capsys, "graph", "--array", str(path))
    assert code == 2
    assert message in json.loads(out)["error"]


@pytest.mark.parametrize("command", ["validate", "spectrum"])
def test_deeply_nested_json_names_the_file(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    argv = {
        "validate": ("validate", str(path)),
        "spectrum": ("spectrum", str(path), "--norms", "1"),
    }[command]
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": f"{path}: JSON nested too deeply to read"}


def test_a_torus_spec_names_its_form(capsys):
    code, out = run(capsys, "spectrum", "torus:abc", "--norms", "1")
    assert code == 2
    message = "group spec 'torus:abc' must be 'torus:N' with N an integer"
    assert json.loads(out) == {"error": message}


def test_the_norms_option_names_its_form(capsys):
    code, out = run(capsys, "spectrum", "torus:3", "--norms", "0..3")
    assert code == 2
    assert json.loads(out) == {"error": "--norms takes a comma list of integers, got '0..3'"}


def test_unknown_group_spec(capsys):
    code, out = run(capsys, "spectrum", "dim3/m99", "--norms", "1")
    assert code == 2
    assert "unknown" in json.loads(out)["error"]


def test_shell_cap_env_respected(capsys, monkeypatch):
    monkeypatch.setattr(lattice, "SHELL_CAP", 3)
    code, out = run(capsys, "spectrum", "torus:2", "--norms", "9")
    assert code == 2
    assert "cap" in json.loads(out)["error"]
    # compare and the theorem check both name their n_max before computing
    # any row
    for norm_sq, argv in (
        (9, ("compare", "hw3/M1", "hw3/M2", "--mode", "f", "--nmax", "9")),
        (9, ("family", "kn", "--dim", "4", "--verify-theorem", "9")),
    ):
        code, out = run(capsys, *argv)
        assert code == 2
        message = f"squared norm {norm_sq} exceeds the shell cap 3"
        assert json.loads(out) == {"error": message}
    monkeypatch.undo()
    code, _ = run(capsys, "spectrum", "torus:2", "--norms", "9")
    assert code == 0


def test_spectral_commands_list_no_lattice_vectors(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the spectral path must not list lattice vectors")

    monkeypatch.setattr(lattice, "shell_vectors", refuse)
    monkeypatch.setattr(lattice, "fixed_vectors", refuse)
    multiplicity_row.cache_clear()
    for argv in (
        ("spectrum", "hw3/M1", "hw3/M3", "torus:3", "--norms", "0,1,5", "--char-sums"),
        ("spectrum", "dim6/z4z2_Mp", "--norms", "2,3", "--char-sums", "--json"),
        ("betti", "dim6/z4_Mp", "dim6/z4z2_M"),
        ("betti", "hw5/H1", "hw5/H2"),
        ("compare", "hw3/M1", "hw3/M2", "--mode", "f", "--nmax", "12"),
        ("family", "kn", "--dim", "4", "--verify-theorem", "6"),
    ):
        code, _ = run(capsys, *argv)
        assert code == 0, argv
