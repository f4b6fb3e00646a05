"""CLI: golden outputs, interchange formats, exit codes."""

import json
import time
from pathlib import Path

import pytest

from flatspec import families, lattice
from flatspec.cli import main
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


def test_family_graphs_golden(capsys):
    assert_golden(capsys, "family_k4_graphs.txt", "family", "kn", "--dim", "4", "--graphs")


def test_graph_all_prints_the_family_graphs(capsys):
    assert_golden(capsys, "family_k4_graphs.txt", "graph", "--dim", "4", "--all")
    code, out = run(capsys, "graph", "--dim", "4", "--all", "--json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 8
    assert payload[0]["edges"] == [[2, 1], [2, 4], [3, 2], [3, 4], [4, 3], [4, 4]]


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
    for kind, dim in [("kn", "1"), ("kn", "9"), ("z2", "1"), ("hw-catalog", "4")]:
        code, out = run(capsys, "family", kind, "--dim", dim, "--count-only")
        assert code == 2
        assert "error" in json.loads(out)


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


def test_unknown_group_spec(capsys):
    code, out = run(capsys, "spectrum", "dim3/m99", "--norms", "1")
    assert code == 2
    assert "unknown" in json.loads(out)["error"]


def test_shell_cap_env_respected(capsys, monkeypatch):
    monkeypatch.setenv("FLATSPEC_SHELL_CAP", "3")
    code, out = run(capsys, "spectrum", "torus:2", "--norms", "9")
    assert code == 2
    assert "cap" in json.loads(out)["error"]
    # the scans stop at the first norm above the cap, N = 4
    at_four = "squared norm 4 exceeds the shell cap 3 (raise via FLATSPEC_SHELL_CAP)"
    for argv in (
        ("compare", "hw3/M1", "hw3/M2", "--mode", "f", "--nmax", "9"),
        ("family", "kn", "--dim", "4", "--verify-theorem", "9"),
    ):
        code, out = run(capsys, *argv)
        assert code == 2
        assert json.loads(out) == {"error": at_four}
    monkeypatch.delenv("FLATSPEC_SHELL_CAP")
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
