"""Smoke test of the benchmark at tiny sizes; kept out of the repository's
test suite on purpose (the file name does not match test_*.py).

    python3 -m pytest -q perfbench/check_smoke.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def bench_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_match_benchmark_json():
    spec = bench_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_passes_at_tiny_size(workload, trace, tmp_path):
    result, detail = run.measure(workload, SEED, 0, trace, workloads.TINY, tmp_path)
    assert detail["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["bieberbach.expand_holonomy.calls"]["value"] > 0
        assert (tmp_path / f"spans-{workload}-seed{SEED}.jsonl.gz").is_file()
    else:
        assert result["metrics"]["pass_frac"]["value"] == 1.0


def test_traced_counts_repeat_for_the_same_seed(tmp_path):
    counts = []
    for _ in range(2):
        result, _detail = run.measure("spectrum-compare", SEED, 0, True, workloads.TINY, tmp_path)
        counts.append({k: v["value"] for k, v in result["metrics"].items() if run.is_count(k)})
    assert counts[0] == counts[1]
    assert counts[0]["spectra.multiplicity_row.misses"] > 0


def test_generated_groups_match_the_cli_family_output():
    sys.path.insert(0, str(HERE.parent / "src"))
    from flatspec import families

    for n in (4, 5):
        for index, group in enumerate(families.kn_family(n)):
            assert inputs.kn_member(n, inputs.kn_bits(n, index)) == group.to_json()
        for (j, h), group in zip(inputs.z2_parameters(n), families.z2_family(n)):
            assert inputs.z2_member(n, j, h) == group.to_json()


def test_shell_counts():
    # r_2: 1, 4, 4, 0, 4, 8; r_3(3) = 8; r_4(N) = 8 * sigma(N) for odd N
    assert check.shell_counts(2, 5) == (1, 4, 4, 0, 4, 8)
    assert check.shell_count(3, 3) == 8
    assert check.shell_count(4, 5) == 48


def _one_job_per_kind(tmp_path):
    jobs = {}
    for name in workloads.WORKLOADS:
        for job in workloads.build_jobs(name, SEED, workloads.TINY, tmp_path / name):
            jobs.setdefault(job.kind, job)
    return jobs


def _corrupt_spectrum(stdout: str) -> str:
    obj = json.loads(stdout)
    obj["rows"][-1]["d"][1] += 1
    return json.dumps(obj)


def _corrupt_sweep(stdout: str) -> str:
    return "\n".join(stdout.splitlines()[1:]) + "\n"


def _corrupt_compare(stdout: str) -> str:
    obj = json.loads(stdout)
    obj["equal"] = not obj["equal"]
    return json.dumps(obj)


def _corrupt_validate(stdout: str) -> str:
    obj = json.loads(stdout)
    obj["holonomy_order"] //= 2
    return json.dumps(obj)


CORRUPT = {
    "spectrum": _corrupt_spectrum,
    "sweep": _corrupt_sweep,
    "compare": _corrupt_compare,
    "validate": _corrupt_validate,
}


def test_every_checker_rejects_a_corrupted_output(tmp_path):
    bench = run.Bench(tmp_path)
    for kind, job in _one_job_per_kind(tmp_path).items():
        done = bench.run_job(job, False)
        assert done.failure is None, (kind, done.failure)
        stdout = done.stdout.decode()
        code = done.report["code"]
        assert check.CHECKS[kind](job.expect, code, CORRUPT[kind](stdout)), kind
        assert check.CHECKS[kind](job.expect, 1, stdout), kind


def test_a_job_with_wrong_expectations_counts_as_failed(tmp_path):
    jobs = workloads.build_jobs("sweep-validate", SEED, workloads.TINY, tmp_path / "in")
    jobs = [job for job in jobs if job.kind == "validate"]
    flipped = [replace(job, expect={**job.expect, "accept": not job.expect["accept"]}) for job in jobs]
    done = run.run_round(run.Bench(tmp_path), flipped, False, None)
    assert len(done.runs) == len(jobs)
    assert all(r.failure is not None for r in done.runs)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "sweep-validate", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=tmp_path, capture_output=True, timeout=60
    )
    assert done.returncode != 0
    assert done.stdout == b""
