"""Benchmark of the flatspec CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's jobs run one at a
time, each in a fresh worker process (worker.py), so every cache starts cold
as it does for a CLI user.  A round is one pass over the workload's jobs;
rounds repeat while the next one is expected to end within S seconds, and
an untraced run makes at least two.  Every job's output goes through
the engine-independent checks in check.py; a job that exits wrongly, raises,
times out or fails its check counts as failed.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
timings are medians over the run; with --trace 1 untraced and traced rounds
alternate, and the metrics are the per-layer ones from the traced rounds.
The line before it holds the details: per-job stdout sha256, per-round
times, and with --trace 1 every per-layer figure of every traced function.
Spans of traced rounds are written to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from check import CHECKS
from workloads import FULL, WORKLOADS, Job, Sizes, build_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: a run stops starting jobs and reports once this many seconds have passed
HARD_LIMIT_S = 150.0
#: set-up-only workers before each untraced round, spread over the run like
#: the rounds; one more at the start, which may compile bytecode, is not counted
SETUP_PROBES = 2
#: fewest untraced rounds in a run without tracing
MIN_ROUNDS = 2

# metric name -> unit, as listed in BENCHMARK.json
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "pass_frac": "ratio",
}

# items_per_s under the name the workload's work item gives it
ITEM_RATE = {"spectrum-compare": "rows_per_s", "sweep-validate": "groups_per_s"}

# Per-layer metrics on the final line of a traced run.  Times of functions
# that do not run on every workload stay in the detail line, so that no
# reported time is a constant zero; the counts of all of them are here.
PER_LAYER = {
    "lattice.shell_vectors.calls": "count",
    "lattice.shell_vectors.vectors": "count",
    "lattice.fixed_vectors.calls": "count",
    "lattice.fixed_vectors.vectors": "count",
    "spectra.character_sum.calls": "count",
    "spectra.multiplicity_row.calls": "count",
    "spectra.multiplicity_row.misses": "count",
    "spectra.multiplicity_row.currsize": "count",
    "spectra.theorem_check.calls": "count",
    "spectra.compare_spectra.calls": "count",
    "spectra.rows_useful_ratio": "ratio",
    "bieberbach.expand_holonomy.calls": "count",
    "bieberbach.expand_holonomy.self_s": "s",
    "bieberbach.expand_holonomy.cosets": "count",
    "bieberbach.group_from_json.calls": "count",
    "bieberbach.validate.calls": "count",
    "bieberbach.classify_holonomy.calls": "count",
    "bieberbach.is_torsion_free.calls": "count",
    "bieberbach.compose.calls": "count",
    "families.kn_family.calls": "count",
    "families.kn_group_from_array.calls": "count",
    "families.catalog.calls": "count",
    "families.catalog.hit_ratio": "ratio",
    "families.hw_groups.calls": "count",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace_overhead_s": "s",
}


@dataclass
class JobRun:
    job: Job
    wall: float
    setup: float | None
    maxrss_kib: int
    stdout: bytes
    failure: str | None
    report: dict

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


@dataclass
class Round:
    traced: bool
    runs: list[JobRun] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(run.wall for run in self.runs)


def job_walls(rounds: list[Round], jobs: list[Job]) -> dict[str, float]:
    """Each job's median wall time over the rounds.  Their sum stands for a
    round's wall time; per-job medians resist the machine's short slow spells."""
    walls = {}
    for index, job in enumerate(jobs):
        values = [rnd.runs[index].wall for rnd in rounds if index < len(rnd.runs)]
        walls[job.label] = statistics.median(values) if values else 0.0
    return walls


class Bench:
    """Spawns workers one at a time inside the checkout."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.started = time.monotonic()
        self.spawned = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, trace: bool, argv: tuple[str, ...]):
        """Run one worker; returns (spawn time, wall, report or None, stdout,
        failure or None)."""
        self.spawned += 1
        report_path = self.out_dir / f"report-{os.getpid()}-{self.spawned}.json"
        command = [sys.executable, str(WORKER), str(report_path), "1" if trace else "0", *argv]
        start = time.monotonic()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            stdout, stderr = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            return start, time.monotonic() - start, None, stdout, "timed out"
        wall = time.monotonic() - start
        try:
            with open(report_path, encoding="utf-8") as handle:
                report = json.load(handle)
            report_path.unlink()
        except (OSError, json.JSONDecodeError):
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            return start, wall, None, stdout, f"worker exit {proc.returncode}: {' '.join(tail)}"
        return start, wall, report, stdout, None

    def setup_sample(self) -> float | None:
        start, _wall, report, _out, _failure = self.spawn(False, ())
        return report["ready"] - start if report else None

    def run_job(self, job: Job, trace: bool) -> JobRun:
        start, wall, report, stdout, failure = self.spawn(trace, job.argv)
        report = report or {}
        if failure is None and "error" in report:
            failure = report["error"]
        if failure is None:
            failure = CHECKS[job.kind](job.expect, report["code"], stdout.decode("utf-8", "replace"))
        setup = report["ready"] - start if "ready" in report else None
        return JobRun(job, wall, setup, report.get("maxrss_kib", 0), stdout, failure, report)


def run_round(bench: Bench, jobs: list[Job], trace: bool, first: Round | None) -> Round:
    """One pass over the jobs; a job whose stdout differs from the first
    round's fails, because the CLI's output is deterministic."""
    done = Round(trace)
    for index, job in enumerate(jobs):
        if bench.remaining() <= 0:
            break
        run = bench.run_job(job, trace)
        if run.failure is None and first is not None and index < len(first.runs):
            if run.sha256 != first.runs[index].sha256:
                run.failure = "stdout differs from the first round"
        done.runs.append(run)
    return done


def span_stats(rnd: Round) -> dict[str, float]:
    """Every per-layer figure of one traced round, summed over its jobs."""
    stats: dict[str, float] = defaultdict(float)
    row_misses = rows_needed = catalog_hits = catalog_misses = 0
    for run in rnd.runs:
        report = run.report
        names, spans = report.get("names", []), report.get("spans", [])
        for name in names:
            for stat in ("calls", "s", "self_s"):
                stats[f"{name}.{stat}"] += 0
        covered = [0.0] * len(spans)
        for _index, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (index, start, end, _parent), children in zip(spans, covered):
            name = names[index]
            stats[f"{name}.calls"] += 1
            stats[f"{name}.s"] += end - start
            stats[f"{name}.self_s"] += end - start - children
        for key, value in report.get("counts", {}).items():
            stats[key] += value
        caches = report.get("caches", {})
        rows = caches.get("spectra.multiplicity_row", {})
        row_misses += rows.get("misses", 0)
        key = "spectra.multiplicity_row.currsize"
        stats[key] = max(stats[key], rows.get("currsize", 0))
        catalog = caches.get("families.catalog", {})
        catalog_hits += catalog.get("hits", 0)
        catalog_misses += catalog.get("misses", 0)
        rows_needed += run.job.rows_needed
        stats["cli.stdout_bytes"] += len(run.stdout)
    stats["spectra.multiplicity_row.misses"] = row_misses
    stats["spectra.rows_useful_ratio"] = rows_needed / row_misses if row_misses else 0.0
    lookups = catalog_hits + catalog_misses
    stats["families.catalog.hit_ratio"] = catalog_hits / lookups if lookups else 0.0
    return dict(stats)


def is_count(name: str) -> bool:
    return not name.endswith((".s", "_s", "_ratio"))


def write_spans(path: Path, traced: list[Round]) -> None:
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        for number, rnd in enumerate(traced):
            for run in rnd.runs:
                names = run.report.get("names", [])
                job_id = f"round{number}/{run.job.label}"
                for index, start, end, parent in run.report.get("spans", []):
                    handle.write(json.dumps([job_id, names[index], start, end, parent]) + "\n")


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL,
            out_dir: Path | None = None) -> tuple[dict, dict]:
    """Run the workload; returns (result line, detail line)."""
    out_dir = out_dir or ROOT / ".perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = out_dir / "inputs" / f"{workload}-seed{seed}"
    jobs = build_jobs(workload, seed, sizes, inputs)
    bench = Bench(out_dir)
    bench.setup_sample()
    setups = []
    rounds: list[Round] = []
    while bench.remaining() > 0:
        began = time.monotonic()
        if not trace:
            setups += [bench.setup_sample() for _ in range(SETUP_PROBES)]
        first = rounds[0] if rounds else None
        rounds.append(run_round(bench, jobs, False, first))
        if trace:
            rounds.append(run_round(bench, jobs, True, first))
        now = time.monotonic()
        if (trace or len(rounds) >= MIN_ROUNDS) and now - bench.started + (now - began) > seconds:
            break
    runs = [run for rnd in rounds for run in rnd.runs]
    failed = [run for run in runs if run.failure is not None]
    attempted = len(jobs) * len(rounds)
    failed_count = len(failed) + attempted - len(runs)
    # a round is cut short only when a job ran into the hard limit, which fails the run
    untraced = [rnd for rnd in rounds if not rnd.traced and rnd.runs]
    per_job = job_walls(untraced, jobs)
    wall = sum(per_job.values())
    detail = {
        "workload": workload,
        "seed": seed,
        "rounds": len(untraced),
        "round_wall_s": [rnd.wall for rnd in untraced],
        "job_wall_s": per_job,
        "stdout_sha256": {run.job.label: run.sha256 for run in rounds[0].runs},
        "failures": sorted({f"{run.job.label}: {run.failure}" for run in failed}),
    }
    correct = failed_count == 0
    if trace:
        traced = [rnd for rnd in rounds if rnd.traced and rnd.runs]
        per_round = [span_stats(rnd) for rnd in traced]
        layers = {}
        for name in per_round[0] if per_round else ():
            values = [stats[name] for stats in per_round]
            if is_count(name) and len(set(values)) > 1:
                correct = False
                detail["failures"].append(f"count {name} differs between traced rounds: {values}")
            layers[name] = int(values[0]) if is_count(name) else statistics.median(values)
        traced_walls = [rnd.wall for rnd in traced]
        layers["trace_overhead_s"] = sum(job_walls(traced, jobs).values()) - wall
        trace_file = out_dir / f"spans-{workload}-seed{seed}.jsonl.gz"
        write_spans(trace_file, traced)
        detail.update(layers=dict(sorted(layers.items())), traced_wall_s=traced_walls,
                      span_file=str(trace_file))
        metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        passing = {run.job.label for run in runs} - {run.job.label for run in failed}
        rate = sum(job.items for job in jobs if job.label in passing) / wall if wall else 0.0
        samples = [setup for setup in setups + [run.setup for run in runs] if setup is not None]
        values = {
            "wall_s": wall,
            "setup_s": len(jobs) * statistics.median(samples) if samples else 0.0,
            "items_per_s": rate,
            "peak_rss_mib": max(run.maxrss_kib for run in runs) / 1024,
            "pass_frac": (attempted - failed_count) / attempted,
        }
        detail[ITEM_RATE[workload]] = rate
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed_count, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flatspec" / "cli.py").is_file():
        print(f"no flatspec sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
