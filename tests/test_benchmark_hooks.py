"""The benchmark's tracer must still find every function it wraps.

``perfbench/worker.py --trace 1`` replaces named functions at the module
attributes through which other layers call them, and reads ``cache_info()``
from named caches.  A rename, a changed import or a cache turned into a
plain function would break only traced benchmark runs; this runs one small
traced job and checks its report.  The job lists the K_4 family, whose
groups are all diagonal with half translations, so the benchmark's own
compose counter must read 0.  The listing must also pass through the wrapped
family constructors, once for the family and once per member: a registry
that kept the function objects it saw at import would bypass the wrappers.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
WORKER = ROOT / "perfbench" / "worker.py"


def _worker_tables():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED, module.CACHES


def test_traced_worker_installs_every_hook(tmp_path):
    report_path = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["family", "kn", "--dim", "4"]
    done = subprocess.run(
        [sys.executable, str(WORKER), str(report_path), "1", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 8
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report.get("code") == 0
    assert "error" not in report
    assert report["counts"]["bieberbach.compose.calls"] == 0
    spans = [report["names"][span[0]] for span in report["spans"]]
    assert spans.count("families.kn_family") == 1
    assert spans.count("families.kn_group_from_array") == 8
    traced, caches = _worker_tables()
    assert {name for name, _importers, _counter in traced} <= set(report["names"])
    for name in caches:
        assert set(report["caches"][name]) >= {"hits", "misses", "maxsize", "currsize"}
