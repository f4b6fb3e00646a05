"""One benchmark job in a fresh interpreter, so every cache starts cold.

    python3 worker.py REPORT_PATH [TRACE(0|1) ARG ...]

The worker imports ``flatspec.cli`` (found through PYTHONPATH), notes the
monotonic time at which it is ready, runs ``flatspec.cli.main(ARGS)`` with
stdout going straight to the parent's pipe, and writes a JSON report to
REPORT_PATH.  With no ARGS it only measures set-up.  With TRACE = 1 it first
wraps the public functions of each layer at every module attribute through
which another layer calls them, and the report carries the recorded spans
and counts.
"""

import json
import resource
import sys
import time

import flatspec.cli

READY = time.monotonic()

# (module.function, further modules that import it by name, counter); the
# function is replaced in its own module and in each of the others.  A
# counter (stat, measure) adds measure(result) to "<module.function>.<stat>".
TRACED = (
    ("lattice.shell_vectors", (), ("vectors", lambda r: r.count)),
    ("lattice.fixed_vectors", (), ("vectors", len)),
    ("spectra.character_sum", (), None),
    ("spectra.multiplicity_row", (), None),
    ("spectra.theorem_check", (), None),
    ("spectra.compare_spectra", (), None),
    ("bieberbach.expand_holonomy", ("families",), ("cosets", lambda r: r.order)),
    ("bieberbach.group_from_json", ("cli",), None),
    ("bieberbach.validate_generators", ("cli",), None),
    ("bieberbach.validate", ("families",), None),
    ("bieberbach.classify_holonomy", ("spectra",), None),
    ("bieberbach.is_torsion_free", ("families",), None),
    ("families.kn_family", (), None),
    ("families.kn_group_from_array", (), None),
    ("families.catalog", (), None),
    ("families.hw_groups", (), None),
)

# lru_cache objects whose cache_info() is read after the job
CACHES = ("spectra.multiplicity_row", "families.catalog")


class Tracer:
    """Spans (name index, start, end, parent index) and counts, in memory."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = [-1]
        self.counts = {}

    def wrap(self, name, func, counter):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.monotonic
        key = f"{name}.{counter[0]}" if counter else None
        measure = counter[1] if counter else None
        if key:
            counts[key] = 0

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                spans[slot] = (index, start, clock(), parent)
                stack.pop()
            if key:
                counts[key] += measure(result)
            return result

        traced.__wrapped__ = func
        return traced

    def count_calls(self, name, func):
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return counted


def install(tracer):
    """Replace each traced function at every listed module attribute; returns
    the original cached functions named in CACHES."""
    package = sys.modules["flatspec"]
    originals = {}
    for name, importers, counter in TRACED:
        owner, attr = name.split(".")
        originals[name] = getattr(getattr(package, owner), attr)
        wrapped = tracer.wrap(name, originals[name], counter)
        for holder in (owner, *importers):
            module = getattr(package, holder)
            if getattr(module, attr) is not originals[name]:
                raise RuntimeError(f"flatspec.{holder}.{attr} is not {name}")
            setattr(module, attr, wrapped)
    element = package.bieberbach.IsometryElement
    element.compose = tracer.count_calls("bieberbach.compose.calls", element.compose)
    return {name: originals[name] for name in CACHES}


def main(argv):
    report_path, trace, args = argv[0], argv[1:2] == ["1"], argv[2:]
    report = {"ready": READY}
    tracer = caches = None
    if trace:
        tracer = Tracer()
        caches = install(tracer)
    if args:
        entry = tracer.wrap("cli.main", flatspec.cli.main, None) if tracer else flatspec.cli.main
        try:
            report["code"] = entry(args)
        except Exception as exc:  # the benchmark records any escape as a failed job
            report["error"] = f"{type(exc).__name__}: {exc}"
        sys.stdout.flush()
    report["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        report["names"] = tracer.names
        report["spans"] = tracer.spans
        report["counts"] = tracer.counts
        report["caches"] = {name: cache.cache_info()._asdict() for name, cache in caches.items()}
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main(sys.argv[1:])
