"""Command-line front end.

Subcommands: validate, krawtchouk, spectrum, betti, compare, family, graph.
Output is a human-readable aligned table by default; --json and --csv switch
formats.  All output is deterministic (fixed orderings, sorted keys).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import families, graphs, spectra
from .arith import json_field
from .bieberbach import (
    DIM_CAP,
    BieberbachGroup,
    GroupValidationError,
    generators_from_json,
    group_from_json,
    validate_generators,
)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _fail(message: str) -> int:
    print(json.dumps({"error": message}, sort_keys=True))
    return 2


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    columns = len(headers)
    widths = [
        max(len(headers[i]), max((len(row[i]) for row in rows), default=0))
        for i in range(columns)
    ]
    lines = []
    for row in [headers] + rows:
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, columns)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level")
    return obj


def _load_group_file(path: str) -> BieberbachGroup:
    """A JSON file's group, named after the file if unnamed, torsion-checked."""
    group = group_from_json(_read_json(path))
    if group.name is None:
        group = group.renamed(os.path.basename(path))
    return families.require_torsion_free(group)


def _resolve_group(spec: str) -> BieberbachGroup:
    """A group from a catalog name, 'torus:N', or a JSON file path
    (optionally prefixed 'file:')."""
    if spec.startswith("file:"):
        return _load_group_file(spec[len("file:") :])
    if spec.startswith("torus:"):
        return families.torus(int(spec[len("torus:") :]))
    try:
        return families.catalog(spec)
    except KeyError:
        pass
    if os.path.exists(spec):
        return _load_group_file(spec)
    raise KeyError(
        f"unknown group spec {spec!r}: expected a catalog name, 'torus:N', "
        "or a JSON file path"
    )


def _resolve_groups(specs) -> list[BieberbachGroup]:
    groups = [_resolve_group(spec) for spec in specs]
    dims = {g.dim for g in groups}
    if len(dims) > 1:
        raise ValueError(f"groups must share one dimension, got dims {sorted(dims)}")
    return groups


def _parse_norms(text: str) -> list[int]:
    norms = []
    for part in text.split(","):
        part = part.strip()
        if part:
            value = int(part)
            if value < 0:
                raise ValueError(f"squared norms must be >= 0, got {value}")
            norms.append(value)
    if not norms:
        raise ValueError("no squared norms given")
    return norms


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    _group, report = validate_generators(*generators_from_json(_read_json(args.file)))
    _print_json(report.to_json())
    return 0 if report.accepted else 2


def cmd_krawtchouk(args) -> int:
    n = args.n
    if not 1 <= n <= DIM_CAP:
        return _fail(f"n must satisfy 1 <= n <= {DIM_CAP}, got {n}")
    table = spectra.krawtchouk_table(n)
    if args.json:
        _print_json({"n": n, "values": [list(row) for row in table]})
    elif args.csv:
        header = ["p"] + [str(x) for x in range(n + 1)]
        rows = [[p] + list(row) for p, row in enumerate(table)]
        print(_csv_text(header, rows), end="")
    else:
        headers = ["x"] + [str(x) for x in range(n + 1)]
        rows = [[f"K_{p}^{n}"] + [str(v) for v in row] for p, row in enumerate(table)]
        print(_format_table(headers, rows))
    return 0


def _char_sums(group: BieberbachGroup, norm_sq: int) -> list[int]:
    """e(gamma, N) for every representative but the identity, in order."""
    return [spectra.character_sum(group, elem, norm_sq) for elem in group.holonomy[1:]]


def _char_sum_table(groups, norm_sq: int) -> tuple[list[str], list[list[str]]]:
    width = max(g.order for g in groups) - 1
    headers = ["group"] + [f"e(gamma_{i})" for i in range(1, width + 1)]
    rows = []
    for group in groups:
        sums = [str(value) for value in _char_sums(group, norm_sq)]
        rows.append([group.label()] + sums + [""] * (width - len(sums)))
    return headers, rows


def cmd_spectrum(args) -> int:
    groups = _resolve_groups(args.groups)
    norms = _parse_norms(args.norms)
    dim = groups[0].dim
    rows = spectra.spectrum_rows(groups, norms)
    if args.json:
        payload = {"rows": [row.to_json() for row in rows]}
        if args.char_sums:
            payload["char_sums"] = [
                {
                    "group": group.label(),
                    "N": norm_sq,
                    # the interchange form keeps the complex shape; im is always 0
                    "e": [{"im": 0, "re": value} for value in _char_sums(group, norm_sq)],
                }
                for norm_sq in norms
                for group in groups
            ]
        _print_json(payload)
        return 0
    if args.csv:
        header = ["group", "N"] + [f"d_{p}" for p in range(dim + 1)] + ["d_f"]
        data = [[row.group, row.norm_sq] + list(row.d) + [row.d_f] for row in rows]
        print(_csv_text(header, data), end="")
        return 0
    blocks = []
    for norm_sq in norms:
        headers = ["group"] + [f"d_{p}" for p in range(dim + 1)] + ["d_f"]
        data = [
            [row.group] + [str(v) for v in row.d] + [str(row.d_f)]
            for row in rows
            if row.norm_sq == norm_sq
        ]
        blocks.append(f"N={norm_sq}\n" + _format_table(headers, data))
        if args.char_sums:
            headers_cs, rows_cs = _char_sum_table(groups, norm_sq)
            blocks.append("character sums\n" + _format_table(headers_cs, rows_cs))
    print("\n\n".join(blocks))
    return 0


def cmd_betti(args) -> int:
    groups = _resolve_groups(args.groups)
    dim = groups[0].dim
    if args.json:
        _print_json(
            {
                "rows": [
                    {"group": g.label(), "betti": list(spectra.betti_numbers(g))}
                    for g in groups
                ]
            }
        )
        return 0
    headers = ["group"] + [f"b_{p}" for p in range(dim + 1)]
    rows = [[g.label()] + [str(v) for v in spectra.betti_numbers(g)] for g in groups]
    print(_format_table(headers, rows))
    return 0


def cmd_compare(args) -> int:
    left = _resolve_group(args.left)
    right = _resolve_group(args.right)
    verdict = spectra.compare_spectra(left, right, args.mode, args.nmax)
    if args.json:
        diff = None
        if verdict.first_difference is not None:
            n, a, b = verdict.first_difference
            diff = {"N": n, "left": a, "right": b}
        _print_json(
            {
                "left": left.label(),
                "right": right.label(),
                "mode": verdict.mode,
                "n_max": verdict.n_max,
                "equal": verdict.equal,
                "first_difference": diff,
            }
        )
    else:
        print(f"{left.label()} vs {right.label()}: {verdict.describe()}")
    return 0


def _print_kn_graphs(dim: int) -> int:
    """The DOT graph of every K_dim member, each under a '// K<n>[bits]' line
    and separated by a blank line, printed as it is made."""
    separator = ""
    for array in families.kn_arrays(dim):
        dot = graphs.to_dot(graphs.graph_of(array))
        print(f"{separator}// {families.kn_name(array)}\n{dot}", end="")
        separator = "\n"
    return 0


def _print_json_list(items) -> None:
    """What _print_json(list(items)) prints, each item printed as it is made."""
    separator = "[\n  "
    for item in items:
        print(separator + json.dumps(item, indent=2, sort_keys=True).replace("\n", "\n  "), end="")
        separator = ",\n  "
    print("[]" if separator.startswith("[") else "\n]")


def cmd_family(args) -> int:
    if args.count_only:
        print(families.family_size(args.kind, args.dim))
        return 0
    if args.graphs and args.kind == "kn" and args.verify_theorem is None:
        return _print_kn_graphs(args.dim)
    members = families.family_members(args.kind, args.dim)
    if args.verify_theorem is not None:
        total = failures = 0
        for group in members:
            check = spectra.theorem_check(group, args.verify_theorem)
            status = "pass" if check.ok else "FAIL"
            total += 1
            failures += 0 if check.ok else 1
            print(f"{group.label()}: {status} (N <= {args.verify_theorem})")
        print(f"{total - failures}/{total} groups satisfy d_f = 2^(n-k)|shell| and d_e = d_o")
        return 0 if failures == 0 else 2
    if args.graphs:
        return _fail("--graphs is only defined for the kn family")
    for group in members:
        print(json.dumps(group.to_json(), sort_keys=True))
    return 0


def cmd_graph(args) -> int:
    if args.array:
        arrays = [families.GhwArray.from_rows(json_field(_read_json(args.array), "rows", "an array"))]
    elif args.dim is None:
        return _fail("graph needs --dim (with --index or --all) or --array FILE")
    elif args.all and not args.json:
        return _print_kn_graphs(args.dim)
    elif args.all:
        arrays = families.kn_arrays(args.dim)
    else:
        arrays = [families.kn_array(args.dim, args.index)]
    if args.json and args.all:
        _print_json_list(graphs.graph_of(a).to_json() for a in arrays)
    elif args.json:
        _print_json(graphs.graph_of(arrays[0]).to_json())
    else:
        print(graphs.to_dot(graphs.graph_of(arrays[0])), end="")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatspec",
        description=(
            "Exact Hodge-Laplace spectra of compact flat manifolds given as "
            "Bieberbach groups over the cubic lattice.  Groups are named by "
            "catalog entries (e.g. dim3/m10, hw3/M1, dim6/z4_M), 'torus:N', "
            "or JSON files."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a group JSON file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("krawtchouk", help="integer table K_p^n(x), 0 <= p, x <= n")
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_krawtchouk)

    p = sub.add_parser("spectrum", help="multiplicity tables d_0..d_n, d_f")
    p.add_argument("groups", nargs="+", help="group specs (catalog name, torus:N, file)")
    p.add_argument("--norms", required=True, help="comma list of squared norms, e.g. 1,2,5")
    p.add_argument("--char-sums", action="store_true", help="also emit character sums per representative")
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("betti", help="Betti numbers (multiplicities at eigenvalue 0)")
    p.add_argument("groups", nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("compare", help="compare two spectra and report the first difference")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--mode", default="f", help="f | e | o | functions | p<k> | k")
    p.add_argument("--nmax", type=int, default=25)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compare)

    kinds = " | ".join(families.FAMILY_KINDS)
    p = sub.add_parser("family", help=f"emit a built-in family ({kinds})")
    p.add_argument("kind", choices=families.FAMILY_KINDS)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--verify-theorem", type=int, metavar="NMAX", default=None)
    p.add_argument("--graphs", action="store_true", help="DOT graphs (kn only)")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("graph", help="directed graph of an array-family member")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--index", type=int, default=0, help="lexicographic index into the family")
    p.add_argument("--all", action="store_true")
    p.add_argument("--array", default=None, help="JSON file {\"rows\": [[0, \"1/2\", ...], ...]}")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GroupValidationError as exc:
        print(json.dumps({"error": str(exc), "report": exc.report.to_json()}, sort_keys=True))
        return 2
    # TypeError: malformed JSON input, such as a float translation
    except (ValueError, TypeError, KeyError, ArithmeticError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        return _fail(str(message))


if __name__ == "__main__":
    sys.exit(main())
