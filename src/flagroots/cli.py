"""Command-line front end.

    flagroots roots     <space>
    flagroots table     <troots|dims|brackets> <space> [--check]
    flagroots check     <space> <member> [<member> ...]
    flagroots enumerate <space> [--min-modules N] [--cap N] [--verify-fixtures]
    flagroots verify    <space> <vector.json> --metric L1,..,L6

Spaces are the canonical ids (G2_12, F4_34, E6_36, E7_56, E8_12) or
FAMILY:n1,n2 for a custom painting.  Members are display labels such as
b3^3 or raw coefficient vectors such as 0,1,1,0.  Output formats: text
(default), json (versioned, byte-stable), latex (not for check and
verify).  Exit status: 0 on success, 1 when a --check/--verify-fixtures
comparison fails, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from .chevalley import AlgebraElement, build_constants
from .equigeo import (
    MetricVector,
    StructuralFamily,
    TangentVector,
    enumerate_maximal_families,
    equigeodesic_residual,
    is_equigeodesic_all_metrics,
    is_structural_family,
)
from .fixtures import SPACE_IDS, FixtureError, load_fixture, space_diagram
from .flag import G2Kind, bracket_inclusion_table
from .rootsys import FlagrootsError, SCHEMA_VERSION

# Sampled-metric spot checks run alongside the identity checks in `check`.
N_SPOT_METRICS = 5


def _fmt_root(coeffs) -> str:
    return "(" + ",".join(str(c) for c in coeffs) + ")"


def _encode_family(obj):
    """json.dumps hook: families become dicts one at a time, while encoding."""
    if isinstance(obj, StructuralFamily):
        return obj.to_dict()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _json_dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_encode_family)


def _latex_table(headers, rows) -> str:
    lines = ["\\begin{tabular}{" + "c" * len(headers) + "}", "\\hline"]
    lines.append(" & ".join(headers) + " \\\\")
    lines.append("\\hline")
    for row in rows:
        lines.append(" & ".join(str(c) for c in row) + " \\\\")
    lines += ["\\hline", "\\end{tabular}"]
    return "\n".join(lines)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + ("" if text.endswith("\n") else "\n"))
    else:
        print(text)


def _space_fixture(space: str):
    """Fixture for canonical spaces, None for custom paintings.

    A canonical space whose fixture cannot be loaded is an error.
    """
    return load_fixture(space) if space in SPACE_IDS else None


def _parse_member(pd, fixture, token: str):
    """A member is a label b<i>^<j> or a raw coefficient vector c1,..,cl."""
    token = token.strip()
    if token.startswith("b") and "^" in token:
        if fixture is None:
            raise FixtureError("label members need a canonical space with fixtures")
        idx, _, mod = token[1:].partition("^")
        return fixture.root_of_label(int(mod), int(idx))
    coeffs = tuple(int(x) for x in token.split(","))
    return pd.system.root(coeffs)


def _parse_fraction(x) -> Fraction:
    if not isinstance(x, (str, int, Fraction)):
        raise FlagrootsError(f"expected an exact rational, got {x!r}")
    try:
        return Fraction(x)
    except ZeroDivisionError as exc:
        raise FlagrootsError(f"zero denominator in {x!r}") from exc


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_roots(args) -> int:
    pd = space_diagram(args.space)
    modules = pd.isotropy_decomposition()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "roots",
        "space": args.space,
        "seed": args.seed,
        "type": pd.classify_g2_type().kind.value,
        "r_k_pos": [list(r) for r in pd.r_k_pos],
        "r_m_pos": [list(r) for r in pd.r_m_pos],
        "modules": [
            {"label": m.label, "troot": list(m.troot), "dim": m.dim_real,
             "roots": [list(r) for r in m.roots]}
            for m in modules
        ],
    }
    if args.format == "json":
        _emit(_json_dump(doc), args.out)
    elif args.format == "latex":
        rows = [(m.label, _fmt_root(m.troot), m.dim_real,
                 " ".join(_fmt_root(r) for r in m.roots)) for m in modules]
        _emit(_latex_table(["module", "t-root", "dim", "roots"], rows), args.out)
    else:
        lines = [f"space {args.space}  type {doc['type']}",
                 f"R_K+ ({len(pd.r_k_pos)}): " + " ".join(_fmt_root(r) for r in pd.r_k_pos)]
        for m in modules:
            lines.append(f"{m.label}  t-root {_fmt_root(m.troot)}  dim {m.dim_real}")
            lines.append("  " + " ".join(_fmt_root(r) for r in m.roots))
        _emit("\n".join(lines), args.out)
    return 0


def _expected_brackets(kind: G2Kind) -> dict[tuple[int, int], set[str]]:
    # Reference upper bounds for the 6x6 bracket table, diagonals k.
    if kind is G2Kind.TYPE_I:
        labels = ["m(1,0)", "m(0,1)", "m(1,1)", "m(2,1)", "m(3,1)", "m(3,2)"]
        data = {
            (1, 2): {3}, (1, 3): {2, 4}, (1, 4): {3, 5}, (1, 5): {4}, (1, 6): set(),
            (2, 3): {1}, (2, 4): set(), (2, 5): {6}, (2, 6): {5},
            (3, 4): {1, 6}, (3, 5): set(), (3, 6): {4},
            (4, 5): {1}, (4, 6): {3}, (5, 6): {2},
        }
    else:
        labels = ["n(1,0)", "n(0,1)", "n(1,1)", "n(1,2)", "n(1,3)", "n(2,3)"]
        data = {
            (1, 2): {3}, (1, 3): {2}, (1, 4): set(), (1, 5): {6}, (1, 6): {5},
            (2, 3): {1, 4}, (2, 4): {3, 5}, (2, 5): {4}, (2, 6): set(),
            (3, 4): {2, 6}, (3, 5): set(), (3, 6): {4},
            (4, 5): {2}, (4, 6): {3}, (5, 6): {1},
        }
    out = {}
    for i in range(1, 7):
        for j in range(1, 7):
            if i == j:
                out[(i, j)] = {"k"}
            else:
                key = (min(i, j), max(i, j))
                out[(i, j)] = {labels[k - 1] for k in data[key]} | ({"k"} if not data[key] else set())
    return out


def cmd_table(args) -> int:
    pd = space_diagram(args.space)
    cls = pd.classify_g2_type()
    modules = pd.isotropy_decomposition()
    mismatch = False
    if args.which == "dims":
        got = [m.dim_real for m in modules]
        rows = [[m.label for m in modules], got]
        headers = ["module"] * len(modules)
        body = {"dims": got, "labels": [m.label for m in modules]}
        text = "  ".join(f"{m.label}:{m.dim_real}" for m in modules)
    elif args.which == "troots":
        got = [list(m.troot) for m in modules]
        rows = [[_fmt_root(t) for t in got]]
        headers = [m.label for m in modules]
        body = {"troots": got, "type": cls.kind.value}
        text = f"type {cls.kind.value}  " + " ".join(_fmt_root(t) for t in got)
    elif args.which == "brackets":
        if cls.kind is G2Kind.NOT_G2_TYPE:
            raise FlagrootsError("bracket tables need a G2-type space")
        table = bracket_inclusion_table(pd, build_constants(pd.system))
        got = [[sorted(cell) for cell in row] for row in table]
        headers = [""] + [m.label for m in modules]
        rows = [
            [modules[i].label] + ["{" + ",".join(cell) + "}" for cell in row]
            for i, row in enumerate(got)
        ]
        body = {"brackets": got, "labels": [m.label for m in modules]}
        text = "\n".join(
            f"[{modules[i].label}, {modules[j].label}] -> " + ("{" + ",".join(got[i][j]) + "}")
            for i in range(len(modules)) for j in range(i, len(modules)))
        if args.check:
            expected = _expected_brackets(cls.kind)
            for i in range(6):
                for j in range(6):
                    if not set(got[i][j]) <= expected[(i + 1, j + 1)]:
                        mismatch = True
    else:
        raise FlagrootsError(f"unknown table {args.which!r}")

    if args.check and args.which in ("dims", "troots"):
        fixture = _space_fixture(args.space)
        if fixture is None:
            raise FixtureError("--check needs a canonical space with fixtures")
        expected_dims = [2 * len(fixture.label_map[k]) for k in sorted(fixture.label_map)]
        if args.which == "dims" and [m.dim_real for m in modules] != expected_dims:
            mismatch = True
        if args.which == "troots":
            from .flag import TYPE_I_TROOTS, TYPE_II_TROOTS
            want = TYPE_I_TROOTS if cls.kind is G2Kind.TYPE_I else TYPE_II_TROOTS
            if cls.kind is G2Kind.NOT_G2_TYPE or [tuple(m.troot) for m in modules] != list(want):
                mismatch = True

    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": f"table {args.which}",
        "space": args.space,
        "seed": args.seed,
        "check": bool(args.check),
        "match": not mismatch,
        **body,
    }
    if args.format == "json":
        _emit(_json_dump(doc), args.out)
    elif args.format == "latex":
        _emit(_latex_table(headers, rows), args.out)
    else:
        suffix = "" if not args.check else ("\ncheck: MATCH" if not mismatch else "\ncheck: MISMATCH")
        _emit(text + suffix, args.out)
    return 1 if mismatch else 0


def cmd_check(args) -> int:
    pd = space_diagram(args.space)
    fixture = _space_fixture(args.space)
    table = build_constants(pd.system)
    roots = [_parse_member(pd, fixture, tok) for tok in args.members]
    seen: dict = {}
    for tok, r in zip(args.members, roots):
        if r in seen:
            raise FlagrootsError(f"member {tok!r} repeats {seen[r]!r}: root {tuple(r)}")
        seen[r] = tok
    family = StructuralFamily.from_roots(pd, roots)
    structural = is_structural_family(family)
    x = TangentVector.from_coefficients(
        pd,
        a={tuple(r): 1 for r in roots},
        b={tuple(r): Fraction(2 * i + 1, 2) for i, r in enumerate(roots)},
    )
    equi = is_equigeodesic_all_metrics(table, pd, x)
    rng = random.Random(args.seed)
    n_modules = len(pd.isotropy_decomposition())
    spot_zero = True
    for _ in range(N_SPOT_METRICS):
        lam = MetricVector(tuple(Fraction(rng.randint(1, 60), rng.randint(1, 7)) for _ in range(n_modules)))
        if not equigeodesic_residual(table, pd, x, lam).is_zero():
            spot_zero = False
            break
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "space": args.space,
        "seed": args.seed,
        "members": [list(r) for r in roots],
        "structural": structural,
        "equigeodesic_all_metrics": equi,
        "sampled_metric_residuals_zero": spot_zero,
    }
    if args.format == "json":
        _emit(_json_dump(doc), args.out)
    else:
        _emit(
            f"family of {len(roots)} roots in {args.space}\n"
            f"structural: {'yes' if structural else 'no'}\n"
            f"equigeodesic for all metrics: {'yes' if equi else 'no'}\n"
            f"sampled-metric residuals zero ({N_SPOT_METRICS} draws, seed {args.seed}): "
            f"{'yes' if spot_zero else 'no'}",
            args.out,
        )
    return 0


def cmd_enumerate(args) -> int:
    pd = space_diagram(args.space)
    result = enumerate_maximal_families(pd, min_modules=args.min_modules, cap=args.cap)
    fixture_ok = True
    fixture_report = None
    if args.verify_fixtures:
        fixture = _space_fixture(args.space)
        if fixture is None:
            raise FixtureError("--verify-fixtures needs a canonical space with fixtures")
        # Label module j is computed module j (load_fixture checks the
        # fibers), so each member is tested as its (module, root) pair.
        missed = []
        for fam in fixture.families:
            if fam.suspect:
                continue
            pairs = frozenset(zip((m for m, _ in fam.members), fixture.family_roots(fam)))
            if not any(pairs <= f.members for f in result.families):
                missed.append(fam)
        fixture_ok = not missed and not result.truncated
        fixture_report = {
            "checked": sum(1 for f in fixture.families if not f.suspect),
            "skipped_suspect": sum(1 for f in fixture.families if f.suspect),
            "missed": [[list(m) for m in f.members] for f in missed],
        }
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "enumerate",
        "space": args.space,
        "seed": args.seed,
        "min_modules": args.min_modules,
        "cap": args.cap,
        "total": result.total,
        "truncated": result.truncated,
        "families": result.families,
    }
    if fixture_report is not None:
        doc["fixture_check"] = fixture_report
        doc["fixture_match"] = fixture_ok
    if args.format == "json":
        _emit(_json_dump(doc), args.out)
    elif args.format == "latex":
        rows = [
            [" ".join(f"b({k};{_fmt_root(r)})" for k, r in f.sorted_members())]
            for f in result.families
        ]
        _emit(_latex_table(["maximal structural families"], rows), args.out)
    else:
        lines = [f"{result.total} maximal structural families "
                 f"(min modules {args.min_modules})"
                 + (" [truncated]" if result.truncated else "")]
        for f in result.families:
            lines.append("  " + " ".join(
                f"m{k}:{_fmt_root(r)}" for k, r in f.sorted_members()))
        if fixture_report is not None:
            lines.append(
                f"fixture check: {'ok' if fixture_ok else 'FAILED'} "
                f"({fixture_report['checked']} checked, "
                f"{fixture_report['skipped_suspect']} suspect skipped)")
        _emit("\n".join(lines), args.out)
    return 0 if fixture_ok else 1


def _load_vector(pd, fixture, path: str) -> TangentVector:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise FlagrootsError(f"{path}: cannot read the vector file: {exc.strerror}") from exc
    if not isinstance(doc, dict):
        raise FlagrootsError(f"{path}: the top level must be an object with 'a'/'b' lists")
    a: dict = {}
    b: dict = {}
    for part, store in (("a", a), ("b", b)):
        items = doc.get(part, [])
        if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
            raise FlagrootsError(f"{path}: '{part}' must be a list of objects")
        for item in items:
            if "coeff" not in item:
                raise FlagrootsError(f"{path}: entry {item} in '{part}' has no 'coeff'")
            if isinstance(item.get("label"), str):
                if fixture is None:
                    raise FixtureError("label entries need a canonical space")
                idx, _, mod = item["label"].lstrip("b").partition("^")
                root = fixture.root_of_label(int(mod), int(idx))
            elif isinstance(item.get("root"), list) and all(isinstance(c, int) for c in item["root"]):
                root = pd.system.root(tuple(item["root"]))
            else:
                raise FlagrootsError(
                    f"{path}: entry {item} in '{part}' needs a 'label' string or a 'root' list of integers")
            if "module" in item and pd.module_index(root) != item["module"]:
                raise FlagrootsError(
                    f"root {tuple(root)} is not in module {item['module']}")
            store[tuple(root)] = store.get(tuple(root), 0) + _parse_fraction(item["coeff"])
    return TangentVector.from_coefficients(pd, a=a, b=b)


def cmd_verify(args) -> int:
    pd = space_diagram(args.space)
    fixture = _space_fixture(args.space)
    table = build_constants(pd.system)
    x = _load_vector(pd, fixture, args.vector)
    lambdas = tuple(_parse_fraction(tok) for tok in args.metric.split(","))
    metric = MetricVector(lambdas)
    residual = equigeodesic_residual(table, pd, x, metric)
    by_module: dict[str, dict[str, dict[str, str]]] = {}
    modules = pd.isotropy_decomposition()
    for kind, store in (("A", residual.a), ("B", residual.b)):
        for r, c in sorted(store.items()):
            label = modules[pd.module_index(r) - 1].label
            by_module.setdefault(label, {}).setdefault(kind, {})[_fmt_root(r)] = str(c)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "space": args.space,
        "seed": args.seed,
        "metric": [str(v) for v in metric.lambdas],
        "zero": residual.is_zero(),
        "residual_by_module": by_module,
    }
    if args.format == "json":
        _emit(_json_dump(doc), args.out)
    else:
        if residual.is_zero():
            _emit("zero", args.out)
        else:
            lines = ["nonzero residual:"]
            for label in sorted(by_module):
                for kind in sorted(by_module[label]):
                    for root, c in by_module[label][kind].items():
                        lines.append(f"  {label}  {c} * {kind}{root}")
            _emit("\n".join(lines), args.out)
    return 0


# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagroots",
        description="Exact computations on painted Dynkin diagrams with "
                    "six isotropy summands: root systems, bracket tables, "
                    "structural equigeodesic subspaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json", "latex")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized spot checks; recorded in outputs")
        p.add_argument("--out", metavar="PATH", default=None)

    p = sub.add_parser("roots", help="painted diagram, fibers, dimensions")
    p.add_argument("space")
    common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("table", help="t-root / dimension / bracket tables")
    p.add_argument("which", choices=("troots", "dims", "brackets"))
    p.add_argument("space")
    p.add_argument("--check", action="store_true",
                   help="compare against the reference tables; exit 1 on mismatch")
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("check", help="classify a family of roots")
    p.add_argument("space")
    p.add_argument("members", nargs="+",
                   help="labels like b3^3 or coefficient vectors like 0,1,1,0")
    common(p, formats=("text", "json"))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="all maximal structural families")
    p.add_argument("space")
    p.add_argument("--min-modules", type=int, default=2, dest="min_modules")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--verify-fixtures", action="store_true", dest="verify_fixtures",
                   help="assert every reference family is covered; exit 1 otherwise")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="evaluate the exact residual of a vector")
    p.add_argument("space")
    p.add_argument("vector", help="JSON file with a/b coefficient entries")
    p.add_argument("--metric", required=True,
                   help="comma-separated positive rationals, one per module")
    common(p, formats=("text", "json"))
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FlagrootsError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
