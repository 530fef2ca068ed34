"""Command-line front end.

    flagroots roots     <space>
    flagroots table     <troots|dims|brackets> <space> [--check]
    flagroots check     <space> <member> [<member> ...]
    flagroots enumerate <space> [--min-modules N] [--cap N] [--verify-fixtures]
    flagroots verify    <space> <vector.json> --metric L1,..,Lm

Spaces are the canonical ids (G2_12, F4_34, E6_36, E7_56, E8_12) or
FAMILY:n1,n2 for a custom painting, and every command takes either; table
brackets --check needs a G2-type painting, and --check on dims and troots
and --verify-fixtures the painting of a canonical space (F4:3,4 is F4_34).
Members are display labels such as b3^3, on the painting of a canonical
space, or raw coefficient vectors such as 0,1,1,0.  Output formats: text
(default), json (versioned, byte-stable), latex (not for check and
verify).  Exit status: 0 on success, 1 when a --check/--verify-fixtures
comparison fails or stdout is closed, 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from contextlib import nullcontext
from functools import cache
from fractions import Fraction
from itertools import chain, product
from pathlib import Path

from .chevalley import build_constants
from .equigeo import (
    MetricVector,
    StructuralFamily,
    TangentVector,
    enumerate_maximal_families,
    equigeodesic_residual,
    is_equigeodesic_all_metrics,
    is_structural_family,
)
from .fixtures import _SPACE_DEFS, FixtureError, load_fixture, space_diagram
from .flag import REFERENCE_BRACKETS, G2Kind, NotG2TypeError, bracket_inclusion_table
from .rootsys import FlagrootsError, SCHEMA_VERSION

# Sampled-metric spot checks run alongside the identity checks in `check`.
N_SPOT_METRICS = 5


def _fmt_root(coeffs) -> str:
    return "(" + ",".join(str(c) for c in coeffs) + ")"


def _json_dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _latex_table(headers, rows):
    yield "\\begin{tabular}{" + "c" * len(headers) + "}\n\\hline\n"
    yield " & ".join(headers) + " \\\\\n\\hline\n"
    for row in rows:
        yield " & ".join(str(c) for c in row) + " \\\\\n"
    yield "\\hline\n\\end{tabular}"


def _emit(text, out: str | None) -> None:
    """Write text (or its pieces, each as given) and a newline; flush, so a closed stdout raises here."""
    with open(out, "w") if out else nullcontext(sys.stdout) as fh:
        fh.writelines((text,) if isinstance(text, str) else text)
        fh.write("\n")
        fh.flush()


def _space_fixture(pd):
    """Fixture of a canonical painting in any spelling (F4_34 or F4:3,4), None for
    any other; a canonical space whose fixture cannot be loaded is an error."""
    sid = next((s for s, painting in _SPACE_DEFS.items() if painting == (pd.system.lie_type, pd.painted)), None)
    return None if sid is None else load_fixture(sid)


def _parse_member(pd, fixture, token: str):
    """A member is a label b<i>^<j> or a raw coefficient vector c1,..,cl
    of a root in R_M+."""
    token = token.strip()
    # Plain ASCII numbers only: int() would also take "+1", " 1", "01", "1_0" and other scripts' digits.
    num = "(0|-?[1-9][0-9]*)"
    try:
        if label := re.fullmatch(rf"b{num}\^{num}", token):
            if fixture is None:
                raise FixtureError("label members need a canonical space with fixtures")
            return fixture.root_of_label(int(label[2]), int(label[1]))
        if not re.fullmatch(rf"{num}(,{num})*", token):
            raise ValueError
        coeffs = tuple(int(x) for x in token.split(","))
    except ValueError:
        raise FlagrootsError(f"member {token!r} is not a label b<i>^<j> or a vector of integers") from None
    i = pd._m_id(coeffs)
    if i is None:
        raise FlagrootsError(f"member {token!r} is not a root of R_M+ in {pd.name}")
    return pd.system.roots[i]


def _parse_fraction(x) -> Fraction:
    """An int, or a plain ASCII string such as 3, -2/5 or 1.5: Fraction() would also take 1_0, +3, " 3" and
    other scripts' digits, and exponent notation, where 1e10000000 builds a ten-million-digit integer."""
    if not (type(x) is int or isinstance(x, str) and re.fullmatch(r"-?[0-9]+([./][0-9]+)?", x)):
        raise FlagrootsError(f"expected an integer or a rational such as 3, -2/5 or 1.5 (no exponent), got {x!r}")
    try:
        return Fraction(x)
    except ZeroDivisionError as exc:
        raise FlagrootsError(f"zero denominator in {x!r}") from exc
    except ValueError as exc:
        raise FlagrootsError(f"{x!r} is not an exact rational: {exc}") from exc


# ----------------------------------------------------------------------
# subcommands: each returns (exit code, json, text, latex), every output a
# string or an iterable of string pieces (latex None where the parser does
# not offer it); main writes the one asked for.
# ----------------------------------------------------------------------

def _doc(args, command: str, **fields) -> str:
    """The JSON document of a command: the versioned header and its fields."""
    return _json_dump({"schema_version": SCHEMA_VERSION, "command": command,
                       "space": args.space, "seed": args.seed, **fields})


def cmd_roots(args):
    pd = space_diagram(args.space)
    modules = pd.to_dict()["modules"]
    kind = pd.kind.value
    rows = [(m["label"], _fmt_root(m["troot"]), m["dim"], " ".join(map(_fmt_root, m["roots"])))
            for m in modules]
    lines = [f"space {args.space}  type {kind}",
             f"R_K+ ({len(pd.r_k_pos)}): " + " ".join(map(_fmt_root, pd.r_k_pos))]
    lines += (f"{label}  t-root {troot}  dim {dim}\n  {roots}" for label, troot, dim, roots in rows)
    return (0, _doc(args, "roots", type=kind, r_k_pos=[list(r) for r in pd.r_k_pos],
                    r_m_pos=[list(r) for r in pd.r_m_pos], modules=modules),
            "\n".join(lines), _latex_table(["module", "t-root", "dim", "roots"], rows))


def cmd_table(args):
    pd = space_diagram(args.space)
    kind = pd.kind
    modules = pd.isotropy_decomposition()
    labels = [m.label for m in modules]
    mismatch = False
    # text is pieces; the bracket table's text and latex rows are built only when read.
    if args.which == "dims":
        dims = [m.dim_real for m in modules]
        headers, rows = ["module"] * len(modules), [labels, dims]
        body = {"dims": dims, "labels": labels}
        text = ["  ".join(f"{m.label}:{m.dim_real}" for m in modules)]
    elif args.which == "troots":
        troots = [list(m.troot) for m in modules]
        headers, rows = labels, [[_fmt_root(t) for t in troots]]
        body = {"troots": troots, "type": kind.value}
        text = [f"type {kind.value}  " + " ".join(_fmt_root(t) for t in troots)]
    else:
        got, size = bracket_inclusion_table(pd), len(labels)
        cell = lambda hit: "{" + ",".join(hit) + "}"  # noqa: E731
        headers, rows = [""] + labels, ([labels[i]] + list(map(cell, row)) for i, row in enumerate(got))
        body = {"brackets": got, "labels": labels}
        text = (("\n" if i or j else "") + f"[{labels[i]}, {labels[j]}] -> " + cell(got[i][j])
                for i in range(size) for j in range(i, size))
        if args.check:
            if kind is G2Kind.NOT_G2_TYPE:
                raise NotG2TypeError(f"table brackets --check needs a G2-type painting; {args.space} is not one")
            # Modules a cross bracket may reach, or k when it reaches none.
            ref = REFERENCE_BRACKETS[kind]
            for i, j in product(range(6), repeat=2):
                allowed = {labels[k - 1] for k in ref.get((min(i, j) + 1, max(i, j) + 1), ())}
                mismatch |= not set(got[i][j]) <= (allowed or {"k"})
    # The t-root and dimension tables match the fixture by construction: the
    # painting orders G2-type modules by the reference t-roots, and the
    # loader checks each label fiber against the computed fiber.
    if args.check and args.which != "brackets" and _space_fixture(pd) is None:
        raise FixtureError(f"--check needs a canonical space with fixtures; {args.space} is not one")
    verdict = ("\ncheck: MISMATCH" if mismatch else "\ncheck: MATCH") if args.check else ""
    return (int(mismatch), _doc(args, f"table {args.which}", check=args.check, match=not mismatch, **body),
            chain(text, (verdict,)), _latex_table(headers, rows))


def cmd_check(args):
    pd = space_diagram(args.space)
    fixture = _space_fixture(pd)
    table = build_constants(pd.system)
    roots = [_parse_member(pd, fixture, tok) for tok in args.members]
    seen: dict = {}
    for tok, r in zip(args.members, roots):
        if r in seen:
            raise FlagrootsError(f"member {tok!r} repeats {seen[r]!r}: root {r}")
        seen[r] = tok
    family = StructuralFamily.from_roots(pd, roots)
    structural = is_structural_family(family)
    x = TangentVector.from_coefficients(pd, a={r: 1 for r in roots},
                                        b={r: Fraction(2 * i + 1, 2) for i, r in enumerate(roots)})
    equi = is_equigeodesic_all_metrics(table, pd, x)
    rng = random.Random(args.seed)
    n_modules = len(pd.isotropy_decomposition())

    def spot_metric():
        return MetricVector(tuple(Fraction(rng.randint(1, 60), rng.randint(1, 7)) for _ in range(n_modules)))

    spot_zero = all(equigeodesic_residual(table, pd, x, spot_metric()).is_zero() for _ in range(N_SPOT_METRICS))
    return (0, _doc(args, "check", members=[list(r) for r in roots], structural=structural,
                    equigeodesic_all_metrics=equi, sampled_metric_residuals_zero=spot_zero),
            f"family of {len(roots)} roots in {args.space}\n"
            f"structural: {'yes' if structural else 'no'}\n"
            f"equigeodesic for all metrics: {'yes' if equi else 'no'}\n"
            f"sampled-metric residuals zero ({N_SPOT_METRICS} draws, seed {args.seed}): "
            f"{'yes' if spot_zero else 'no'}",
            None)


def cmd_enumerate(args):
    pd = space_diagram(args.space)
    result = enumerate_maximal_families(pd, min_modules=args.min_modules, cap=args.cap)
    vertices = result.graph.vertices
    fixture_ok = True
    fixture_fields = {}
    if args.verify_fixtures:
        fixture = _space_fixture(pd)
        if fixture is None:
            raise FixtureError(f"--verify-fixtures needs a canonical space with fixtures; {args.space} is not one")
        # Label module j is computed module j (load_fixture checks the fibers), so each member is
        # the vertex of its (module, root) pair.  A member that is no vertex, or two non-adjacent
        # members, make no clique.  A clique over min_modules modules or more lies in a maximal one
        # over as many, listed unless the list is truncated; only other cliques are scanned for.
        adj, n = result.graph.adjacency, len(vertices)
        vertex_bit = {v: 1 << i for i, v in enumerate(vertices)}
        masks = None
        checked = [f for f in fixture.families if not f.suspect]
        missed = []
        for fam in checked:
            want = 0
            for v in zip((m for m, _ in fam.members), fixture.family_roots(fam)):
                want |= vertex_bit.get(v, 1 << n)
            if want >> n or any(want & ~adj[i] != 1 << i for i in range(n) if want >> i & 1):
                missed.append(fam)
            elif result.truncated or len({m for m, _ in fam.members}) < args.min_modules:
                if masks is None:
                    masks = [sum(1 << i for i in c) for c in result.cliques]
                if not any(mask & want == want for mask in masks):
                    missed.append(fam)
        fixture_ok = not missed and not result.truncated
        fixture_fields = {"fixture_match": fixture_ok, "fixture_check": {
            "checked": len(checked),
            "skipped_suspect": len(fixture.families) - len(checked),
            "missed": [[list(m) for m in f.members] for f in missed],
        }}

    def pieces(form, sep, cut):
        # One string per vertex (for json, a member of StructuralFamily.to_dict); each family is
        # its members' strings joined, and each piece 256 families joined by cut.  Built when read.
        member = [form.format(k, ",".join(map(str, r))) for k, r in vertices]
        cliques = result.cliques
        for i in range(0, len(cliques), 256):
            yield cut.join([sep.join(map(member.__getitem__, c)) for c in cliques[i:i + 256]])

    # Only "cap" and "command" sort before "families".
    head, key, tail = _doc(args, "enumerate", min_modules=args.min_modules, cap=args.cap,
                           total=result.total, truncated=result.truncated, families=[],
                           **fixture_fields).partition('"families":[]')
    family_tail, opener = "]," + _json_dump({"schema_version": SCHEMA_VERSION, "space": pd.name})[1:], '{"members":['
    json_out = chain.from_iterable(("," + opener if i else opener, piece, family_tail) for i, piece in enumerate(
        pieces('{{"module":{},"root_coeffs":[{}]}}', ",", family_tail + "," + opener)))
    text_out = chain.from_iterable(("\n  ", piece) for piece in pieces("m{}:({})", " ", "\n  "))
    latex_rows = ([piece] for piece in pieces("b({};({}))", " ", " \\\\\n"))
    text_head = (f"{result.total} maximal structural families (min modules {args.min_modules})"
                 + (" [truncated]" if result.truncated else ""))
    report = fixture_fields.get("fixture_check")
    foot = [] if report is None else [
        f"\nfixture check: {'ok' if fixture_ok else 'FAILED'} "
        f"({report['checked']} checked, {report['skipped_suspect']} suspect skipped)"]
    return (0 if fixture_ok else 1, chain((head, key[:-1]), json_out, ("]", tail)),
            chain((text_head,), text_out, foot), _latex_table(["maximal structural families"], latex_rows))


def _load_vector(pd, fixture, path: str) -> TangentVector:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise FlagrootsError(f"{path}: cannot read the vector file: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: arrays nested too deep
        raise FlagrootsError(f"{path}: not a JSON document: {exc}") from exc
    if not isinstance(doc, dict) or not doc:
        raise FlagrootsError(f"{path}: the top level must be an object with 'a'/'b' lists")
    if unknown := sorted(doc.keys() - {"a", "b"}):
        raise FlagrootsError(f"{path}: unknown top-level key {unknown[0]!r}; a vector file has 'a'/'b' lists only")
    a: dict = {}
    b: dict = {}
    for part, store in (("a", a), ("b", b)):
        items = doc.get(part, [])
        if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
            raise FlagrootsError(f"{path}: '{part}' must be a list of objects")
        for item in items:
            try:
                if "coeff" not in item:
                    raise FlagrootsError("no 'coeff'")
                if "label" in item and "root" in item:
                    raise FlagrootsError("has both a 'label' and a 'root'; give one")
                if unknown := sorted(item.keys() - {"label", "root", "module", "coeff"}):
                    raise FlagrootsError(f"unknown key {unknown[0]!r}")
                if isinstance(item.get("label"), str):
                    root = _parse_member(pd, fixture, item["label"])
                elif isinstance(item.get("root"), list) and all(type(c) is int for c in item["root"]):
                    root = pd.system.root(tuple(item["root"]))
                else:
                    raise FlagrootsError("needs a 'label' string or a 'root' list of integers")
                module = pd.module_index(root)  # refuses a root of R_K
                if "module" in item and (type(item["module"]) is not int or item["module"] != module):
                    raise FlagrootsError(f"root {root} is not in module {item['module']!r}")
                coeff = _parse_fraction(item["coeff"])
            except FlagrootsError as exc:
                raise FlagrootsError(f"{path}: entry {item} in '{part}': {exc}") from None
            store[root] = store.get(root, 0) + coeff
    return TangentVector.from_coefficients(pd, a=a, b=b)


def cmd_verify(args):
    pd = space_diagram(args.space)
    fixture = _space_fixture(pd)
    table = build_constants(pd.system)
    x = _load_vector(pd, fixture, args.vector)
    metric = MetricVector(tuple(_parse_fraction(tok) for tok in args.metric.split(",")))
    residual = equigeodesic_residual(table, pd, x, metric)
    by_module: dict[str, dict[str, dict[str, str]]] = {}
    modules = pd.isotropy_decomposition()
    for kind, store in (("A", residual.a), ("B", residual.b)):
        for r, c in sorted(store.items()):
            label = modules[pd.module_index(r) - 1].label
            try:
                by_module.setdefault(label, {}).setdefault(kind, {})[_fmt_root(r)] = str(c)
            except ValueError:  # str() refuses integers over sys.get_int_max_str_digits() digits
                limit = sys.get_int_max_str_digits()
                raise FlagrootsError(f"{args.vector}: the residual coefficient of {kind}{_fmt_root(r)} "
                                     f"is too long to write (over {limit} digits)") from None
    zero = residual.is_zero()
    lines = ["nonzero residual:"] + [f"  {label}  {c} * {kind}{root}"
                                     for label in sorted(by_module) for kind in sorted(by_module[label])
                                     for root, c in by_module[label][kind].items()]
    return (0, _doc(args, "verify", metric=[str(v) for v in metric.lambdas], zero=zero,
                    residual_by_module=by_module),
            "zero" if zero else "\n".join(lines), None)


# ----------------------------------------------------------------------

@cache  # built once per process: parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagroots",
        description="Exact computations on painted Dynkin diagrams of the "
                    "exceptional Lie types: root systems, isotropy summands, "
                    "bracket tables, structural equigeodesic subspaces.")
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
        code, json_out, text, latex = args.func(args)
        _emit({"json": json_out, "text": text, "latex": latex}[args.format], args.out)
        return code
    except BrokenPipeError:  # stdout closed: devnull takes the flush at exit (signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except (FlagrootsError, OSError, ValueError) as exc:  # OSError: e.g. --out names a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
