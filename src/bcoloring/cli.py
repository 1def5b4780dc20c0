"""Command-line surface: every operation scriptable, nothing random.

Exit status: 0 = verified/true, 1 = refuted/false, 2 = inconclusive
(budget ran out), 3 = input or usage error, 4 = unexpected internal
error. Reports are "key value" lines, or one flat JSON object with --json.

The coloring, kneser and fixtures modules are imported inside the handlers
that use them, so each call loads only what its subcommand runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InputError
from .graphs import (
    INFINITE_GIRTH,
    girth,
    is_bipartite,
    read_col,
    regularity,
    write_col,
)
from .homomorphism import (
    _read_map_header,
    compose,
    is_homomorphism,
    is_semi_locally_surjective,
    is_surjective,
    kneser_step_hom,
    lift_coloring,
    read_map,
    write_map,
)


def _emit(pairs, as_json):
    if as_json:
        print(json.dumps(dict(pairs)))
        return
    for key, value in pairs:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif value is None:
            value = "unknown"
        elif isinstance(value, (list, tuple)):
            value = "{" + ",".join(str(x) for x in value) + "}"
        print(f"{key} {value}")


# ---------------------------------------------------------------------------
# kneser

def _cmd_kneser_gen(args):
    from .kneser import kneser_graph

    kg = kneser_graph(args.n, args.m)
    write_col(kg.graph, args.output, comment=f"Kneser graph KG({args.n},{args.m})")
    _emit(
        [
            ("vertices", kg.graph.n),
            ("edges", kg.graph.edge_count()),
            ("graph", args.output),
            ("labels", str(args.output) + ".labels"),
        ],
        args.json,
    )
    return 0


# ---------------------------------------------------------------------------
# color

def _cmd_color_verify(args):
    from .coloring import is_colorful, is_proper, read_coloring

    g = read_col(args.graph)
    c = read_coloring(args.coloring, g)
    if args.colorful:
        # A colorful coloring is proper, so is_proper runs only when it fails.
        verdict, witnesses = is_colorful(g, c)
        pairs = [("k", c.k), ("proper", verdict or is_proper(g, c)), ("colorful", verdict)]
        for color in sorted(witnesses or ()):
            pairs.append((f"witness_{color}", g.label_of(witnesses[color])))
    else:
        verdict = is_proper(g, c)
        pairs = [("k", c.k), ("proper", verdict)]
    _emit(pairs, args.json)
    return 0 if verdict else 1


def _cmd_color_chromatic(args):
    from .coloring import chromatic_number, write_coloring

    g = read_col(args.graph)
    chi, witness = chromatic_number(g)
    pairs = [("chi", chi)]
    if args.output:
        write_coloring(witness, args.output, g)
        pairs.append(("witness", args.output))
    _emit(pairs, args.json)
    return 0


def _cmd_color_bspectrum(args):
    from .coloring import Budget, b_spectrum, write_coloring

    g = read_col(args.graph)
    budget = None
    if args.budget is not None or args.seconds is not None:
        budget = Budget(max_nodes=args.budget, max_seconds=args.seconds)
    report = b_spectrum(g, budget)
    pairs = [
        ("chi", report.chi),
        ("b", report.b),
        ("m_degree_bound", report.m_bound),
        ("spectrum", sorted(report.spectrum)),
        ("unknown", sorted(report.unknown)),
        ("continuous", report.continuous),
    ]
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        for k in sorted(report.witnesses):
            path = os.path.join(args.output, f"bspectrum_k{k}.coloring")
            write_coloring(report.witnesses[k], path, g)
            pairs.append((f"witness_{k}", path))
    _emit(pairs, args.json)
    return 2 if report.unknown else 0


# ---------------------------------------------------------------------------
# hom

def _cmd_hom_verify(args):
    f = read_map(args.map)
    verdict = is_semi_locally_surjective(f)
    # An SLS map is a surjective homomorphism, so those checks run only when it fails.
    hom = verdict.ok or is_homomorphism(f)
    surjective = verdict.ok or is_surjective(f)
    pairs = [("homomorphism", hom), ("surjective", surjective), ("sls", verdict.ok)]
    if verdict.ok:
        for u in range(f.target.n):
            a = verdict.certificate.witness[u]
            pairs.append((f"witness_{f.target.label_of(u)}", f.source.label_of(a)))
    else:
        pairs.append(("reason", verdict.reason))
        if verdict.failing_vertex is not None:
            pairs.append(("failing", f.target.label_of(verdict.failing_vertex)))
    _emit(pairs, args.json)
    return 0 if verdict.ok else 1


def _cmd_hom_kneser_step(args):
    f = kneser_step_hom(args.n, args.m)
    source_path = str(args.output) + ".source.col"
    target_path = str(args.output) + ".target.col"
    write_map(f, args.output, source_path, target_path)  # refuses a bad path before any write
    write_col(f.source, source_path, comment=f"Kneser graph KG({args.n + 2},{args.m + 1})")
    write_col(f.target, target_path, comment=f"Kneser graph KG({args.n},{args.m})")
    _emit([("map", args.output), ("source", source_path), ("target", target_path)], args.json)
    return 0


def _cmd_hom_compose(args):
    f = read_map(args.first)
    g = read_map(args.second)
    composite = compose(f, g)
    source_path, _, _ = _read_map_header(args.first)
    _, target_path, _ = _read_map_header(args.second)
    write_map(composite, args.output, source_path, target_path)
    _emit([("map", args.output)], args.json)
    return 0


def _cmd_hom_lift(args):
    from .coloring import read_coloring, write_coloring

    f = read_map(args.map)
    c = read_coloring(args.coloring, f.target)
    lifted = lift_coloring(f, c)
    write_coloring(lifted, args.output, f.source)
    _emit([("k", lifted.k), ("coloring", args.output)], args.json)
    return 0


# ---------------------------------------------------------------------------
# fixture

def _cmd_fixture(args):
    from . import fixtures
    from .coloring import write_coloring
    from .kneser import kneser_graph

    os.makedirs(args.output, exist_ok=True)
    name = args.name
    pairs = []
    if name == "kg73":
        kg = kneser_graph(7, 3)
        coloring, designated = fixtures.kg73_colorful_four()
        graph_path = os.path.join(args.output, "kg73.col")
        coloring_path = os.path.join(args.output, "kg73_colorful4.coloring")
        write_col(kg.graph, graph_path, comment="Kneser graph KG(7,3)")
        write_coloring(coloring, coloring_path, kg.graph)
        pairs = [("graph", graph_path), ("coloring", coloring_path)]
        for i, v in enumerate(designated, start=1):
            pairs.append((f"designated_{i}", kg.graph.label_of(v)))
    else:
        g = {"petersen": fixtures.petersen, "q3": fixtures.q3, "heawood": fixtures.heawood}[name]()
        graph_path = os.path.join(args.output, f"{name}.col")
        write_col(g, graph_path, comment=f"{name} fixture")
        pairs = [("graph", graph_path)]
    _emit(pairs, args.json)
    return 0


# ---------------------------------------------------------------------------
# graph

def _cmd_graph_girth(args):
    g = read_col(args.graph)
    value = girth(g)
    _emit([("girth", "infinite" if value == INFINITE_GIRTH else value)], args.json)
    return 0


def _cmd_graph_regularity(args):
    g = read_col(args.graph)
    d = regularity(g)
    if d is None:
        _emit([("regular", False)], args.json)
        return 1
    _emit([("regular", True), ("degree", d)], args.json)
    return 0


def _cmd_graph_bipartite(args):
    g = read_col(args.graph)
    ok, sides = is_bipartite(g)
    pairs = [("bipartite", ok)]
    if ok:
        pairs.append(("sides", "".join(str(s) for s in sides)))
    _emit(pairs, args.json)
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bcoloring",
        description="Colorful (b-)colorings, Kneser graphs and semi-locally-surjective homomorphisms.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    leaves = []

    def leaf(group, name, handler, **kwargs):
        sub = group.add_parser(name, **kwargs)
        sub.set_defaults(handler=handler)
        leaves.append(sub)
        return sub

    kneser = top.add_parser("kneser", help="Kneser graph generation").add_subparsers(
        dest="subcommand", required=True
    )
    gen = leaf(kneser, "gen", _cmd_kneser_gen, help="write KG(n,m) as .col with a label sidecar")
    gen.add_argument("-n", type=int, required=True)
    gen.add_argument("-m", type=int, required=True)
    gen.add_argument("-o", "--output", required=True)

    color = top.add_parser("color", help="coloring verification and search").add_subparsers(
        dest="subcommand", required=True
    )
    verify = leaf(color, "verify", _cmd_color_verify, help="check a coloring file against a graph")
    verify.add_argument("-g", "--graph", required=True)
    verify.add_argument("-c", "--coloring", required=True)
    verify.add_argument("--colorful", action="store_true", help="also check the colorful condition")
    chromatic = leaf(color, "chromatic", _cmd_color_chromatic, help="exact chromatic number")
    chromatic.add_argument("-g", "--graph", required=True)
    chromatic.add_argument("-o", "--output", default=None, help="witness coloring file")
    spectrum = leaf(color, "bspectrum", _cmd_color_bspectrum, help="full b-spectrum report")
    spectrum.add_argument("-g", "--graph", required=True)
    spectrum.add_argument("-o", "--output", default=None, help="directory for witness colorings")
    spectrum.add_argument("--budget", type=int, default=None, help="node expansion cap per search")
    spectrum.add_argument("--seconds", type=float, default=None, help="wall clock cap per search")

    hom = top.add_parser("hom", help="graph homomorphisms").add_subparsers(
        dest="subcommand", required=True
    )
    hverify = leaf(hom, "verify", _cmd_hom_verify, help="homomorphism / surjective / SLS verdicts")
    hverify.add_argument("-f", "--map", required=True)
    step = leaf(hom, "kneser-step", _cmd_hom_kneser_step, help="emit the KG(n+2,m+1) -> KG(n,m) map")
    step.add_argument("-n", type=int, required=True)
    step.add_argument("-m", type=int, required=True)
    step.add_argument("-o", "--output", required=True)
    comp = leaf(hom, "compose", _cmd_hom_compose, help="compose two map files (first, then second)")
    comp.add_argument("-f", "--first", required=True)
    comp.add_argument("-g", "--second", required=True)
    comp.add_argument("-o", "--output", required=True)
    lift = leaf(hom, "lift", _cmd_hom_lift, help="lift a colorful coloring along an SLS map")
    lift.add_argument("-f", "--map", required=True)
    lift.add_argument("-c", "--coloring", required=True)
    lift.add_argument("-o", "--output", required=True)

    fixture = leaf(top, "fixture", _cmd_fixture, help="export built-in fixtures")
    fixture.add_argument("name", choices=["kg73", "petersen", "q3", "heawood"])
    fixture.add_argument("-o", "--output", required=True, help="output directory")

    graph = top.add_parser("graph", help="structural predicates").add_subparsers(
        dest="subcommand", required=True
    )
    for name, handler in [
        ("girth", _cmd_graph_girth),
        ("regularity", _cmd_graph_regularity),
        ("bipartite", _cmd_graph_bipartite),
    ]:
        sub = leaf(graph, name, handler)
        sub.add_argument("-g", "--graph", required=True)

    for sub in leaves:
        sub.add_argument("--json", action="store_true", help="emit one flat JSON object")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse ends a usage error with status 2, which reads as "inconclusive".
        return 3 if exc.code == 2 else exc.code
    try:
        return args.handler(args)
    except (InputError, OSError) as exc:  # FileFormatError is an InputError
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # Any other failure is a fault of the program, never a verdict: exit 1
        # would read as "refuted".
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
