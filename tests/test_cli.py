import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import bcoloring
from bcoloring import coloring
from bcoloring.cli import main
from bcoloring.coloring import Coloring, SearchStatus, is_colorful, read_coloring, write_coloring
from bcoloring.fixtures import q3
from bcoloring.graphs import path_graph, read_col, write_col
from bcoloring.kneser import kneser_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kneser_gen_round_trip(tmp_path, capsys):
    target = tmp_path / "kg73.col"
    code, out, _ = run(capsys, "kneser", "gen", "-n", "7", "-m", "3", "-o", str(target))
    assert code == 0
    assert "vertices 35" in out and "edges 70" in out
    g = read_col(target)
    assert g == kneser_graph(7, 3).graph
    assert g.labels == kneser_graph(7, 3).graph.labels


def test_fixture_kg73_verify_colorful(tmp_path, capsys):
    code, out, _ = run(capsys, "fixture", "kg73", "-o", str(tmp_path))
    assert code == 0
    code, out, _ = run(
        capsys,
        "color",
        "verify",
        "-g",
        str(tmp_path / "kg73.col"),
        "-c",
        str(tmp_path / "kg73_colorful4.coloring"),
        "--colorful",
    )
    assert code == 0
    assert "proper true" in out and "colorful true" in out
    assert "witness_1 {1,2,3}" in out


def test_verify_refutes_bad_coloring(tmp_path, capsys):
    g = q3()
    write_col(g, tmp_path / "q3.col")
    write_coloring(Coloring(2, (1,) * 8), tmp_path / "bad.coloring", g)
    code, out, _ = run(
        capsys, "color", "verify", "-g", str(tmp_path / "q3.col"), "-c", str(tmp_path / "bad.coloring")
    )
    assert code == 1
    assert "proper false" in out


def test_chromatic_writes_witness(tmp_path, capsys):
    write_col(q3(), tmp_path / "q3.col")
    witness_path = tmp_path / "chi.coloring"
    code, out, _ = run(
        capsys, "color", "chromatic", "-g", str(tmp_path / "q3.col"), "-o", str(witness_path)
    )
    assert code == 0 and "chi 2" in out
    witness = read_coloring(witness_path, q3())
    assert witness.k == 2


def test_bspectrum_q3(tmp_path, capsys):
    write_col(q3(), tmp_path / "q3.col")
    outdir = tmp_path / "witnesses"
    code, out, _ = run(
        capsys, "color", "bspectrum", "-g", str(tmp_path / "q3.col"), "-o", str(outdir)
    )
    assert code == 0
    assert "spectrum {2,4}" in out
    assert "continuous false" in out
    for k in (2, 4):
        witness = read_coloring(outdir / f"bspectrum_k{k}.coloring", q3())
        assert is_colorful(q3(), witness)[0]


def test_bspectrum_budget_inconclusive(tmp_path, capsys):
    write_col(q3(), tmp_path / "q3.col")
    code, out, _ = run(
        capsys, "color", "bspectrum", "-g", str(tmp_path / "q3.col"), "--budget", "2"
    )
    assert code == 2
    assert "continuous unknown" in out


def test_hom_step_verify_compose_lift(tmp_path, capsys):
    step73 = tmp_path / "step73.map"
    step52 = tmp_path / "step52.map"
    assert run(capsys, "hom", "kneser-step", "-n", "7", "-m", "3", "-o", str(step73))[0] == 0
    assert run(capsys, "hom", "kneser-step", "-n", "5", "-m", "2", "-o", str(step52))[0] == 0

    code, out, _ = run(capsys, "hom", "verify", "-f", str(step73))
    assert code == 0
    assert "homomorphism true" in out and "surjective true" in out and "sls true" in out

    composite = tmp_path / "composite.map"
    assert run(capsys, "hom", "compose", "-f", str(step73), "-g", str(step52), "-o", str(composite))[0] == 0
    code, out, _ = run(capsys, "hom", "verify", "-f", str(composite))
    assert code == 0 and "sls true" in out

    run(capsys, "fixture", "kg73", "-o", str(tmp_path))
    lifted = tmp_path / "lifted.coloring"
    code, out, _ = run(
        capsys,
        "hom",
        "lift",
        "-f",
        str(step73),
        "-c",
        str(tmp_path / "kg73_colorful4.coloring"),
        "-o",
        str(lifted),
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "color",
        "verify",
        "-g",
        str(step73) + ".source.col",
        "-c",
        str(lifted),
        "--colorful",
    )
    assert code == 0 and "colorful true" in out


def test_hom_verify_refutes_non_sls_map(tmp_path, capsys):
    from bcoloring.graphs import complete_graph, path_graph
    from bcoloring.homomorphism import VertexMap, write_map

    write_col(path_graph(3), tmp_path / "p3.col")
    write_col(path_graph(2), tmp_path / "p2.col")
    f = VertexMap(path_graph(3), path_graph(2), (0, 1, 0))
    bad = VertexMap(path_graph(3), path_graph(2), (0, 0, 0))
    write_map(bad, tmp_path / "bad.map", tmp_path / "p3.col", tmp_path / "p2.col")
    code, out, _ = run(capsys, "hom", "verify", "-f", str(tmp_path / "bad.map"))
    assert code == 1
    assert "sls false" in out and "reason" in out

    # A proper 3-coloring of P3 as a map into K3 is a homomorphism, but
    # vertex 2 of P3 is not adjacent to 0, the only preimage of K3's 0.
    write_col(complete_graph(3), tmp_path / "k3.col")
    coloring = VertexMap(path_graph(3), complete_graph(3), (0, 1, 2))
    write_map(coloring, tmp_path / "c.map", tmp_path / "p3.col", tmp_path / "k3.col")
    code, out, _ = run(capsys, "hom", "verify", "-f", str(tmp_path / "c.map"))
    assert code == 1
    assert "sls false" in out and "reason " in out and "failing 0" in out


def test_verify_reports_every_check_when_the_strongest_fails(tmp_path, capsys):
    # The weaker checks run only when the SLS or colorful check fails, so
    # pin their lines for maps and colorings that pass them and fail it.
    from bcoloring.graphs import cycle_graph, graph_from_edges
    from bcoloring.homomorphism import VertexMap, write_map

    two_edges = graph_from_edges(4, [(0, 1), (2, 3)])
    write_col(two_edges, tmp_path / "2k2.col")
    write_col(path_graph(3), tmp_path / "p3.col")
    # A surjective homomorphism onto P3, but no preimage of 1 sees both ends.
    f = VertexMap(two_edges, path_graph(3), (0, 1, 2, 1))
    write_map(f, tmp_path / "f.map", tmp_path / "2k2.col", tmp_path / "p3.col")
    code, out, _ = run(capsys, "hom", "verify", "-f", str(tmp_path / "f.map"))
    assert code == 1
    assert "homomorphism true" in out and "surjective true" in out and "sls false" in out

    c6 = cycle_graph(6)
    write_col(c6, tmp_path / "c6.col")
    for colors, proper in (((1, 2, 1, 2, 1, 3), "true"), ((1, 1, 2, 2, 1, 2), "false")):
        write_coloring(Coloring(max(colors), colors), tmp_path / "c.coloring", c6)
        argv = ["color", "verify", "-g", str(tmp_path / "c6.col"), "-c", str(tmp_path / "c.coloring")]
        code, out, _ = run(capsys, *argv, "--colorful")
        assert code == 1
        assert f"proper {proper}" in out and "colorful false" in out and "witness" not in out


def test_unlabeled_fixture_over_labeled_graph(tmp_path, capsys):
    # The fixture's graph has no labels, so the Kneser graph's sidecar must go.
    q3_col = str(tmp_path / "q3.col")
    code, _, _ = run(capsys, "kneser", "gen", "-n", "7", "-m", "3", "-o", q3_col)
    assert code == 0
    code, _, _ = run(capsys, "fixture", "q3", "-o", str(tmp_path))
    assert code == 0
    code, out, _ = run(capsys, "graph", "girth", "-g", q3_col)
    assert code == 0 and "girth 4" in out


def test_graph_predicates(tmp_path, capsys):
    run(capsys, "fixture", "heawood", "-o", str(tmp_path))
    heawood_col = str(tmp_path / "heawood.col")
    code, out, _ = run(capsys, "graph", "girth", "-g", heawood_col)
    assert code == 0 and "girth 6" in out
    code, out, _ = run(capsys, "graph", "regularity", "-g", heawood_col)
    assert code == 0 and "degree 3" in out
    code, out, _ = run(capsys, "graph", "bipartite", "-g", heawood_col)
    assert code == 0 and "bipartite true" in out

    run(capsys, "fixture", "petersen", "-o", str(tmp_path))
    code, out, _ = run(capsys, "graph", "bipartite", "-g", str(tmp_path / "petersen.col"))
    assert code == 1 and "bipartite false" in out

    write_col(path_graph(3), tmp_path / "p3.col")
    code, out, _ = run(capsys, "graph", "regularity", "-g", str(tmp_path / "p3.col"))
    assert code == 1 and "regular false" in out


def test_malformed_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 9\n")
    code, _, err = run(capsys, "graph", "girth", "-g", str(bad))
    assert code == 3
    assert "bad.col:2" in err
    code, _, err = run(capsys, "graph", "girth", "-g", str(tmp_path / "missing.col"))
    assert code == 3
    assert err.startswith("error: ") and "missing.col" in err


def test_oversized_inputs_exit_code(tmp_path, capsys):
    huge = tmp_path / "huge.col"
    huge.write_text("p edge 100000000 0\n")
    code, _, err = run(capsys, "graph", "girth", "-g", str(huge))
    assert code == 3 and "limit" in err
    code, _, err = run(capsys, "kneser", "gen", "-n", "30", "-m", "15", "-o", str(tmp_path / "kg.col"))
    assert code == 3 and "limit" in err
    code, _, err = run(
        capsys, "kneser", "gen", "-n", "1000000000", "-m", "500000000", "-o", str(tmp_path / "kg.col")
    )
    assert code == 3 and "limit" in err
    # K_10000, and the step map's source KG(141,2), each have over 47M edges.
    code, _, err = run(capsys, "kneser", "gen", "-n", "10000", "-m", "1", "-o", str(tmp_path / "kg.col"))
    assert code == 3 and "limit" in err
    code, _, err = run(capsys, "hom", "kneser-step", "-n", "139", "-m", "1", "-o", str(tmp_path / "step.map"))
    assert code == 3 and "limit" in err
    write_col(path_graph(2), tmp_path / "p2.col")
    many = tmp_path / "many.coloring"
    many.write_text("k 10001\n0 1\n1 2\n")
    code, _, err = run(capsys, "color", "verify", "-g", str(tmp_path / "p2.col"), "-c", str(many))
    assert code == 3 and "limit" in err


def test_invalid_budget_exit_code(tmp_path, capsys):
    # A NaN deadline never passes, so it would leave the search uncapped.
    graph = tmp_path / "q3.col"
    write_col(q3(), graph)
    for option, value in (
        ("--seconds", "nan"),
        ("--budget", "-1"),
        ("--seconds", "-1"),
        ("--budget", "abc"),
    ):
        code, out, err = run(capsys, "color", "bspectrum", "-g", str(graph), option, value)
        assert code == 3 and out == "" and "budget" in err


def test_usage_error_exit_code(capsys):
    # argparse's own status 2 would read as "inconclusive".
    code, out, err = run(capsys, "kneser", "gen", "-n", "5")
    assert code == 3 and out == "" and "usage:" in err and "required" in err
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "usage:" in out


def test_duplicate_label_in_sidecar_exit_code(tmp_path, capsys):
    write_col(q3(), tmp_path / "q3.col")
    (tmp_path / "q3.col.labels").write_text("a\nb\n\nc0\nd\ne\nb\nf\ng\n")
    code, _, err = run(capsys, "graph", "girth", "-g", str(tmp_path / "q3.col"))
    assert code == 3
    assert "q3.col.labels:7: label 'b' of vertex 5 is also the label of vertex 1" in err


def test_map_path_with_whitespace_exit_code(tmp_path, capsys):
    # A header "map <source> <target>" splits such a path in two.
    output = str(tmp_path / "my step.map")
    code, _, err = run(capsys, "hom", "kneser-step", "-n", "5", "-m", "2", "-o", output)
    assert code == 3 and "whitespace" in err
    assert list(tmp_path.iterdir()) == []  # neither the map nor its graphs


def test_compose_of_maps_that_do_not_meet_exit_code(tmp_path, capsys):
    # step52 ends at KG(5,2), but step73 starts at KG(9,4).
    step73 = tmp_path / "step73.map"
    step52 = tmp_path / "step52.map"
    assert run(capsys, "hom", "kneser-step", "-n", "7", "-m", "3", "-o", str(step73))[0] == 0
    assert run(capsys, "hom", "kneser-step", "-n", "5", "-m", "2", "-o", str(step52))[0] == 0
    composite = tmp_path / "composite.map"
    code, out, err = run(capsys, "hom", "compose", "-f", str(step52), "-g", str(step73), "-o", str(composite))
    assert code == 3 and out == ""
    assert "cannot compose" in err
    assert not composite.exists()


def test_unexpected_error_exit_code(tmp_path, capsys, monkeypatch):
    # Exit 1 means "refuted", so a crash of the search must not end with it.
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(coloring, "b_spectrum", crash)
    write_col(q3(), tmp_path / "q3.col")
    code, out, err = run(capsys, "color", "bspectrum", "-g", str(tmp_path / "q3.col"))
    assert code == 4 and out == ""
    assert err == "error: internal RecursionError: maximum recursion depth exceeded\n"


def test_json_reports_are_flat_and_parse(tmp_path, capsys):
    write_col(q3(), tmp_path / "q3.col")
    code, out, _ = run(capsys, "color", "bspectrum", "-g", str(tmp_path / "q3.col"), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["spectrum"] == [2, 4]
    assert report["continuous"] is False
    assert report["chi"] == 2 and report["b"] == 4


def test_cli_output_is_deterministic(tmp_path, capsys):
    write_col(q3(), tmp_path / "q3.col")
    first = run(capsys, "color", "bspectrum", "-g", str(tmp_path / "q3.col"))
    second = run(capsys, "color", "bspectrum", "-g", str(tmp_path / "q3.col"))
    assert first == second


def test_bspectrum_on_a_deep_path(tmp_path, capsys):
    # Deeper than Python's recursion limit; this once ended in exit 4.
    from bcoloring.graphs import path_graph

    write_col(path_graph(1500), tmp_path / "path.col")
    code, out, _ = run(capsys, "color", "bspectrum", "-g", str(tmp_path / "path.col"), "--json")
    assert code == 0
    assert json.loads(out)["spectrum"] == [2, 3]


def test_non_utf8_label_sidecar_exit_code(tmp_path, capsys):
    write_col(q3(), tmp_path / "q3.col")
    (tmp_path / "q3.col.labels").write_bytes(b"a\nb\n\xff\n")
    code, _, err = run(capsys, "graph", "girth", "-g", str(tmp_path / "q3.col"))
    assert code == 3
    assert "q3.col.labels:3: not UTF-8 text" in err


# The report lines each trailing comment of the README's command-line example promises.
README_REPORTS = {
    "girth 6": ["girth 6"],
    "degree 3": ["degree 3"],
    "spectrum {2,4}, not continuous": ["spectrum {2,4}", "continuous false"],
}


def test_readme_command_line_example_runs(tmp_path, capsys, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    commands = [line for line in block.splitlines() if line.startswith("bcoloring ")]
    assert len(commands) == 15
    promised = []
    for line in commands:
        command, _, comment = line.partition("#")
        code, out, err = run(capsys, *shlex.split(command)[1:])
        assert code == 0, (line, err)
        if comment:
            promised.append(comment.strip())
            assert all(report in out for report in README_REPORTS[comment.strip()]), (line, out)
    assert sorted(promised) == sorted(README_REPORTS)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "# Petersen: B = {3}" in block
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(block, namespace)
    assert namespace["report"].spectrum == {3}
    assert namespace["result"].status is SearchStatus.FOUND


def _modules_after(script):
    """The names in sys.modules once script has run in a fresh interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    script += "\nimport sys; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_cli_import_loads_no_dataclasses():
    # Every CLI call pays for what `import bcoloring.cli` loads; dataclasses
    # brings inspect, dis, ast and tokenize with it, which nothing here needs.
    assert not {"dataclasses", "inspect"} & _modules_after("import bcoloring.cli")


def test_hom_verify_loads_no_search_modules(tmp_path):
    # A CLI call compiles only what its subcommand runs: checking a map needs
    # the graph reader and the SLS check, not the searches or the fixtures.
    step = tmp_path / "step.map"
    assert main(["hom", "kneser-step", "-n", "5", "-m", "2", "-o", str(step)]) == 0
    call = ["hom", "verify", "-f", str(step)]
    loaded = _modules_after(f"from bcoloring import cli; assert cli.main({call!r}) == 0")
    assert "bcoloring.homomorphism" in loaded
    assert not loaded & {"bcoloring.coloring", "bcoloring.kneser", "bcoloring.fixtures"}


def test_kneser_gen_loads_no_coloring_or_fixtures(tmp_path):
    call = ["kneser", "gen", "-n", "5", "-m", "2", "-o", str(tmp_path / "kg52.col")]
    loaded = _modules_after(f"from bcoloring import cli; assert cli.main({call!r}) == 0")
    assert "bcoloring.kneser" in loaded
    assert not loaded & {"bcoloring.coloring", "bcoloring.fixtures"}


def test_package_namespace_covers_every_public_name():
    namespace = {}
    exec("from bcoloring import *", namespace)
    public = set(bcoloring.__all__)
    assert public <= set(namespace) and public <= set(dir(bcoloring))
    for name in ("Coloring", "kneser_graph", "read_map", "graph_from_edges", "InputError"):
        assert name in public
    for name in public:
        module = sys.modules[f"bcoloring.{bcoloring._MODULE_OF[name]}"]
        assert namespace[name] is getattr(module, name), name
