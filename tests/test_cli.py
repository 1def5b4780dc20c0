import json

from bcoloring import cli
from bcoloring.cli import main
from bcoloring.coloring import Coloring, is_colorful, read_coloring, write_coloring
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
    from bcoloring.graphs import path_graph
    from bcoloring.homomorphism import VertexMap, write_map

    write_col(path_graph(3), tmp_path / "p3.col")
    write_col(path_graph(2), tmp_path / "p2.col")
    f = VertexMap(path_graph(3), path_graph(2), (0, 1, 0))
    bad = VertexMap(path_graph(3), path_graph(2), (0, 0, 0))
    write_map(bad, tmp_path / "bad.map", tmp_path / "p3.col", tmp_path / "p2.col")
    code, out, _ = run(capsys, "hom", "verify", "-f", str(tmp_path / "bad.map"))
    assert code == 1
    assert "sls false" in out and "reason" in out


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
    write_col(path_graph(2), tmp_path / "p2.col")
    many = tmp_path / "many.coloring"
    many.write_text("k 10001\n0 1\n1 2\n")
    code, _, err = run(capsys, "color", "verify", "-g", str(tmp_path / "p2.col"), "-c", str(many))
    assert code == 3 and "limit" in err


def test_invalid_budget_exit_code(tmp_path, capsys):
    # A NaN deadline never passes, so it would leave the search uncapped.
    graph = tmp_path / "q3.col"
    write_col(q3(), graph)
    for option, value in (("--seconds", "nan"), ("--budget", "-1"), ("--seconds", "-1")):
        code, out, err = run(capsys, "color", "bspectrum", "-g", str(graph), option, value)
        assert code == 3 and out == "" and "budget" in err


def test_unexpected_error_exit_code(tmp_path, capsys, monkeypatch):
    # Exit 1 means "refuted", so a crash of the search must not end with it.
    def crash(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "b_spectrum", crash)
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
