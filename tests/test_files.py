import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcoloring.coloring import Coloring, read_coloring, write_coloring
from bcoloring.errors import FileFormatError
from bcoloring.fixtures import kg73_colorful_four, q3
from bcoloring.graphs import write_col
from bcoloring.homomorphism import kneser_step_hom, read_map, write_map
from bcoloring.kneser import kneser_graph


def test_coloring_round_trip_with_labels(tmp_path):
    kg = kneser_graph(7, 3)
    coloring, _ = kg73_colorful_four()
    path = tmp_path / "kg73.coloring"
    write_coloring(coloring, path, kg.graph)
    assert read_coloring(path, kg.graph) == coloring
    text = path.read_text().splitlines()
    assert text[0] == "k 4"
    assert text[1].split()[0] == "{1,2,3}"


def test_coloring_round_trip_without_labels(tmp_path):
    g = q3()
    c = Coloring(2, tuple(1 + bin(v).count("1") % 2 for v in range(8)))
    path = tmp_path / "q3.coloring"
    write_coloring(c, path, g)
    assert read_coloring(path, g) == c


def test_coloring_accepts_bare_indices_for_labeled_graph(tmp_path):
    kg = kneser_graph(3, 1)
    path = tmp_path / "c.coloring"
    path.write_text("k 3\n0 1\n1 2\n2 3\n")
    assert read_coloring(path, kg.graph).colors == (1, 2, 3)


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("0 1\n", "expected header"),
        ("k 2\n0 1\n0 2\n1 2\n", "assigned twice"),
        ("k 2\n0 1\n1 5\n", "outside 1..2"),
        ("k 2\n0 1\n7 1\n", "outside 0..2"),
        ("k 2\n0 1\nbogus 1\n", "unknown vertex"),
        ("k 2\n0 1\n", "no color given"),
        ("k 10001\n0 1\n1 2\n2 1\n", "limit"),
    ],
)
def test_coloring_malformed_files(tmp_path, body, fragment):
    from bcoloring.graphs import path_graph

    path = tmp_path / "bad.coloring"
    path.write_text(body)
    with pytest.raises(FileFormatError, match=fragment):
        read_coloring(path, path_graph(3))


def test_coloring_error_line_numbers(tmp_path):
    from bcoloring.graphs import path_graph

    path = tmp_path / "bad.coloring"
    path.write_text("c note\nk 2\n0 1\n1 9\n")
    with pytest.raises(FileFormatError) as err:
        read_coloring(path, path_graph(3))
    assert err.value.lineno == 4


def test_map_round_trip(tmp_path):
    f = kneser_step_hom(5, 2)
    src_path = tmp_path / "kg73.col"
    tgt_path = tmp_path / "kg52.col"
    write_col(f.source, src_path)
    write_col(f.target, tgt_path)
    map_path = tmp_path / "step.map"
    write_map(f, map_path, src_path, tgt_path)
    back = read_map(map_path)
    assert back.mapping == f.mapping
    assert back.source == f.source and back.target == f.target
    header = map_path.read_text().splitlines()[0]
    assert header == "map kg73.col kg52.col"


def test_map_relative_paths_survive_relocation(tmp_path):
    # A map file read from a different working directory still finds its graphs.
    import os

    f = kneser_step_hom(5, 2)
    sub = tmp_path / "artifacts"
    sub.mkdir()
    write_col(f.source, sub / "src.col")
    write_col(f.target, sub / "tgt.col")
    write_map(f, sub / "step.map", sub / "src.col", sub / "tgt.col")
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert read_map(sub / "step.map").mapping == f.mapping
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize(
    "lines, fragment",
    [
        (["0 1"], "expected header"),
        (["map src.col tgt.col", "0 0", "0 1"], "mapped twice"),
        (["map src.col tgt.col", "0 0"], "no image"),
        (["map src.col tgt.col", "0 9"], "outside"),
    ],
)
def test_map_malformed_files(tmp_path, lines, fragment):
    from bcoloring.graphs import path_graph

    write_col(path_graph(2), tmp_path / "src.col")
    write_col(path_graph(2), tmp_path / "tgt.col")
    path = tmp_path / "bad.map"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=fragment):
        read_map(path)


# Bytes that are mostly lines of the formats' own tokens, with stray bytes.
_TOKENS = [
    b"c", b"p", b"edge", b"e", b"k", b"map", b"g.col", b"missing.col", b"0", b"1",
    b"2", b"3", b"-1", b"99999", b"x", b"{1,2}", b"{3,4}", b"\xff", b"\xc3", b"\xe2\x82",
]
_FILE_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(
        st.lists(st.sampled_from(_TOKENS), max_size=5).map(b" ".join), max_size=8
    ).map(lambda lines: b"\n".join(lines)),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    write_col(kneser_graph(5, 2).graph, d / "g.col")
    return d


def _parses_or_rejects(read, path, data, also=()):
    path.write_bytes(data)
    try:
        read(path)
    except FileFormatError:
        pass
    except also:
        pass


@settings(max_examples=300, deadline=None)
@given(_FILE_BYTES)
def test_col_reader_fuzz(fuzz_dir, data):
    from bcoloring.graphs import read_col

    _parses_or_rejects(read_col, fuzz_dir / "fuzz.col", data)


@settings(max_examples=300, deadline=None)
@given(_FILE_BYTES)
def test_coloring_reader_fuzz(fuzz_dir, data):
    g = kneser_graph(5, 2).graph
    _parses_or_rejects(lambda path: read_coloring(path, g), fuzz_dir / "fuzz.coloring", data)


@settings(max_examples=300, deadline=None)
@given(_FILE_BYTES)
def test_map_reader_fuzz(fuzz_dir, data):
    # A header may name a graph file that is not there.
    _parses_or_rejects(read_map, fuzz_dir / "fuzz.map", data, also=OSError)


def test_comment_is_a_line_whose_first_field_is_c(tmp_path):
    from bcoloring.graphs import path_graph, read_col

    col = tmp_path / "p.col"
    col.write_text("c\nc  two fields\np edge 2 1\ne 1 2\n")
    assert read_col(col) == path_graph(2)
    col.write_text("p edge 2 1\ncat 1 2\ne 1 2\n")
    with pytest.raises(FileFormatError, match="unknown line type 'cat'"):
        read_col(col)
    coloring = tmp_path / "p.coloring"
    coloring.write_text("c\nk 2\nc\t note\n0 1\n1 2\n")
    assert read_coloring(coloring, path_graph(2)).colors == (1, 2)
    write_col(path_graph(2), tmp_path / "q.col")
    map_path = tmp_path / "p.map"
    map_path.write_text("c\nmap q.col q.col\nc\n0 1\n1 0\n")
    assert read_map(map_path).mapping == (1, 0)


@pytest.mark.parametrize("suffix", [".col", ".coloring", ".map"])
def test_non_utf8_files_are_format_errors(tmp_path, suffix):
    from bcoloring.graphs import path_graph, read_col

    path = tmp_path / f"bad{suffix}"
    path.write_bytes(b"c fine\nc \xff\n")
    read = {".col": read_col, ".map": read_map}.get(suffix, lambda p: read_coloring(p, path_graph(1)))
    with pytest.raises(FileFormatError, match="not UTF-8") as err:
        read(path)
    assert err.value.lineno == 2


def test_coloring_rejects_a_negative_color_count(tmp_path):
    # Only a graph without vertices gets as far as the count itself.
    from bcoloring.graphs import graph_from_edges

    path = tmp_path / "empty.coloring"
    path.write_text("k -1\n")
    with pytest.raises(FileFormatError, match="negative color count"):
        read_coloring(path, graph_from_edges(0, []))
