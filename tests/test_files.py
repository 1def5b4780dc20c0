import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcoloring.coloring import Coloring, read_coloring, write_coloring
from bcoloring.errors import FileFormatError
from bcoloring.fixtures import kg73_colorful_four, q3
from bcoloring.graphs import MAX_VERTICES, graph_from_edges, read_col, write_col
from bcoloring.homomorphism import VertexMap, kneser_step_hom, read_map, write_map
from bcoloring.kneser import kneser_graph

import oracles


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


def test_coloring_token_that_is_a_label_names_that_labels_vertex(tmp_path):
    # Vertex 2 is labeled "0", so the token 0 names vertex 2, not vertex 0.
    g = graph_from_edges(3, [(0, 1), (1, 2)], labels=["1", "2", "0"])
    path = tmp_path / "p3.coloring"
    path.write_text("k 2\n0 1\n1 2\n2 1\n")
    assert read_coloring(path, g).colors == (2, 1, 1)


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("0 1\n", "expected header"),
        ("k 2\n0 1\n0 2\n1 2\n", "vertex 0 listed twice"),
        ("k 2\n0 1\n1 5\n", "outside 1..2"),
        ("k 2\n0 1\n7 1\n", "outside 0..2"),
        ("k 2\n0 1\nbogus 1\n", "unknown vertex"),
        ("k 2\n0 1\n", "no line for vertex 1"),
        ("k 10001\n0 1\n1 2\n2 1\n", "limit"),
        ("k 2\n0 1 2\n", "expected '<vertex> <color>'"),
        ("k 2\n0 x\n", "non-integer color"),
        ("k x\n0 1\n", "non-integer color count"),
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


def test_unlabeled_graph_removes_an_old_label_sidecar(tmp_path):
    # A sidecar left by a labeled graph would label the one written over it.
    path = tmp_path / "g.col"
    write_col(kneser_graph(5, 2).graph, path)
    write_col(graph_from_edges(3, [(0, 1)]), path)
    assert read_col(path).labels is None
    write_col(graph_from_edges(3, [(0, 1)]), path)  # no sidecar left to remove
    assert read_col(path).labels is None


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
        (["map src.col tgt.col", "0 0", "0 1"], "vertex 0 listed twice"),
        (["map src.col tgt.col", "0 0"], "no line for vertex 1"),
        (["map src.col tgt.col", "0 9"], "outside"),
        (["map src.col tgt.col", "0 0 0"], "expected"),
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


# The graph the .coloring and .map fuzz files name their vertices in: ten
# vertices labeled "{1,2}" and so on, written with its labels as g.col.
_KG52 = kneser_graph(5, 2).graph


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    write_col(_KG52, d / "g.col")
    return d


def _parses_or_rejects(read, path, data, also=()):
    """read(path) over data, or None when the file is rejected."""
    path.write_bytes(data)
    try:
        return read(path)
    except FileFormatError:
        pass
    except also:
        pass
    return None


def _rows(data):
    """The fields of each line of data that is neither blank nor a comment, or None if not UTF-8."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [fields for fields in map(str.split, lines) if fields and fields[0] != "c"]


@st.composite
def _col_like_bytes(draw):
    """A header, then edge lines (some out of range or loops), comments and blank lines."""
    n = draw(st.integers(min_value=0, max_value=5))
    endpoint = st.integers(min_value=1, max_value=n) if n else st.just(1)
    edge = st.tuples(st.one_of(endpoint, st.integers(0, n + 1)), endpoint).map(lambda e: b"e %d %d" % e)
    body = draw(st.lists(st.one_of(edge, st.sampled_from([b"c", b"c e 1 2", b""])), max_size=8))
    m = sum(line.startswith(b"e") for line in body) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return draw(st.sampled_from([b"\n", b"\r\n", b"\r"])).join([b"p edge %d %d" % (n, m), *body])


@st.composite
def _record_bytes(draw, header, bad_header, value, bad_value):
    """A header, then "<vertex> <value>" lines for the vertices of KG(5,2) in a drawn order.

    Each vertex is named by its label or its index, and comments and blank
    lines fall between the records. Then up to two faults are drawn: a
    record dropped or repeated, a vertex or a value out of range, or a bad
    header.
    """
    names = _KG52.labels
    lines = [draw(header)]
    records = [[draw(st.sampled_from([names[v], str(v)])), draw(value)]
               for v in draw(st.permutations(range(_KG52.n)))]
    for fault in draw(st.lists(st.sampled_from(["drop", "repeat", "vertex", "value", "header"]), max_size=2)):
        i = draw(st.integers(0, len(records) - 1))
        if fault == "drop":
            del records[i]
        elif fault == "repeat":
            records.insert(draw(st.integers(0, len(records))), [records[i][0], draw(value)])
        elif fault == "vertex":
            records[i][0] = draw(st.sampled_from(["10", "-1", "x", "{6,7}"]))
        elif fault == "value":
            records[i][1] = draw(bad_value)
        else:
            lines[0] = draw(bad_header)
    for record in records:
        lines += draw(st.lists(st.sampled_from(["c", "c 0 1", "", " \t"]), max_size=1))
        lines.append(" ".join(record))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (end.join(lines) + draw(st.sampled_from(["", end]))).encode()


# The expected results below read the formats as documented, apart from the
# readers: a token names the vertex with that label, else the vertex with
# that index.

def _int(token):
    try:
        return int(token)
    except ValueError:
        return None


def _vertex(token, names):
    """The vertex token names in a graph labeled names, or None."""
    if token in names:
        return names.index(token)
    v = _int(token)
    return v if v is not None and 0 <= v < len(names) else None


def _values(rows, names):
    """Each vertex's second field, when rows are "<vertex> <value>" naming every vertex once; else None."""
    values = {}
    for row in rows:
        v = _vertex(row[0], names) if len(row) == 2 else None
        if v is None or v in values:
            return None
        values[v] = row[1]
    return [values[v] for v in range(len(names))] if len(values) == len(names) else None


def _expected_coloring(data):
    rows = _rows(data)
    if not rows or len(rows[0]) != 2 or rows[0][0] != "k":
        return None
    k = _int(rows[0][1])
    values = _values(rows[1:], _KG52.labels)
    if k is None or not 0 <= k <= MAX_VERTICES or values is None:
        return None
    colors = [_int(token) for token in values]
    return Coloring(k, colors) if all(c is not None and 1 <= c <= k for c in colors) else None


def _expected_col(data):
    rows = _rows(data)
    if not rows or len(rows[0]) != 4 or rows[0][:2] != ["p", "edge"]:
        return None
    n, m = _int(rows[0][2]), _int(rows[0][3])
    if n is None or m is None or not 0 <= n <= MAX_VERTICES or m < 0:
        return None
    edges = []
    for row in rows[1:]:
        if len(row) != 3 or row[0] != "e":
            return None
        u, v = _int(row[1]), _int(row[2])
        if u is None or v is None or u == v or not (1 <= u <= n and 1 <= v <= n):
            return None
        edges.append((u - 1, v - 1))
    return graph_from_edges(n, edges) if len(edges) == m else None


def _expected_mapping(data):
    # g.col is the only graph file the generated headers can name.
    rows = _rows(data)
    if not rows or rows[0] != ["map", "g.col", "g.col"]:
        return None
    values = _values(rows[1:], _KG52.labels)
    images = [_vertex(token, _KG52.labels) for token in values or ()]
    return tuple(images) if values is not None and None not in images else None


_COLORING_BYTES = _record_bytes(
    st.sampled_from(["k 3", "k 4", "k 5"]),
    st.sampled_from(["k 2", "k -1", "k x", "k 10001", "k", "k 3 3", "map g.col g.col"]),
    st.sampled_from(["1", "2", "3"]),
    st.sampled_from(["0", "4", "-1", "x", "1 1", ""]),
)
_MAP_BYTES = _record_bytes(
    st.just("map g.col g.col"),
    st.sampled_from(["map g.col missing.col", "map missing.col g.col", "map g.col", "k 3"]),
    st.sampled_from([*_KG52.labels, *map(str, range(_KG52.n))]),
    st.sampled_from(["10", "-1", "x", "{6,7}", "0 0", ""]),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_FILE_BYTES, _col_like_bytes()))
def test_col_reader_fuzz(fuzz_dir, data):
    # The reader accepts exactly the files whose m edge lines each join two
    # distinct vertices of 1..n, and reads each one's graph. It builds that
    # graph unchecked, so the constructor's checks are run here.
    g = _parses_or_rejects(read_col, fuzz_dir / "fuzz.col", data)
    assert g == _expected_col(data)
    if g is not None:
        assert g.labels is None
        oracles.assert_passes_constructor_checks(g)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_FILE_BYTES, _COLORING_BYTES))
def test_coloring_reader_fuzz(fuzz_dir, data):
    # The reader accepts exactly the files that color every vertex once
    # from 1..k, and reads each one's colors.
    c = _parses_or_rejects(lambda path: read_coloring(path, _KG52), fuzz_dir / "fuzz.coloring", data)
    assert c == _expected_coloring(data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_FILE_BYTES, _MAP_BYTES))
def test_map_reader_fuzz(fuzz_dir, data):
    # A header may name a graph file that is not there.
    f = _parses_or_rejects(read_map, fuzz_dir / "fuzz.map", data, also=OSError)
    assert (f and f.mapping) == _expected_mapping(data)
    assert f is None or f.source == f.target == _KG52


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


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("suffix", [".col", ".coloring", ".map"])
def test_non_utf8_files_are_format_errors(tmp_path, suffix, end):
    # The line of the bad byte is counted in the line ends the readers use.
    from bcoloring.graphs import path_graph, read_col

    path = tmp_path / f"bad{suffix}"
    path.write_bytes(b"c fine" + end + b"c \xff" + end)
    read = {".col": read_col, ".map": read_map}.get(suffix, lambda p: read_coloring(p, path_graph(1)))
    with pytest.raises(FileFormatError, match="not UTF-8") as err:
        read(path)
    assert err.value.lineno == 2


def test_first_fault_in_line_order_is_reported(tmp_path):
    # A malformed line before a bad byte is the fault reported.
    from bcoloring.graphs import read_col

    path = tmp_path / "bad.col"
    path.write_bytes(b"p edge 2 1\nx\nc \xff\n")
    with pytest.raises(FileFormatError, match="unknown line type 'x'") as err:
        read_col(path)
    assert err.value.lineno == 2


def test_coloring_rejects_a_negative_color_count(tmp_path):
    # Only a graph without vertices gets as far as the count itself.
    from bcoloring.graphs import graph_from_edges

    path = tmp_path / "empty.coloring"
    path.write_text("k -1\n")
    with pytest.raises(FileFormatError, match="negative color count"):
        read_coloring(path, graph_from_edges(0, []))


# Labels that can name a vertex in a file: one field without whitespace,
# not "c". Surrogates are left out, as no UTF-8 file can hold them.
_LABELS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4).filter(
    lambda label: label.split() == [label] and label != "c"
)


@st.composite
def _labeled_graphs(draw, min_n):
    n = draw(st.integers(min_value=min_n, max_value=10))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool))) if pool else []
    labels = draw(st.none() | st.lists(_LABELS, min_size=n, max_size=n, unique=True))
    return graph_from_edges(n, edges, labels)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_writers_round_trip_through_readers(data):
    import tempfile
    from pathlib import Path

    g = data.draw(_labeled_graphs(0))
    h = data.draw(_labeled_graphs(1))
    k = data.draw(st.integers(min_value=1, max_value=12))
    c = Coloring(k, data.draw(st.lists(st.integers(1, k), min_size=g.n, max_size=g.n)))
    f = VertexMap(g, h, data.draw(st.lists(st.integers(0, h.n - 1), min_size=g.n, max_size=g.n)))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for graph, name in ((g, "g.col"), (h, "h.col")):
            write_col(graph, d / name)
            back = read_col(d / name)
            assert back == graph and back.labels == graph.labels
        write_coloring(c, d / "c.coloring", g)
        assert read_coloring(d / "c.coloring", g) == c
        write_map(f, d / "f.map", d / "g.col", d / "h.col")
        back = read_map(d / "f.map")
        assert back == f
        assert back.source.labels == g.labels and back.target.labels == h.labels
