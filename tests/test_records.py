"""Graph, KneserGraph and the seven result records: construction, checks, equality,
immutability, copies, repr; and the refusal of non-integer input across the public API."""

import copy
import math
import pickle

import pytest

from bcoloring.coloring import BSpectrumReport, Budget, Coloring, SearchResult, SearchStatus
from bcoloring.coloring import find_colorful_coloring, is_b_dominating
from bcoloring.errors import InputError
from bcoloring.fixtures import petersen
from bcoloring.graphs import Graph, complete_graph, cycle_graph, graph_from_edges, path_graph
from bcoloring.homomorphism import SlsCertificate, SlsVerdict, VertexMap, kneser_step_hom
from bcoloring.kneser import KneserGraph, kneser_graph, lovasz_chromatic

K2 = complete_graph(2)
C12 = Coloring(2, (1, 2))
CERT = SlsCertificate({0: 1, 1: 0})

# Each record with its fields in constructor order, one field changed, and its repr.
RECORDS = [
    (
        {"k": 2, "colors": (1, 2)},
        Coloring,
        ("colors", (2, 1)),
        "Coloring(k=2, colors=(1, 2))",
    ),
    (
        {"max_nodes": 5, "max_seconds": 1.5},
        Budget,
        ("max_seconds", 2.0),
        "Budget(max_nodes=5, max_seconds=1.5)",
    ),
    (
        {"status": SearchStatus.FOUND, "coloring": C12, "nodes": 3},
        SearchResult,
        ("nodes", 4),
        "SearchResult(status=<SearchStatus.FOUND: 'found'>, coloring=Coloring(k=2, colors=(1, 2)), nodes=3)",
    ),
    (
        {"witnesses": {2: C12}, "unknown": frozenset({3}), "m_bound": 3},
        BSpectrumReport,
        ("m_bound", 4),
        "BSpectrumReport(witnesses={2: Coloring(k=2, colors=(1, 2))}, unknown=frozenset({3}), m_bound=3)",
    ),
    (
        {"source": K2, "target": K2, "mapping": (1, 0)},
        VertexMap,
        ("mapping", (0, 1)),
        "VertexMap(source=Graph(n=2, edges=1), target=Graph(n=2, edges=1), mapping=(1, 0))",
    ),
    (
        {"witness": {0: 1, 1: 0}},
        SlsCertificate,
        ("witness", {0: 0, 1: 1}),
        "SlsCertificate(witness={0: 1, 1: 0})",
    ),
    (
        {"certificate": CERT, "failing_vertex": None, "reason": None},
        SlsVerdict,
        ("certificate", SlsCertificate({0: 0, 1: 1})),
        "SlsVerdict(certificate=SlsCertificate(witness={0: 1, 1: 0}), failing_vertex=None, reason=None)",
    ),
    (
        {"n": 2, "adj": (2, 1), "labels": None},
        Graph,
        ("adj", (0, 0)),
        "Graph(n=2, edges=1)",
    ),
    (
        {"n": 5, "m": 2},
        KneserGraph,
        ("m", 1),
        "KneserGraph(5, 2)",
    ),
]
IDS = [row[1].__name__ for row in RECORDS]


@pytest.mark.parametrize("fields, cls, changed, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(fields, cls, changed, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for record in (by_position, by_keyword):
        assert type(record) is cls
        for name, value in fields.items():
            assert getattr(record, name) == value
    assert by_position == by_keyword


def test_defaults():
    assert (Budget().max_nodes, Budget().max_seconds) == (None, None)
    assert Budget(7) == Budget(max_nodes=7, max_seconds=None)
    result = SearchResult(SearchStatus.NOT_EXISTS)
    assert (result.coloring, result.nodes, result.found) == (None, 0, False)
    assert SearchResult(SearchStatus.FOUND, C12).found
    with pytest.raises(TypeError):  # no default m_bound could agree with every witness
        BSpectrumReport({1: Coloring(1, (1,))})
    verdict = SlsVerdict(reason="why")
    assert (verdict.certificate, verdict.failing_vertex, verdict.reason) == (None, None, "why")
    assert not verdict and not verdict.ok
    assert SlsVerdict(CERT) and SlsVerdict(CERT).ok


def _report(ks, unknown=()):
    return BSpectrumReport({k: Coloring(k, range(1, k + 1)) for k in ks}, unknown, 6)


@pytest.mark.parametrize(
    "report, chi, b, continuous",
    [
        (_report([3]), 3, 3, True),
        (_report([2, 3, 4]), 2, 4, True),
        (_report([2, 4]), 2, 4, False),
        (_report([2, 3], unknown=[5]), 2, 3, None),
        (_report([2, 4], unknown={3}), 2, 4, None),
    ],
)
def test_spectrum_report_reads_its_values_off_the_witnesses(report, chi, b, continuous):
    assert report.spectrum == frozenset(report.witnesses)
    assert (report.chi, report.b, report.continuous) == (chi, b, continuous)
    assert type(report.spectrum) is frozenset and type(report.unknown) is frozenset


def test_spectrum_report_copies_its_witness_map():
    witnesses = {2: C12}
    report = BSpectrumReport(witnesses, (), 3)
    witnesses[3] = Coloring(3, (1, 2, 3))
    assert report.witnesses == {2: C12} and report.spectrum == {2}


def test_sls_certificate_copies_its_witness_map():
    swap = VertexMap(K2, K2, (1, 0))
    witness = {0: 1, 1: 0}
    certificate = SlsCertificate(witness)
    assert certificate.verify(swap)
    witness[0] = 0
    assert certificate.witness == {0: 1, 1: 0} and certificate.verify(swap)


@pytest.mark.parametrize(
    "record, names",
    [
        (BSpectrumReport({2: C12}, (), 2), ("chi", "b", "spectrum", "continuous")),
        (SlsVerdict(CERT), ("ok",)),
        (kneser_graph(5, 2), ("graph", "subsets")),
    ],
)
def test_derived_values_cannot_be_assigned(record, names):
    for name in names:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == before


def test_sequences_become_tuples():
    assert Coloring(2, [1, 2]).colors == (1, 2)
    assert Coloring(2, iter([2, 1])).colors == (2, 1)
    assert VertexMap(K2, K2, [1, 0]).mapping == (1, 0)
    assert VertexMap(K2, K2, iter([0, 1])).mapping == (0, 1)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Coloring(-1, ()), "color count must be nonnegative"),
        (lambda: Coloring(2, (1, 3)), "vertex 1 has color 3 outside 1..2"),
        (lambda: Coloring(2, [0]), "vertex 0 has color 0 outside 1..2"),
        (lambda: Coloring(2.0, (1, 2)), "color count 2.0 is not an integer"),
        (lambda: Coloring(2, (1.0, 2)), "vertex 0 has color 1.0, not an integer"),
        (lambda: Coloring(2, (1, "2")), "vertex 1 has color '2', not an integer"),
        (lambda: Budget(max_nodes=-1), "node budget must be nonnegative, got -1"),
        (lambda: Budget(math.nan), "node budget must be nonnegative, got nan"),
        (lambda: Budget(max_seconds=-0.5), "time budget must be nonnegative seconds, got -0.5"),
        (lambda: Budget(None, math.nan), "time budget must be nonnegative seconds, got nan"),
        (lambda: VertexMap(K2, K2, (0,)), "map covers 1 vertices, source has 2"),
        (lambda: VertexMap(K2, K2, [0, 2]), "image 2 of vertex 1 outside target range"),
        (lambda: VertexMap(K2, K2, (-1, 0)), "image -1 of vertex 0 outside target range"),
        (lambda: VertexMap(K2, K2, (0.0, 1)), "image 0.0 of vertex 0 is not an integer"),
        (lambda: BSpectrumReport({}, (), 0), "a b-spectrum report needs at least one witness"),
        (lambda: BSpectrumReport({2: C12}, {2, 3}, 3), "k in [2] witnessed and unknown"),
        (lambda: BSpectrumReport({3: C12}, (), 3), "the witness for k=3 is a 2-coloring"),
        (lambda: BSpectrumReport({2: C12}, (), 1), "k in [2] above m_bound=1"),
        (lambda: BSpectrumReport({2: C12}, {3, 4}, 3), "k in [4] above m_bound=3"),
        (
            lambda: SlsVerdict(CERT, failing_vertex=1),
            "an SLS verdict with a certificate has no failing vertex or reason",
        ),
        (
            lambda: SlsVerdict(CERT, reason="why"),
            "an SLS verdict with a certificate has no failing vertex or reason",
        ),
        (lambda: SlsVerdict(), "an SLS verdict without a certificate needs a reason"),
        (lambda: SlsVerdict(failing_vertex=1), "an SLS verdict without a certificate needs a reason"),
        (
            lambda: SearchResult(SearchStatus.FOUND),
            "a result carries a coloring exactly when its status is FOUND",
        ),
        (
            lambda: SearchResult(SearchStatus.NOT_EXISTS, C12),
            "a result carries a coloring exactly when its status is FOUND",
        ),
    ],
)
def test_invalid_fields_are_input_errors(make, message):
    with pytest.raises(InputError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("fields, cls, changed, text", RECORDS, ids=IDS)
def test_equality_is_by_field_value(fields, cls, changed, text):
    record = cls(**fields)
    assert record == cls(**copy.deepcopy(fields))
    assert not record != cls(**fields)
    other = cls(**{**fields, changed[0]: changed[1]})
    assert other != record and not other == record
    assert record != tuple(fields.values())


def test_spectrum_report_equality_ignores_witnesses():
    fields = RECORDS[3][0]
    report = BSpectrumReport(**fields)
    twin = BSpectrumReport(**{**fields, "witnesses": {2: Coloring(2, (2, 1))}})
    assert report == twin and hash(report) == hash(twin)
    assert report != BSpectrumReport(**{**fields, "witnesses": {1: Coloring(1, (1, 1))}})
    assert report != BSpectrumReport(**{**fields, "unknown": frozenset()})


def test_equal_records_hash_equal():
    assert hash(Coloring(2, [1, 2])) == hash(C12)
    assert hash(Budget(5, 1.5)) == hash(Budget(max_nodes=5, max_seconds=1.5))
    assert hash(Budget()) == hash(Budget(None, None))
    assert hash(SearchResult(SearchStatus.FOUND, Coloring(2, (1, 2)), 3)) == hash(
        SearchResult(status=SearchStatus.FOUND, coloring=C12, nodes=3)
    )
    assert len({C12, Coloring(2, (1, 2)), Coloring(2, (2, 1))}) == 2
    assert hash(kneser_graph(5, 2)) == hash(KneserGraph(n=5, m=2))


def test_records_hash_only_when_their_values_do():
    assert hash(SlsVerdict(failing_vertex=1, reason="why")) == hash(SlsVerdict(None, 1, "why"))
    assert hash(VertexMap(K2, K2, (1, 0))) == hash(VertexMap(complete_graph(2), K2, [1, 0]))
    for record in (CERT, SlsVerdict(CERT)):
        with pytest.raises(TypeError):
            hash(record)


def test_graph_copies_are_checked_and_labels_do_not_count():
    unchecked = Graph._built(2, (0b10, 0))  # 1 is a neighbor of 0, but 0 is not one of 1
    for restore in (lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy):
        with pytest.raises(InputError, match="asymmetric adjacency between 1 and 0"):
            restore(unchecked)
    labelled = Graph(2, K2.adj, ("a", "b"))
    assert labelled == K2 and hash(labelled) == hash(K2)


@pytest.mark.parametrize("fields, cls, changed, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(fields, cls, changed, text):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, changed[1])
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == fields[name]


@pytest.mark.parametrize("fields, cls, changed, text", RECORDS, ids=IDS)
def test_copies_are_equal(fields, cls, changed, text):
    record = cls(**fields)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls
        assert twin == record
        assert repr(twin) == text  # every field, witnesses included


@pytest.mark.parametrize("fields, cls, changed, text", RECORDS, ids=IDS)
def test_repr(fields, cls, changed, text):
    assert repr(cls(**fields)) == text


# Each of these raised a TypeError or a ValueError, or returned a float (3.5, 3.0), before
# counts, rows, vertices, Kneser parameters, k and complete-graph sizes were checked to be ints.
NON_INTEGERS = [
    (lambda: Graph(2.0, (2, 1)), "vertex count 2.0 is not an integer"),
    (lambda: Graph(2, (2.0, 1)), "vertex 0 has adjacency row 2.0, not an integer"),
    (lambda: Graph(2, ("2", 1)), "vertex 0 has adjacency row '2', not an integer"),
    (lambda: graph_from_edges(2.0, ()), "vertex count 2.0 is not an integer"),
    (lambda: graph_from_edges(2, [(0.0, 1)]), "edge (0.0, 1) has an endpoint that is not an integer"),
    (lambda: cycle_graph("3"), "vertex count '3' is not an integer"),
    (lambda: path_graph(2.5), "vertex count 2.5 is not an integer"),
    (lambda: complete_graph(-1), "vertex count must be nonnegative"),
    (lambda: complete_graph(2.5), "vertex count 2.5 is not an integer"),
    (lambda: petersen().degree(1.5), "vertex 1.5 is not an integer"),
    (lambda: is_b_dominating(K2, C12, 1.5), "vertex 1.5 is not an integer"),
    (lambda: kneser_graph(5, 2).subset_of(1.0), "vertex 1.0 is not an integer"),
    (lambda: lovasz_chromatic(7.5, 3), "Kneser parameter n=7.5 is not an integer"),
    (lambda: lovasz_chromatic(7, 3.0), "Kneser parameter m=3.0 is not an integer"),
    (lambda: kneser_graph(7.0, 3), "Kneser parameter n=7.0 is not an integer"),
    (lambda: kneser_graph("7", 3), "Kneser parameter n='7' is not an integer"),
    (lambda: kneser_step_hom(9.0, 4), "Kneser parameter n=9.0 is not an integer"),
    (lambda: find_colorful_coloring(petersen(), 2.5), "k=2.5 is not an integer"),
    (lambda: find_colorful_coloring(petersen(), "3"), "k='3' is not an integer"),
]


@pytest.mark.parametrize("make, message", NON_INTEGERS)
def test_non_integers_are_input_errors(make, message):
    with pytest.raises(InputError) as info:
        make()
    assert str(info.value) == message
