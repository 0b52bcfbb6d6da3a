"""CLI contract: schemas, dispatch, rendering, determinism, exit codes."""

import io
import json
import sys
import time
from collections import OrderedDict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcres.cli import HANDLERS, main, parse_input, render_report, run_command
from bcres.errors import InputError

U24_DOC = '{"kind":"matroid","payload":{"type":"uniform","p":2,"n":4}}'
GOLDEN_DOC = (
    '{"kind":"matroid","payload":{"type":"circuits","n":6,'
    '"circuits":[[4,5,6],[1,2,3,6],[1,2,3,4,5]]}}'
)


class Options:
    def __init__(self, **kw):
        self.characteristic = kw.get("characteristic", 0)
        self.max_power = kw.get("max_power", 3)
        self.format = kw.get("format", "json")
        self.seed = kw.get("seed", 0)
        self.batch = kw.get("batch", False)
        self.limit = kw.get("limit", 0)
        self.cycles = kw.get("cycles")
        self.bridges = kw.get("bridges")


def test_parse_input_uniform(u24):
    doc = parse_input(U24_DOC)
    assert doc.kind == "matroid"
    from bcres.cli import materialize

    assert materialize(doc) == u24


def test_parse_input_golden(golden):
    from bcres.cli import materialize

    assert materialize(parse_input(GOLDEN_DOC)) == golden


def test_parse_input_rejects():
    with pytest.raises(InputError):
        parse_input("nope")
    with pytest.raises(InputError):
        parse_input('{"kind":"widget","payload":{}}')
    with pytest.raises(InputError):
        parse_input('{"kind":"matroid"}')


def test_parse_malformed_rational_named():
    doc = parse_input('{"kind":"arrangement","payload":{"normals":[["1/0","1"]]}}')
    from bcres.cli import materialize

    with pytest.raises(InputError) as err:
        materialize(doc)
    assert "normals" in str(err.value)


def test_run_betti_u24():
    rep = run_command("betti", parse_input(U24_DOC), Options())
    assert rep["result"]["betti"] == {"0,2": 3, "1,3": 2}
    assert rep["result"]["verdict"]["kind"] == "s-linear"
    assert rep["tool"] == "bcres"


def test_run_cross_validate_golden():
    rep = run_command("cross-validate", parse_input(GOLDEN_DOC), Options())
    res = rep["result"]
    assert res["linearity"]["kind"] == "graded-linear"
    assert res["two_term_decomposition"] is None
    assert res["consistency"]["graded_implies_stratification"] == "confirmed"


def test_run_gnr():
    rep = run_command("gnr", None, Options(cycles="3,3"))
    assert rep["result"]["report"]["complete_intersection"] is True


def test_json_roundtrip():
    rep = run_command("betti", parse_input(U24_DOC), Options())
    text = render_report(rep, "json")
    assert json.loads(text) == rep


def test_json_deterministic():
    a = render_report(run_command("cross-validate", parse_input(GOLDEN_DOC), Options()), "json")
    b = render_report(run_command("cross-validate", parse_input(GOLDEN_DOC), Options()), "json")
    assert a == b


def test_tutte_render_convention():
    rep = run_command("info", parse_input(U24_DOC), Options())
    assert rep["result"]["tutte"] == "x^2 + 2x + y^2 + 2y"


def test_zero_table_render():
    doc = parse_input('{"kind":"matroid","payload":{"type":"uniform","p":3,"n":3}}')
    rep = run_command("betti", doc, Options())
    assert rep["result"]["grid"] == ["0 (zero ideal)"]


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "u24.json"
    good.write_text(U24_DOC)
    assert main(["info", str(good)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text('{"kind":"matroid","payload":{"type":"circuits","n":3,"circuits":[[1,2],[2,3]]}}')
    assert main(["info", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "circuit elimination" in err

    big = tmp_path / "big.json"
    big.write_text('{"kind":"matroid","payload":{"type":"uniform","p":2,"n":13}}')
    assert main(["stratify", str(big)]) == 2
    err = capsys.readouterr().err
    assert "inconclusive" in err


def test_graph_command_answers_k5(tmp_path, capsys):
    k5 = tmp_path / "k5.json"
    edges = [list(e) for e in combinations(range(5), 2)]
    k5.write_text(json.dumps({"kind": "graph", "payload": {"edges": edges}}))
    assert main(["graph", str(k5), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)["result"]["report"]
    assert report["cycles"] == 37
    assert (report["facet_ideal_generators"], report["facet_ideal_degree"]) == (125, 4)


def ladder_edges(rungs):
    return [[2 * i, 2 * i + 1] for i in range(rungs)] + [[i, i + 2] for i in range(2 * rungs - 2)]


def test_graph_command_refuses_a_long_cycle_walk_at_once(tmp_path, capsys):
    # a 21-rung ladder: 42 vertices, 61 edges, cycle space dimension 20
    ladder = tmp_path / "ladder.json"
    ladder.write_text(json.dumps({"kind": "graph", "payload": {"edges": ladder_edges(21)}}))
    start = time.perf_counter()
    assert main(["graph", str(ladder)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "cycle walk needs 2^20 x 42 vertices = 44040192 edge tests, limit 4000000" in err


@pytest.mark.parametrize(
    "edges, code, seconds",
    [
        ([[0, 1], [1, 2], [2, 0], [2, 3], [3, 4], [4, 2]], 0, 0.2),
        # a 17-rung ladder: 2^16 cycle-space elements to walk, then millions
        # of spanning trees, refused at the basis bound (about 3 s unloaded)
        (ladder_edges(17), 2, 10),
    ],
    ids=["two-triangles", "ladder-17"],
)
def test_graph_command_walks_the_cycle_space_once(edges, code, seconds, tmp_path, capsys, monkeypatch):
    import bcres.matroid

    calls = []
    real = bcres.matroid.simple_cycle_edge_sets
    monkeypatch.setattr(bcres.matroid, "simple_cycle_edge_sets", lambda e: calls.append(1) or real(e))
    doc = tmp_path / "graph.json"
    doc.write_text(json.dumps({"kind": "graph", "payload": {"edges": edges}}))
    start = time.perf_counter()
    assert main(["graph", str(doc)]) == code
    assert time.perf_counter() - start < seconds
    assert len(calls) == 1
    if code:
        assert "a rank-33 matroid on 49 elements has more than 20000 bases" in capsys.readouterr().err


def test_gnr_command_answers_twelve_two_cycles(capsys):
    # twelve 2-cycles on 12 components: 2^12 edge choices, each a spanning forest
    assert main(["gnr", "--cycles", ",".join(["2"] * 12), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)["result"]["report"]
    assert (report["cycles"], report["facet_ideal_generators"]) == (12, 4096)


@pytest.mark.parametrize("rungs", [12, 17])
def test_info_command_refuses_the_ladder_at_the_basis_bound(rungs, tmp_path, capsys):
    doc = tmp_path / "ladder.json"
    doc.write_text(json.dumps({"kind": "graph", "payload": {"edges": ladder_edges(rungs)}}))
    start = time.perf_counter()
    assert main(["info", str(doc)]) == 2
    assert time.perf_counter() - start < 5
    message = "a rank-%d matroid on %d elements has more than 20000 bases" % (2 * rungs - 1, 3 * rungs - 2)
    assert message in capsys.readouterr().err


def test_arrangement_past_the_stratify_bound_is_inconclusive(tmp_path, capsys):
    # 13 points on the moment curve: U(3,13) decomposes with s = 3, not 2,
    # and stratify refuses more than 12 elements
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": "arrangement", "payload": {"normals": [[1, t, t * t] for t in range(1, 14)]}}))
    assert main(["arrangement", str(doc), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)["result"]
    labels = sorted(range(1, 14), key=repr)
    assert out["koszul"] == {
        "n": 13,
        "dimension": 3,
        "simple": True,
        "ci_broken_circuits": False,
        "two_term_s2": False,
        "two_term": {"elements": labels, "s": 3, "rank": 3, "size": 13, "uniform_part": labels, "free_part": []},
        "stratification": "inconclusive: stratification search limited to 12 elements",
        "verdict": "inconclusive: stratification bound",
    }
    assert out["factors"] == [{"labels": list(range(1, 14)), "dimension": 3}]


def test_graphic_payload_with_labelled_edges(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text('{"kind":"matroid","payload":{"type":"graphic","edges":[["a",1,2],["b",2,3],["c",3,1],["d",3,4]]}}')
    assert main(["info", str(doc), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)["result"]
    assert out == {
        "ground": ["a", "b", "c", "d"],
        "rank": 3,
        "circuits": [["a", "b", "c"]],
        "loopless": True,
        "simple": True,
        "components": [["d"], ["a", "b", "c"]],
        "coloops": ["d"],
        "tutte": "x^3 + x^2 + xy",
        "tutte_coefficients": {"3,0": 1, "2,0": 1, "1,1": 1},
        "independence_profile": [1, 4, 6, 3],
        "bases": 3,
    }


def test_stratify_empty_matroid_verifies(tmp_path, capsys):
    doc = tmp_path / "empty.json"
    doc.write_text('{"kind":"matroid","payload":{"type":"uniform","p":0,"n":0}}')
    assert main(["stratify", str(doc), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)["result"]
    assert out["stratification"]["chain"] == [] and out["stratification"]["strata"] == []
    assert out["stratification"]["depth"] == 0
    assert out["verified"] is True


def test_main_order_flag(tmp_path, capsys):
    good = tmp_path / "u24.json"
    good.write_text(U24_DOC)
    assert main(["bc", str(good), "--order", "4,3,2,1", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["order"] == [4, 3, 2, 1]
    assert out["result"]["broken_circuits_minimal"] == [[1, 2], [1, 3], [2, 3]]


def test_arrangement_order_not_a_permutation_exits_1(tmp_path, capsys):
    doc = tmp_path / "arr.json"
    doc.write_text('{"kind":"arrangement","payload":{"normals":[[1,0],[0,1],[1,1]]},"order":[1,2]}')
    for command in ("arrangement", "bc"):
        assert main([command, str(doc)]) == 1
        err = capsys.readouterr().err
        assert err == "error: order (1, 2) is not a permutation of the ground set\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--cycles", "3,a"], "error: --cycles needs comma separated integers, got '3,a'"),
        (["--cycles", "3,3", "--bridges", "1.5"], "error: --bridges needs comma separated integers, got '1.5'"),
        (["--cycles", "3,3", "--bridges=-1"], "error: bridge lengths must be nonnegative"),
    ],
    ids=["cycles-not-integer", "bridges-not-integer", "negative-bridge"],
)
def test_gnr_bad_flags_exit_1(flags, message, capsys):
    assert main(["gnr"] + flags) == 1
    assert capsys.readouterr().err == message + "\n"


def test_bc_json_golden_with_ten_elements(tmp_path, capsys):
    # two triangles and a 4-cycle; labels 1..10, where repr order puts 10 before 2
    edges = [[0, 1], [1, 2], [2, 0], [2, 3], [3, 4], [4, 5], [5, 2], [5, 6], [6, 7], [7, 5]]
    doc = tmp_path / "graph.json"
    doc.write_text(json.dumps({"kind": "graph", "payload": {"edges": edges}}))
    assert main(["bc", str(doc), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)["result"]
    assert out["broken_circuits_minimal"] == [[2, 3], [10, 9], [5, 6, 7]]
    assert out["facets"] == [
        [1, 2, 4, 5, 6, 8, 9],
        [1, 2, 4, 5, 7, 8, 9],
        [1, 2, 4, 6, 7, 8, 9],
        [1, 3, 4, 5, 6, 8, 9],
        [1, 3, 4, 5, 7, 8, 9],
        [1, 3, 4, 6, 7, 8, 9],
        [1, 10, 2, 4, 5, 6, 8],
        [1, 10, 2, 4, 5, 7, 8],
        [1, 10, 2, 4, 6, 7, 8],
        [1, 10, 3, 4, 5, 6, 8],
        [1, 10, 3, 4, 5, 7, 8],
        [1, 10, 3, 4, 6, 7, 8],
    ]
    assert out["dim"] == 6
    assert out["f_vector_bc"] == [1, 10, 43, 103, 148, 127, 60, 12]
    assert out["h_vector_bc"] == [1, 3, 4, 3, 1, 0, 0, 0]
    assert out["f_vector_independence"] == [1, 10, 45, 118, 195, 204, 126, 36]
    assert out["h_vector_independence"] == [1, 3, 6, 8, 8, 6, 3, 1]


def test_main_char_flag(tmp_path, capsys):
    good = tmp_path / "u24.json"
    good.write_text(U24_DOC)
    assert main(["betti", str(good), "--char", "2", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["options"]["characteristic"] == 2
    assert out["result"]["betti"] == {"0,2": 3, "1,3": 2}


def test_batch_mode_small(capsys):
    assert main(["cross-validate", "--batch", "--limit", "5", "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["corpus_size"] == 5
    assert len(out["result"]["instances"]) == 5


def test_batch_negative_limit_exits_1(capsys):
    # corpus[:-1] would silently drop the last instance
    assert main(["cross-validate", "--batch", "--limit=-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --limit must be nonnegative, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("power", [0, -1])
@pytest.mark.parametrize("batch", [False, True], ids=["document", "batch"])
def test_cross_validate_max_power_below_1_exits_1(power, batch, tmp_path, capsys):
    # range(2, power + 1) is empty: powers_linear would be confirmed over no powers
    doc = tmp_path / "u24.json"
    doc.write_text(U24_DOC)
    args = ["--batch", "--limit", "1"] if batch else [str(doc)]
    assert main(["cross-validate", *args, "--max-power=%d" % power]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --max-power must be at least 1, got %d\n" % power
    assert captured.out == ""


def uniform(p, n):
    return {"kind": "matroid", "payload": {"type": "uniform", "p": p, "n": n}}


def ideal_doc(variables, generators):
    return {"kind": "ideal", "payload": {"variables": list(variables), "generators": generators}}


FIVE_CYCLE = ideal_doc("abcde", [[int(j in (i, (i + 1) % 5)) for j in range(5)] for i in range(5)])
SQUARE = ideal_doc("ab", [[0, 2], [2, 0], [1, 1]])
GRADED_NOT_LINEAR = {
    ("quotients", "search"): "exhaustive",
    ("quotients", "linear_quotients", "status"): "none",
    ("quotients", "graded_linear_quotients", "status"): "found",
}

# Documents whose answers tier-1 otherwise reached only through the library:
# (command, document, extra flags, {path into the result: expected value}),
# a path step that is callable being applied to what the steps before reached.
DOCUMENT_ANSWERS = {
    # the bytes of every report are json.dumps(report, indent=2)'s, written in cli's own pass
    "arrangement-with-a-rational-normal": (
        "arrangement",
        {"kind": "arrangement", "payload": {"normals": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [1, -1, "1/2"], [0, 0, 1]]}},
        [],
        {},
    ),
    # 10 generators, past the exhaustive limit: the graded walk of the greedy route must find an order
    "U_2_6-ci": (
        "ci",
        uniform(2, 6),
        [],
        {("quotients", "search"): "greedy", ("quotients", "graded_linear_quotients", "status"): "found"},
    ),
    # 5 generators, a graded order but no linear one: only the exhaustive search answers the linear key
    "graph-ci": (
        "ci",
        {"kind": "graph", "payload": {"edges": [[1, 2], [1, 3], [1, 4], [2, 4], [2, 5], [3, 4], [3, 5]]}},
        [],
        GRADED_NOT_LINEAR,
    ),
    # the squarefree Veronese of degree 3 in 7 variables: C(7, 3+i) * C(2+i, i), through the strong collapse
    "U_3_8-betti": (
        "betti", uniform(3, 8), [], {("betti",): {"0,3": 35, "1,4": 105, "2,5": 126, "3,6": 70, "4,7": 15}}
    ),
    # the Gorenstein codimension-3 resolution of the 5-cycle's edge ideal
    "five-cycle-betti": ("betti", FIVE_CYCLE, [], {("betti",): {"0,2": 5, "1,3": 5, "2,5": 1}}),
    # generators keep minimalize's order, not numeric mask order: a*e (mask 17) before b*c (mask 6)
    "five-cycle-ci": (
        "ci",
        FIVE_CYCLE,
        [],
        {
            **GRADED_NOT_LINEAR,
            ("quotients", "graded_linear_quotients", "order"): ["a*b", "a*e", "b*c", "c*d", "d*e"],
        },
    ),
    # not squarefree: exponents come back in generator order
    "square-ideal": ("ideal", SQUARE, [], {("generator_exponents",): [[2, 0], [1, 1], [0, 2]]}),
    # not squarefree: the table comes through polarization
    "square-betti": ("betti", SQUARE, [], {("betti",): {"0,2": 3, "1,3": 2}}),
    # the quotient walks run on the polarization
    "polarized-ci": (
        "ci",
        ideal_doc("abc", [[2, 0, 0], [1, 1, 0], [0, 1, 1], [0, 0, 2]]),
        [],
        {
            **GRADED_NOT_LINEAR,
            ("quotients", "graded_linear_quotients", "order"): ["a^2", "a*b", "b*c", "c^2"],
        },
    ),
    # a sum in disjoint variables, ranked one part at a time: the square of C(3, 2+i) * C(1+i, i)
    "U_2_4+U_2_4-betti": (
        "betti",
        {"kind": "matroid", "payload": {"type": "direct_sum", "parts": [uniform(2, 4)["payload"]] * 2}},
        [],
        {("betti",): {"0,2": 6, "1,3": 4, "1,4": 9, "2,5": 12, "3,6": 4}},
    ),
    # 2^61 - 1 is proven prime by Miller-Rabin at once
    "mersenne-characteristic": (
        "betti", uniform(2, 4), ["--char", str(2**61 - 1)], {("betti",): {"0,2": 3, "1,3": 2}}
    ),
    # C(14, 6) nbc bases, listed by the basis walk
    "U_7_15-bc": ("bc", uniform(7, 15), [], {("facets", len): 3003}),
}


@pytest.mark.parametrize("command, doc, flags, want", DOCUMENT_ANSWERS.values(), ids=DOCUMENT_ANSWERS.keys())
def test_document_answers(command, doc, flags, want, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main([command, "-", "--format", "json", *flags]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    for path, value in want.items():
        got = json.loads(out)["result"]
        for step in path:
            got = step(got) if callable(step) else got[step]
        assert got == value, path


PATH_60 = ideal_doc(["x%d" % j for j in range(60)], [[int(j in (i, i + 1)) for j in range(60)] for i in range(59)])


@pytest.mark.parametrize(
    "command, doc",
    [
        # the K-polynomial of a path: 2.9 s at 40 vertices when its groups were not split
        ("hilbert", PATH_60),
        # one basis with 2^26 subsets, which the independence counts once listed
        ("info", uniform(26, 26)),
    ],
    ids=["hilbert-path-60", "info-U_26_26"],
)
def test_small_documents_answer_in_seconds(command, doc, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    start = time.perf_counter()
    assert main([command, "-", "--format", "json"]) == 0
    assert time.perf_counter() - start < 5
    assert json.loads(capsys.readouterr().out)["result"]


def test_hilbert_command():
    rep = run_command("hilbert", parse_input(U24_DOC), Options())
    res = rep["result"]
    assert res["values"][:4] == [1, 4, 7, 10]
    assert res["numerator"] == [1, 2]
    assert res["hilbert_coefficients"] == [3, -2]
    assert res["linear_value_criterion"] is True
    assert res["h_fit"]["c"] == (1,) and res["h_fit"]["cutoff"] == 2


MALFORMED = {
    "matrix-entry": '{"kind":"matroid","payload":{"type":"linear","matrix":[["abc","1"],["1","2"]]}}',
    "zero-denominator": '{"kind":"matroid","payload":{"type":"linear","matrix":[["1/0","1"],["1","2"]]}}',
    "uniform-p-string": '{"kind":"matroid","payload":{"type":"uniform","p":"2","n":4}}',
    "circuits-not-a-list": '{"kind":"matroid","payload":{"type":"circuits","n":3,"circuits":5}}',
    "circuits-negative-n": '{"kind":"matroid","payload":{"type":"circuits","n":-1,"circuits":[]}}',
    "graphic-short-edge": '{"kind":"matroid","payload":{"type":"graphic","edges":[[1,2],[1]]}}',
    "graph-short-edge": '{"kind":"graph","payload":{"edges":[[1,2],[1]]}}',
    "graph-list-vertex": '{"kind":"graph","payload":{"edges":[[1,[2]],[2,3]]}}',
    "graph-dict-vertex": '{"kind":"graph","payload":{"edges":[[1,{"v":2}],[2,3]]}}',
    "arrangement-list-labels": '{"kind":"arrangement","payload":{"normals":[[1,0],[0,1]],"labels":[[1],[2]]}}',
    "ideal-scalar-generator": '{"kind":"ideal","payload":{"variables":["a","b"],"generators":[5]}}',
    "ideal-string-exponent": '{"kind":"ideal","payload":{"variables":["a","b"],"generators":[["a",1]]}}',
    "ideal-list-variable": '{"kind":"ideal","payload":{"variables":[["a"],"b"],"generators":[[1,0]]}}',
    "ideal-float-exponent": '{"kind":"ideal","payload":{"variables":["a","b"],"generators":[[1.5,0]]}}',
    "ideal-bool-exponent": '{"kind":"ideal","payload":{"variables":["a","b"],"generators":[[true,0]]}}',
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_payload_exits_with_error(text, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    # `info` needs a matroid-like input, so ideal documents go through `ideal`
    command = "ideal" if json.loads(text)["kind"] == "ideal" else "info"
    assert main([command, str(doc)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_non_utf8_document_exits_1(tmp_path, capsys, monkeypatch):
    raw = b"\xff\xfe" + U24_DOC.encode("utf-16-le")
    doc = tmp_path / "doc.json"
    doc.write_bytes(raw)
    assert main(["info", str(doc)]) == 1
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    assert main(["info", "-"]) == 1
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")


def test_unvalidatable_circuit_family_exits_2(tmp_path, capsys):
    # 3-subsets of 1..11 but {3,4,5}, plus {12,13}: elimination fails on
    # {3,4,6} and {3,5,6}, and 13 elements are past the exhaustive check
    circuits = [list(c) for c in combinations(range(1, 12), 3) if c != (3, 4, 5)] + [[12, 13]]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": "matroid", "payload": {"type": "circuits", "n": 13, "circuits": circuits}}))
    assert main(["info", str(doc)]) == 2
    assert "circuit validation limited" in capsys.readouterr().err


@pytest.mark.parametrize("n, circuits", [(13, []), (20, [[1, 2, 3], [4, 5]])])
def test_disjoint_circuit_family_needs_no_elimination_check(n, circuits, tmp_path, capsys):
    # no two circuits meet, so elimination holds vacuously at any ground size
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"kind": "matroid", "payload": {"type": "circuits", "n": n, "circuits": circuits}}))
    assert main(["info", str(doc), "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert sorted(result["circuits"]) == circuits
    assert result["rank"] == n - len(circuits)  # each disjoint circuit drops one element


def test_hilbert_builds_the_matroid_once(monkeypatch):
    import bcres.arrangements

    calls = []
    real = bcres.arrangements.linear_matroid
    monkeypatch.setattr(bcres.arrangements, "linear_matroid", lambda *a, **k: calls.append(1) or real(*a, **k))
    doc = parse_input('{"kind":"arrangement","payload":{"normals":[[1,0],[0,1],[1,1]]}}')
    rep = run_command("hilbert", doc, Options())
    assert rep["result"]["h_fit"]["fits"] is True
    assert len(calls) == 1


def test_info_reads_the_independence_profile_off_the_tutte_polynomial(monkeypatch):
    import bcres.cli
    from bcres.corpus import standard_corpus
    from bcres.matroid import Matroid, graphic_matroid, uniform_matroid

    looped = graphic_matroid([(1, 1), (1, 2), (1, 2), (2, 3), (3, 1)])
    cases = [m for _, m in standard_corpus(0)]
    cases += [uniform_matroid(0, 3), uniform_matroid(26, 26), looped, Matroid((), ())]
    calls = []
    real = Matroid.basis_masks
    monkeypatch.setattr(Matroid, "basis_masks", lambda self: calls.append(1) or real(self))
    doc = parse_input(U24_DOC)
    for m in cases:
        monkeypatch.setattr(bcres.cli, "_matroid_of", lambda doc, m=m: m)
        calls.clear()
        profile = run_command("info", doc, Options())["result"]["independence_profile"]
        assert len(calls) == 1  # the Tutte polynomial's walk; the profile needs no second
        assert profile == list(m.independence_profile())


def test_ideal_kind_input():
    doc = parse_input(
        '{"kind":"ideal","payload":{"variables":["x1","x2","x3","x4"],'
        '"generators":[[1,1,0,0],[0,0,1,1]]}}'
    )
    rep = run_command("betti", doc, Options())
    assert rep["result"]["betti"] == {"0,2": 2, "1,4": 1}
    rep2 = run_command("ci", doc, Options())
    assert rep2["result"]["complete_intersection"] is True


@pytest.mark.parametrize(
    "variables, generators, betti",
    [
        (["x", "xa"], [[2, 0], [1, 1]], {"0,2": 2, "1,3": 1}),  # a copy of x would be named xa
        (["x", "y"], [[27, 0], [1, 1]], {"0,2": 1, "0,27": 1, "1,28": 1}),  # 27 copies of x
    ],
    ids=["copy-name-taken", "exponent-27"],
)
def test_betti_polarizes_whatever_the_names_and_exponents(variables, generators, betti, capsys, monkeypatch):
    doc = {"kind": "ideal", "payload": {"variables": variables, "generators": generators}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["betti", "-", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["betti"] == betti


def test_betti_answers_one_generator_past_the_polarization_bound(capsys, monkeypatch):
    doc = {"kind": "ideal", "payload": {"variables": ["x"], "generators": [[20001]]}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["betti", "-", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["betti"] == {"0,20001": 1}


def test_betti_of_a_sum_past_the_variable_bound_exits_2(capsys, monkeypatch):
    # U(2,8)+U(2,8): 16 variables, past Hochster's bound on the whole ideal, and 42 generators
    part = {"type": "uniform", "p": 2, "n": 8}
    doc = {"kind": "matroid", "payload": {"type": "direct_sum", "parts": [part, part]}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert main(["betti", "-"]) == 2
    assert "Taylor oracle limited to 12 generators, got 42" in capsys.readouterr().err


# -- one encoding: the deleted normalizer as the oracle ------------------------


def old_jsonable(value):
    """The report normalizer that run_command applied before reports were encoded once."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {old_key(k): old_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [old_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [old_jsonable(v) for v in sorted(value, key=repr)]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    return repr(value)


def old_key(k):
    if isinstance(k, tuple):
        return ",".join(str(v) for v in k)
    return str(k)


ONE_OF_EACH_KIND = [
    GOLDEN_DOC,
    '{"kind":"arrangement","payload":{"normals":[[1,0,0],[0,1,0],[1,1,0],[1,-1,0],[0,0,1]]},"order":[5,4,3,2,1]}',
    '{"kind":"graph","payload":{"edges":[[0,1],[1,2],[2,0],[2,3],[3,4],[4,2]]}}',
    '{"kind":"ideal","payload":{"variables":["x1","x2","x3","x4"],"generators":[[1,1,0,0],[0,1,1,0],[0,0,1,1]]}}',
]


def reports_of_every_command():
    options = Options(max_power=2, cycles="3,4", bridges="1", limit=3)
    for command in HANDLERS:
        if command == "gnr":
            yield run_command(command, None, options)
            continue
        for text in ONE_OF_EACH_KIND:
            try:
                yield run_command(command, parse_input(text), options)
            except InputError:
                pass  # the command does not take this kind
    options.batch = True
    yield run_command("cross-validate", None, options)


def test_reports_encode_as_the_normalized_reports_did():
    # the human renderer prints lists the same before and after, so the
    # normalized tree rendered today is the old output in both formats
    seen = set()
    for report in reports_of_every_command():
        seen.add(report["command"])
        assert render_report(report, "json") == json.dumps(report, indent=2) + "\n", report["command"]
        for fmt in ("json", "human"):
            assert render_report(report, fmt) == render_report(old_jsonable(report), fmt), report["command"]
    assert seen == set(HANDLERS)


# -- the json text is json.dumps(value, indent=2)'s ---------------------------


class Pair(tuple):
    """A tuple subclass: json writes it as a list."""


JSON_STRINGS = st.one_of(st.text(), st.sampled_from(["", "\x00\t\n\x1f\x7f\"\\", "é", "\u2028", "\U0001f600", "\ud800"]))
JSON_KEYS = st.one_of(JSON_STRINGS, st.integers(), st.floats(), st.booleans(), st.none())
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64), st.floats(), JSON_STRINGS
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(inner).map(Pair),
        st.lists(st.integers()),
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.dictionaries(JSON_KEYS, inner),
        st.dictionaries(JSON_KEYS, inner).map(OrderedDict),
    ),
    max_leaves=25,
)


@settings(max_examples=200)
@given(JSON_VALUES)
def test_json_report_is_json_dumps_with_indent(value):
    assert render_report(value, "json") == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [{"a": [1, {2, 3}]}, {(1, 2): 0}, [{"k": {1: object()}}]])
def test_json_report_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        render_report(value, "json")
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


# -- robustness: every small document ends in an exit code, never a traceback --

# labels of two types, which do not compare, and scalars a payload may not expect
LABELS = st.one_of(st.integers(1, 6), st.sampled_from(["a", "b"]))
ODD_SCALARS = st.sampled_from(["", "1/2", "x", True, None, 1.5, -1, 0])
ENTRIES = st.integers(-2, 2)
MATROID_COMMANDS = ["info", "bc", "ideal", "betti", "hilbert", "decompose", "stratify", "ci", "cross-validate"]
COMMANDS_BY_KIND = {
    "matroid": MATROID_COMMANDS,
    "arrangement": MATROID_COMMANDS + ["arrangement"],
    "graph": MATROID_COMMANDS + ["graph"],
    "ideal": ["ideal", "betti", "hilbert", "ci"],
}


def small_lists(element, min_size=0, max_size=5):
    return st.lists(element, min_size=min_size, max_size=max_size)


@st.composite
def matroid_payloads(draw, scalar, depth=1):
    kind = draw(st.sampled_from(["uniform", "circuits", "graphic", "linear", "direct_sum"][: 4 + depth]))
    if kind == "uniform":
        n = draw(st.integers(0, 6))
        return {"type": kind, "p": draw(st.integers(0, n)), "n": n}
    if kind == "circuits":
        n = draw(st.integers(1, 6))
        element = st.one_of(st.integers(1, n), scalar)
        return {"type": kind, "n": n, "circuits": draw(small_lists(small_lists(element, 1, 4), 1, 3))}
    if kind == "graphic":
        edge = st.one_of(st.lists(st.integers(0, 4), min_size=2, max_size=2), small_lists(scalar, 2, 3))
        return {"type": kind, "edges": draw(small_lists(edge, 1, 6))}
    if kind == "linear":
        height, width = draw(st.integers(1, 3)), draw(st.integers(1, 6))
        row = st.lists(st.one_of(ENTRIES, scalar), min_size=width, max_size=width)
        return {"type": kind, "matrix": draw(st.lists(row, min_size=height, max_size=height))}
    return {"type": kind, "parts": draw(small_lists(matroid_payloads(scalar, depth=0), 1, 2))}


@st.composite
def documents(draw):
    """(document text, command): small documents of every kind, most of them well formed.

    A noisy document draws its labels and entries from scalars of several
    JSON types as well, and may be sent to a command for another kind.
    """
    noisy = draw(st.integers(0, 3)) == 0
    scalar = st.one_of(LABELS, ODD_SCALARS) if noisy else st.integers(1, 6)
    kind = draw(st.sampled_from(sorted(COMMANDS_BY_KIND)))
    if kind == "matroid":
        payload = draw(matroid_payloads(scalar))
    elif kind == "arrangement":
        dim, count = draw(st.integers(1, 3)), draw(st.integers(1, 6))
        normal = st.lists(st.one_of(ENTRIES, scalar) if noisy else ENTRIES, min_size=dim, max_size=dim)
        payload = {"normals": draw(st.lists(normal, min_size=count, max_size=count))}
        if draw(st.booleans()):
            payload["labels"] = draw(st.lists(LABELS, min_size=count, max_size=count, unique=True))
    elif kind == "graph":
        vertex = st.one_of(st.integers(0, 4), LABELS) if noisy else st.integers(0, 4)
        payload = {"edges": draw(small_lists(st.lists(vertex, min_size=2, max_size=2), 1, 6))}
    else:
        names = draw(st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=4, unique=True))
        exponent = st.one_of(st.integers(0, 2), ODD_SCALARS) if noisy else st.integers(0, 2)
        gen = st.lists(exponent, min_size=len(names), max_size=len(names))
        payload = {"variables": names, "generators": draw(small_lists(gen, 0, 4))}
    doc = {"kind": kind, "payload": payload}
    if draw(st.booleans()):
        doc["order"] = draw(st.permutations(range(1, 7)))[: draw(st.integers(1, 6))]
        if noisy:
            doc["order"] += draw(small_lists(st.one_of(LABELS, ODD_SCALARS), 0, 2))
    commands = sorted(set(HANDLERS) - {"gnr"}) if noisy else COMMANDS_BY_KIND[kind]
    return json.dumps(doc), draw(st.sampled_from(commands))


# a bound on each run: small documents finish well inside it on a slow host
CLI_RUN_SECONDS = 10


@settings(max_examples=300, deadline=None)
@given(documents(), st.sampled_from([0, 2]))
def test_any_small_document_exits_0_1_or_2(doc, characteristic):
    text, command = doc
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main([command, "-", "--char", str(characteristic), "--max-power", "2"])
    assert time.perf_counter() - start < CLI_RUN_SECONDS, text
    prefix = {0: "", 1: "error: ", 2: "inconclusive: "}[code]
    assert err.getvalue().startswith(prefix) and "Traceback" not in err.getvalue(), (text, err.getvalue())
    assert bool(out.getvalue()) == (code == 0)


def test_uniform_past_the_enumeration_limit_exits_2_at_once(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"kind":"matroid","payload":{"type":"uniform","p":6,"n":40}}'))
    start = time.perf_counter()
    assert main(["info", "-"]) == 2
    assert time.perf_counter() - start < 1
    assert "18643560 circuits, limit 20000" in capsys.readouterr().err


def test_mixed_type_labels_exit_1_with_an_error_line(capsys, monkeypatch):
    text = '{"kind":"matroid","payload":{"type":"circuits","n":3,"circuits":[["a",2,3]]}}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["info", "-"]) == 1
    assert capsys.readouterr().err == "error: circuit ['a', 2, 3] uses unknown labels ['a']\n"
