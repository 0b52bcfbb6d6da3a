"""CLI contract: schemas, dispatch, rendering, determinism, exit codes."""

import io
import json
from fractions import Fraction
from itertools import combinations

import pytest

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


def test_graph_command_exits_2_on_k5(tmp_path, capsys):
    k5 = tmp_path / "k5.json"
    edges = [list(e) for e in combinations(range(5), 2)]
    k5.write_text(json.dumps({"kind": "graph", "payload": {"edges": edges}}))
    assert main(["graph", str(k5)]) == 2
    assert "edge choices" in capsys.readouterr().err


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


def test_hilbert_builds_the_matroid_once(monkeypatch):
    import bcres.arrangements

    calls = []
    real = bcres.arrangements.linear_matroid
    monkeypatch.setattr(bcres.arrangements, "linear_matroid", lambda *a, **k: calls.append(1) or real(*a, **k))
    doc = parse_input('{"kind":"arrangement","payload":{"normals":[[1,0],[0,1],[1,1]]}}')
    rep = run_command("hilbert", doc, Options())
    assert rep["result"]["h_fit"]["fits"] is True
    assert len(calls) == 1


def test_ideal_kind_input():
    doc = parse_input(
        '{"kind":"ideal","payload":{"variables":["x1","x2","x3","x4"],'
        '"generators":[[1,1,0,0],[0,0,1,1]]}}'
    )
    rep = run_command("betti", doc, Options())
    assert rep["result"]["betti"] == {"0,2": 2, "1,4": 1}
    rep2 = run_command("ci", doc, Options())
    assert rep2["result"]["complete_intersection"] is True


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
        for fmt in ("json", "human"):
            assert render_report(report, fmt) == render_report(old_jsonable(report), fmt), report["command"]
    assert seen == set(HANDLERS)
