"""CLI contract: schemas, dispatch, rendering, determinism, exit codes."""

import json
from itertools import combinations

import pytest

from bcres.cli import main, parse_input, render_report, run_command
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
    assert res["h_fit"]["c"] == [1] and res["h_fit"]["cutoff"] == 2


def test_ideal_kind_input():
    doc = parse_input(
        '{"kind":"ideal","payload":{"variables":["x1","x2","x3","x4"],'
        '"generators":[[1,1,0,0],[0,0,1,1]]}}'
    )
    rep = run_command("betti", doc, Options())
    assert rep["result"]["betti"] == {"0,2": 2, "1,4": 1}
    rep2 = run_command("ci", doc, Options())
    assert rep2["result"]["complete_intersection"] is True
