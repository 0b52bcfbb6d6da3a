"""Command-line interface: JSON input documents in, human or canonical JSON
reports out.

Exit codes: 0 completed with verdicts, 1 input error, 2 a size or oracle
bound made the requested verdict inconclusive.  Handlers return plain
JSON values (dicts, lists, tuples, strings, integers, booleans, None), so
render_report writes each report in one pass, as the bytes of
json.dumps(report, indent=2), and reports are deterministic byte-for-byte
for a fixed input and option set.
"""

import argparse
import hashlib
import json
import sys

from . import __version__
from .arrangements import Arrangement, detect_product, koszul_report, os_ot_generators
from .complexes import bc_complex, f_h_vectors, f_to_h, h_to_f
from .corpus import standard_corpus
from .decomposition import (
    cross_validate,
    expected_s,
    fvector_bound_check,
    generalized_bound_check,
    extremal_h_check,
    stratify,
    two_term_decomposition,
)
from .errors import BoundError, InputError, LoopError
from .graphs import Graph, build_gnr, cycle_matroid, gnr_report
from .hilbert import binomial_form_fit, h_binomial_fit, hilbert_function, linear_value_criterion
from .ideals import (
    MonomialIdeal,
    broken_circuit_ideal,
    complete_intersection_check,
    quotients_analysis,
)
from .matroid import build_matroid, normalize_order, parse_rational
from .resolutions import betti_table, classify_linearity

class InputDocument:
    """Validated input: kind, kind-specific payload, optional element order."""

    __slots__ = ("kind", "payload", "order", "raw")

    def __init__(self, kind, payload, order, raw):
        self.kind = kind
        self.payload = payload
        self.order = order
        self.raw = raw


def parse_input(text):
    """Parse and validate a JSON input document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("not valid JSON: %s" % exc)
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    kind = doc.get("kind")
    if kind not in ("matroid", "arrangement", "graph", "ideal"):
        raise InputError("field 'kind' must be one of matroid, arrangement, graph, ideal")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise InputError("field 'payload' must be an object")
    order = doc.get("order")
    if order is not None and not isinstance(order, list):
        raise InputError("field 'order' must be a list of element labels")
    return InputDocument(kind, payload, tuple(order) if order else None, doc)


def materialize(doc):
    """Turn an InputDocument into the corresponding toolkit object."""
    if doc.kind == "matroid":
        try:
            return build_matroid(doc.payload)
        except KeyError as exc:
            raise InputError("matroid payload missing field %s" % exc)
    if doc.kind == "arrangement":
        normals = doc.payload.get("normals")
        if not isinstance(normals, list) or not normals or not all(isinstance(c, list) for c in normals):
            raise InputError("arrangement payload needs a nonempty 'normals' list of lists")
        cols = [
            [parse_rational(v, "normals[%d]" % i) for v in col] for i, col in enumerate(normals)
        ]
        labels = doc.payload.get("labels")
        if labels is not None and (
            not isinstance(labels, list) or any(isinstance(v, (list, dict)) for v in labels)
        ):
            raise InputError("field 'labels' must be a list of scalars")
        return Arrangement(cols, labels=labels)
    if doc.kind == "graph":
        edges = doc.payload.get("edges")
        if not isinstance(edges, list) or not edges or not all(
            isinstance(e, list) and len(e) in (2, 3) and not any(isinstance(v, (list, dict)) for v in e)
            for e in edges
        ):
            raise InputError("graph payload needs a nonempty 'edges' list of lists of 2 or 3 scalars")
        return Graph([tuple(e) for e in edges])
    if doc.kind == "ideal":
        names = doc.payload.get("variables")
        gens = doc.payload.get("generators")
        if not isinstance(names, list) or not all(isinstance(v, str) for v in names):
            raise InputError("ideal payload needs 'variables', a list of name strings")
        if not isinstance(gens, list) or not all(
            isinstance(g, list) and all(isinstance(e, int) and not isinstance(e, bool) for e in g)
            for g in gens
        ):
            raise InputError("ideal payload needs 'generators', a list of integer exponent lists")
        return MonomialIdeal(tuple(names), gens)
    raise InputError("unsupported kind %r" % doc.kind)


def _matroid_of(doc):
    if doc.kind == "matroid":
        return materialize(doc)
    if doc.kind == "arrangement":
        return materialize(doc).matroid
    if doc.kind == "graph":
        return cycle_matroid(materialize(doc))
    raise InputError("command needs a matroid-like input, got kind=%r" % doc.kind)


def _bc_ideal(doc):
    if doc.kind == "ideal":
        return materialize(doc)
    return broken_circuit_ideal(_matroid_of(doc), doc.order)


# -- command handlers -------------------------------------------------------


def _cmd_info(doc, options):
    m = _matroid_of(doc)
    parts, coloops = m.components_and_coloops()
    t = m.tutte_polynomial()
    # h_k counts the bases with k internally passive elements: the terms x^(r-k) y^j
    h = [0] * (m.rank + 1)
    for (i, _), c in t.coeffs.items():
        h[m.rank - i] += c
    return {
        "ground": list(m.ground),
        "rank": m.rank,
        "circuits": [sorted(c, key=repr) for c in m.circuits],
        "loopless": m.is_loopless,
        "simple": m.is_simple,
        "components": [sorted(p, key=repr) for p in parts],
        "coloops": sorted(coloops, key=repr),
        "tutte": t.render(),
        "tutte_coefficients": {"%d,%d" % k: v for k, v in t.items()},
        "independence_profile": list(h_to_f(h, m.rank - 1)),
        "bases": t.evaluate(1, 1),
    }


def _cmd_bc(doc, options):
    m = _matroid_of(doc)
    order = normalize_order(m, doc.order)
    complex_ = bc_complex(m, order)
    fh_bc = f_h_vectors(complex_)
    f_in = m.independence_profile()
    return {
        "order": list(order),
        "broken_circuits_minimal": [sorted(b, key=repr) for b in m.broken_circuits(order)],
        "broken_circuits_all": [
            sorted(b, key=repr) for b in m.broken_circuits(order, minimal=False)
        ],
        "facets": [sorted(f, key=repr) for f in complex_.facets],
        "dim": complex_.dim,
        "f_vector_bc": list(fh_bc.f),
        "h_vector_bc": list(fh_bc.h),
        "f_vector_independence": list(f_in),
        "h_vector_independence": list(f_to_h(f_in, m.rank - 1)),
    }


def _cmd_ideal(doc, options):
    ideal = _bc_ideal(doc)
    return {
        "variables": list(ideal.names),
        "generators": ideal.render_generators(),
        "generator_exponents": [list(e) for e in ideal.exponents()],
        "squarefree": ideal.squarefree,
        "indeg": ideal.indeg(),
        "maxdeg": ideal.maxdeg(),
    }


def _cmd_betti(doc, options):
    ideal = _bc_ideal(doc)
    table = betti_table(ideal, options.characteristic)
    verdict = classify_linearity(table)
    return {
        "ideal": ideal.render(),
        "characteristic": options.characteristic,
        "betti": {"%d,%d" % k: v for k, v in table.entries.items()},
        "rows": table.rows(),
        "regularity": table.regularity(),
        "verdict": {"kind": verdict.kind, "s": verdict.s, "rows": list(verdict.row_set)},
        "grid": _betti_grid(table),
    }


def _cmd_hilbert(doc, options):
    m = _matroid_of(doc) if doc.kind != "ideal" else None
    ideal = materialize(doc) if m is None else broken_circuit_ideal(m, doc.order)
    hd = hilbert_function(ideal)
    out = {
        "ideal": ideal.render(),
        "values": list(hd.values),
        "dim": hd.dim,
        "codim": hd.codim,
        "numerator": list(hd.numerator),
        "hilbert_coefficients": list(hd.coefficients) if hd.coefficients else None,
        "width": hd.width,
        "linear_value_criterion": linear_value_criterion(ideal, hd.codim),
    }
    try:
        out["binomial_fit"] = binomial_form_fit(hd)
    except InputError as exc:
        out["binomial_fit"] = "unavailable: %s" % exc
    if m is not None:
        # Stanley: the numerator is the h-vector of the broken-circuit complex
        out["h_fit"] = h_binomial_fit(hd.numerator, len(m.ground) - m.rank)
    return out


def _cmd_decompose(doc, options):
    m = _matroid_of(doc)
    cert = two_term_decomposition(m)
    s = expected_s(m)
    return {
        "two_term_decomposition": cert.as_dict() if cert else None,
        "s": s,
        "extremal_h": extremal_h_check(m, s),
        "fvector_bound": fvector_bound_check(m, s),
        "generalized_bound": generalized_bound_check(m, order=doc.order),
    }


def _cmd_stratify(doc, options):
    m = _matroid_of(doc)
    strat = stratify(m)
    return {
        "stratification": strat.as_dict(m),
        "verified": strat.verify(m),
    }


def _cmd_ci(doc, options):
    ideal = _bc_ideal(doc)
    return {
        "ideal": ideal.render(),
        "complete_intersection": complete_intersection_check(ideal),
        "quotients": quotients_analysis(ideal),
    }


def _cmd_cross_validate(doc, options):
    if options.max_power < 1:
        raise InputError("--max-power must be at least 1, got %d" % options.max_power)
    if options.batch:
        if options.limit < 0:
            raise InputError("--limit must be nonnegative, got %d" % options.limit)
        corpus = standard_corpus(seed=options.seed)
        if options.limit:
            corpus = corpus[: options.limit]
        instances = []
        tallies = {}
        for name, m in corpus:
            rep = cross_validate(m, characteristic=options.characteristic, max_power=options.max_power)
            for key, value in rep["consistency"].items():
                tallies.setdefault(key, {}).setdefault(value, 0)
                tallies[key][value] += 1
            instances.append({"name": name, "consistency": rep["consistency"]})
        return {"corpus_size": len(corpus), "seed": options.seed, "tallies": tallies, "instances": instances}
    m = _matroid_of(doc)
    return cross_validate(
        m, order=doc.order, characteristic=options.characteristic, max_power=options.max_power
    )


def _cmd_arrangement(doc, options):
    if doc.kind != "arrangement":
        raise InputError("the arrangement command needs kind=arrangement input")
    arr = materialize(doc)
    m = arr.matroid
    essential = arr.is_essential  # ranks the normals on every read
    out = {
        "hyperplanes": arr.size,
        "dimension": arr.dimension,
        "essential": essential,
        "matroid_rank": m.rank,
        "circuits": [sorted(c, key=repr) for c in m.circuits],
    }
    if essential:
        out["generators"] = os_ot_generators(arr, doc.order)
        out["koszul"] = koszul_report(arr, doc.order)
        out["factors"] = [
            {"labels": list(f.labels), "dimension": f.dimension} for f in detect_product(arr)
        ]
    return out


def _cmd_graph(doc, options):
    if doc.kind != "graph":
        raise InputError("the graph command needs kind=graph input")
    g = materialize(doc)
    m = cycle_matroid(g)
    return {
        "vertices": [repr(v) if not isinstance(v, (int, str)) else v for v in g.vertices],
        "edges": [[lab, u, v] for lab, u, v in g.edges],
        "cycle_matroid_rank": m.rank,
        "circuits": [sorted(c, key=repr) for c in m.circuits],
        "report": gnr_report(m, doc.order),
    }


def _int_list(flag, text):
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise InputError("%s needs comma separated integers, got %r" % (flag, text)) from None


def _cmd_gnr(doc, options):
    if not options.cycles:
        raise InputError("gnr needs --cycles, e.g. --cycles 3,3")
    sizes = _int_list("--cycles", options.cycles)
    bridges = _int_list("--bridges", options.bridges) if options.bridges else None
    g = build_gnr(sizes, bridges)
    return {
        "edges": [[lab, u, v] for lab, u, v in g.edges],
        "report": gnr_report(cycle_matroid(g)),
    }


HANDLERS = {
    "info": _cmd_info,
    "bc": _cmd_bc,
    "ideal": _cmd_ideal,
    "betti": _cmd_betti,
    "hilbert": _cmd_hilbert,
    "decompose": _cmd_decompose,
    "stratify": _cmd_stratify,
    "ci": _cmd_ci,
    "cross-validate": _cmd_cross_validate,
    "arrangement": _cmd_arrangement,
    "graph": _cmd_graph,
    "gnr": _cmd_gnr,
}


def run_command(command, doc, options):
    """Dispatch a command; returns the full report envelope."""
    if command not in HANDLERS:
        raise InputError("unknown command %r" % command)
    result = HANDLERS[command](doc, options)
    raw = (
        doc.raw
        if doc is not None
        else {
            "command": command,
            "cycles": options.cycles,
            "bridges": options.bridges,
            "seed": options.seed,
            "limit": options.limit,
        }
    )
    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return {
        "tool": "bcres",
        "version": __version__,
        "command": command,
        "options": {
            "order": list(doc.order) if doc is not None and doc.order else None,
            "characteristic": options.characteristic,
            "max_power": options.max_power,
            "format": options.format,
            "seed": options.seed,
        },
        "input_sha256": digest,
        "result": result,
    }


# -- rendering ------------------------------------------------------------------


def _betti_grid(table):
    """Macaulay2-style grid: columns are homological indices, rows are j - i."""
    if not table.entries:
        return ["0 (zero ideal)"]
    max_i = table.max_index()
    rows = table.rows()
    width = max(len(str(v)) for v in table.entries.values())
    width = max(width, len(str(max_i)))
    lines = []
    header = " " * 5 + " ".join(str(i).rjust(width) for i in range(max_i + 1))
    lines.append(header)
    for row in range(rows[0], rows[-1] + 1):
        cells = []
        for i in range(max_i + 1):
            v = table.get(i, i + row)
            cells.append((str(v) if v else ".").rjust(width))
        lines.append(("%d:" % row).rjust(4) + " " + " ".join(cells))
    return lines


def _render_human(report, out):
    def walk(node, indent=0):
        pad = "  " * indent
        if isinstance(node, dict):
            for k, v in node.items():
                if _is_line_block(v):
                    out.write("%s%s:\n" % (pad, k))
                    for line in v:
                        out.write("%s  %s\n" % (pad, line))
                elif isinstance(v, (dict, list, tuple)) and v and not _is_scalar_list(v):
                    out.write("%s%s:\n" % (pad, k))
                    walk(v, indent + 1)
                else:
                    out.write("%s%s: %s\n" % (pad, k, _scalar(v)))
        elif isinstance(node, (list, tuple)):
            for v in node:
                if isinstance(v, (dict, list, tuple)) and v and not _is_scalar_list(v):
                    out.write("%s-\n" % pad)
                    walk(v, indent + 1)
                else:
                    out.write("%s- %s\n" % (pad, _scalar(v)))

    walk(report)


def _is_scalar_list(v):
    return isinstance(v, (list, tuple)) and all(
        x is None or isinstance(x, (bool, int, str, float)) for x in v
    )


def _is_line_block(v):
    # preformatted text blocks (Betti grids) print one line per entry
    return (
        isinstance(v, (list, tuple))
        and v
        and all(isinstance(x, str) for x in v)
        and any(" " in x for x in v)
    )


def _scalar(v):
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(str(x) for x in v) + "]"
    if v is None:
        return "none"
    return str(v)


# json.dumps with an indent runs json's pure-Python encoder; without one,
# a scalar goes through the C encoder and keeps json's text and errors
_encode_scalar = json.JSONEncoder().encode
_encode_str = json.encoder.encode_basestring_ascii


def _json_key(key):
    """A dict key as json writes it: a string, or a scalar's text in quotes."""
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        return '"%s"' % _encode_scalar(key)
    raise TypeError("keys must be str, int, float, bool or None, not %s" % type(key).__name__)


def _json_indented(report):
    """The text of json.dumps(report, indent=2), written in one pass."""
    pieces = []
    append = pieces.append

    def encode(value, newline):
        # newline is "\n" and the indent of the value's own line
        if isinstance(value, str):
            append(_encode_str(value))
        elif type(value) is int:
            append(str(value))
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            inner = newline + "  "
            sep = "{" + inner
            for key, item in value.items():
                append(sep + _json_key(key) + ": ")
                encode(item, inner)
                sep = "," + inner
            append(newline + "}")
        elif isinstance(value, (list, tuple)):
            if not value:
                append("[]")
                return
            inner = newline + "  "
            if all(type(item) is int for item in value):
                append("[" + inner + ("," + inner).join(map(str, value)) + newline + "]")
                return
            sep = "[" + inner
            for item in value:
                append(sep)
                encode(item, inner)
                sep = "," + inner
            append(newline + "]")
        else:
            append(_encode_scalar(value))

    encode(report, "\n")
    return "".join(pieces)


def render_report(report, format_):
    """Render the report envelope; json is the canonical serialization.

    The json text is json.dumps(report, indent=2)'s, byte for byte.
    """
    import io

    if format_ == "json":
        return _json_indented(report) + "\n"
    buf = io.StringIO()
    _render_human(report["result"], buf)
    return buf.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bcres",
        description="Exact broken-circuit complex and Stanley-Reisner resolution toolkit",
    )
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("input", nargs="?", help="input JSON path, or - for stdin")
    parser.add_argument("--order", help="element order, comma separated labels")
    parser.add_argument("--char", type=int, default=0, dest="characteristic", help="field characteristic (0 or a prime)")
    parser.add_argument("--max-power", type=int, default=3, dest="max_power")
    parser.add_argument("--format", choices=("human", "json"), default="human")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed for cross-validate --batch")
    parser.add_argument("--batch", action="store_true", help="cross-validate over the standard corpus")
    parser.add_argument("--limit", type=int, default=0, help="cap the batch corpus size")
    parser.add_argument("--cycles", help="gnr: cycle sizes, comma separated")
    parser.add_argument("--bridges", help="gnr: bridge path lengths between consecutive cycles")
    options = parser.parse_args(argv)

    try:
        doc = None
        if options.command == "gnr" or (options.command == "cross-validate" and options.batch):
            pass
        else:
            if not options.input:
                raise InputError("command %r needs an input document" % options.command)
            if options.input == "-":
                text = sys.stdin.read()
            else:
                with open(options.input, "r", encoding="utf-8") as handle:
                    text = handle.read()
            doc = parse_input(text)
            if options.order:
                labels = []
                for item in options.order.split(","):
                    item = item.strip()
                    labels.append(int(item) if item.lstrip("-").isdigit() else item)
                doc.order = tuple(labels)
        report = run_command(options.command, doc, options)
    except (InputError, LoopError, OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BoundError as exc:
        print("inconclusive: bound exceeded (%s)" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(render_report(report, options.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
