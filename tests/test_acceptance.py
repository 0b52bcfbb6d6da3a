"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a PASS line (visible with pytest -s or in failure logs).
The shared corpus (uniform matroids and sums, cycle matroids drawn from
all connected graphs on <= 5 vertices, seeded rational linear matroids)
has >= 200 simple loopless members with ground size <= 8.
"""

import json
import time

import pytest


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


from bcres.complexes import bc_complex, f_h_vectors, independence_complex
from bcres.corpus import standard_corpus
from bcres.decomposition import (
    extremal_h_check,
    fvector_bound_check,
    stratify,
    two_term_decomposition,
)
from bcres.errors import BoundError
from bcres.graphs import Graph, build_gnr, cycle_matroid, gnr_report
from bcres.hilbert import hilbert_function, ideal_monomial_count, linear_value_criterion
from bcres.ideals import (
    Monomial,
    MonomialIdeal,
    ordered_colon_ideals,
    power_ideal,
    quotients_analysis,
    stanley_reisner_ideal,
)
from bcres.matroid import TuttePolynomial, circuit_matroid, uniform_matroid
from bcres.resolutions import (
    betti_hochster,
    betti_table,
    betti_taylor_oracle,
    classify_linearity,
    componentwise_linear_check,
)
from bcres.util import binom


def _print(line):
    print(line)


@pytest.fixture(scope="module")
def corpus():
    return standard_corpus()


@pytest.fixture(scope="module")
def corpus_data(corpus):
    """Per-matroid: broken-circuit ideal, Betti verdict, decomposition flags."""
    data = []
    for name, m in corpus:
        ideal = stanley_reisner_ideal(bc_complex(m))
        table = betti_table(ideal)
        verdict = classify_linearity(table)
        data.append(
            {
                "name": name,
                "matroid": m,
                "ideal": ideal,
                "table": table,
                "verdict": verdict,
                "two_term": two_term_decomposition(m),
            }
        )
    return data


def test_criterion_1_paper_golden_example():
    t0 = time.time()
    golden = circuit_matroid(6, [{4, 5, 6}, {1, 2, 3, 6}, {1, 2, 3, 4, 5}])
    ideal = stanley_reisner_ideal(bc_complex(golden))
    assert ideal.render() == "(x5*x6, x2*x3*x6, x2*x3*x4*x5)"
    quotients = quotients_analysis(ideal)
    assert quotients["linear_quotients"]["status"] == "found"
    componentwise, _ = componentwise_linear_check(ideal)
    assert componentwise is True
    assert two_term_decomposition(golden) is None
    elapsed = time.time() - t0
    assert elapsed < 4.0, "golden example took %.2fs" % elapsed
    _print("PASS criterion 1: golden ideal, linear quotients, componentwise, no decomposition (%.2fs)" % elapsed)


def test_criterion_2_equivalence_sweep(corpus_data):
    t0 = time.time()
    assert len(corpus_data) >= 200
    assert all(len(d["matroid"].ground) <= 8 for d in corpus_data)
    assert all(d["matroid"].is_simple and d["matroid"].is_loopless for d in corpus_data)
    exceptions = []
    for d in corpus_data:
        m = d["matroid"]
        linear = d["verdict"].is_linear
        decomposes = d["two_term"] is not None
        min_circuit = min((len(c) for c in m.circuits), default=None)
        s = (min_circuit - 1) if min_circuit else m.rank
        extremal = extremal_h_check(m, s)
        if not (linear == decomposes == extremal):
            exceptions.append((d["name"], d["verdict"].kind, decomposes, extremal))
    elapsed = time.time() - t0
    assert exceptions == []
    assert elapsed < 180, "sweep took %.1fs" % elapsed
    _print(
        "PASS criterion 2: linearity == decomposition == extremal-h on %d matroids, 0 exceptions (%.1fs)"
        % (len(corpus_data), elapsed)
    )


def test_criterion_3_hochster_taylor_agreement(corpus_data):
    checked = 0
    for d in corpus_data:
        ideal = d["ideal"]
        if ideal.nvars > 6 or len(ideal.gens) > 10 or not ideal.squarefree:
            continue
        for p in (0, 2):
            assert betti_hochster(ideal, p).entries == betti_taylor_oracle(ideal, p).entries, d["name"]
        checked += 1
    assert checked >= 50
    _print("PASS criterion 3: Hochster == Taylor entrywise on %d squarefree corpus ideals" % checked)


# -- fast brute-force standard-monomial oracle: packed exponents, 5 bits per lane


def _packed_monomials_by_degree(nvars, horizon):
    """All exponent vectors of degree <= horizon, packed 5 bits per variable."""
    levels = [[] for _ in range(horizon + 1)]

    def walk(i, left, packed, degree):
        if i == nvars:
            levels[degree].append(packed)
            return
        for e in range(left + 1):
            walk(i + 1, left - e, packed | (e << (5 * i)), degree + e)

    walk(0, horizon, 0, 0)
    return levels


def _pack_gen(exps):
    v = 0
    for k, e in enumerate(exps):
        v |= e << (5 * k)
    return v


def test_criterion_4_hilbert_cross_check(corpus_data):
    t0 = time.time()
    horizon = 10
    monomials_cache = {}
    for d in corpus_data:
        ideal = d["ideal"]
        n = ideal.nvars
        if n not in monomials_cache:
            monomials_cache[n] = _packed_monomials_by_degree(n, horizon)
        levels = monomials_cache[n]
        high = sum(1 << (5 * k + 4) for k in range(n))
        gens = [_pack_gen(g.exps) for g in ideal.gens]
        hd = hilbert_function(ideal, horizon=horizon)
        for s in range(horizon + 1):
            count = 0
            for m in levels[s]:
                mh = m | high
                divisible = False
                for g in gens:
                    if (mh - g) & high == high:
                        divisible = True
                        break
                if not divisible:
                    count += 1
            assert hd.values[s] == count, (d["name"], s)
    # the pinned model instance
    u24_ideal = stanley_reisner_ideal(bc_complex(uniform_matroid(2, 4)))
    hd = hilbert_function(u24_ideal)
    assert hd.values[:4] == (1, 4, 7, 10)
    assert hd.numerator == (1, 2)
    assert hd.coefficients == (3, -2)
    _print(
        "PASS criterion 4: Hilbert values == brute-force counts to degree 10 on %d ideals; "
        "U_2_4 gives (1,4,7,10), 1+2t, (3,-2) (%.1fs)" % (len(corpus_data), time.time() - t0)
    )


def test_criterion_5_single_value_criterion():
    u24_ideal = stanley_reisner_ideal(bc_complex(uniform_matroid(2, 4)))
    assert ideal_monomial_count(u24_ideal, 2) == 3 == binom(3, 2)
    assert linear_value_criterion(u24_ideal, hilbert_function(u24_ideal).codim) is True
    names = tuple("x%d" % i for i in range(1, 5))
    cross = MonomialIdeal(names, [Monomial((1, 1, 0, 0)), Monomial((0, 0, 1, 1))])
    assert ideal_monomial_count(cross, 2) == 2
    assert linear_value_criterion(cross, hilbert_function(cross).codim) is False
    _print("PASS criterion 5: dim I_2 = 3 (true) for the model ideal, 2 (false) for the pair")


def test_criterion_6_tutte_identities(corpus_data):
    t0 = time.time()
    for d in corpus_data:
        m = d["matroid"]
        t = m.tutte_polynomial()
        profile = m.independence_profile()
        assert t.evaluate(1, 1) == profile[m.rank], d["name"]
        # deletion-contraction at every non-loop non-coloop element
        coloops = m.coloops()
        for e in m.ground:
            if e in coloops:
                continue
            assert (
                t == m.delete({e}).tutte_polynomial() + m.contract({e}).tutte_polynomial()
            ), (d["name"], e)
        # Whitney: sum_i (-1)^i f_{i-1}(BC) t^(r-i) == (-1)^r T(1-t, 0)
        r = m.rank
        f = f_h_vectors(bc_complex(m)).f
        lhs = [0] * (r + 1)
        for i, v in enumerate(f):
            lhs[r - i] += (-1) ** i * v
        rhs = [0] * (r + 1)
        for (i, j), c in t.coeffs.items():
            if j == 0:
                for k in range(i + 1):
                    rhs[k] += (-1) ** r * c * binom(i, k) * (-1) ** k
        assert lhs == rhs, d["name"]
        # T(x, 1) == h-polynomial of the independence complex
        h = f_h_vectors(independence_complex(m)).h
        tx1 = [0] * (r + 1)
        for (i, j), c in t.coeffs.items():
            tx1[i] += c
        expect = [0] * (r + 1)
        for i, v in enumerate(h):
            expect[r - i] += v
        assert tx1 == expect, d["name"]
    u24 = uniform_matroid(2, 4)
    assert u24.tutte_polynomial() == TuttePolynomial({(2, 0): 1, (1, 0): 2, (0, 1): 2, (0, 2): 1})
    _print(
        "PASS criterion 6: Tutte identities (bases, deletion-contraction, Whitney, h-polynomial) "
        "on %d matroids (%.1fs)" % (len(corpus_data), time.time() - t0)
    )


def test_criterion_7_fvector_bound(corpus_data):
    checked = 0
    for d in corpus_data:
        m = d["matroid"]
        min_circuit = min((len(c) for c in m.circuits), default=None)
        s = (min_circuit - 1) if min_circuit else m.rank
        report = fvector_bound_check(m, s)
        assert all(row["holds"] for row in report), d["name"]
        checked += 1
    u24_report = fvector_bound_check(uniform_matroid(2, 4), 2)
    row = next(r for r in u24_report if r["k"] == 2)
    assert row["independent"] == 6 and row["bound"] == 3 and row["holds"]
    _print("PASS criterion 7: f-vector bound holds on %d matroids; U_2_4 reports 6 >= 3" % checked)


def test_criterion_8_power_linearity(corpus_data):
    t0 = time.time()
    checks = 0
    inconclusive = 0
    for d in corpus_data:
        verdict = d["verdict"]
        if verdict.kind != "s-linear":
            continue
        for k in (2, 3):
            try:
                pk = power_ideal(d["ideal"], k)
                pv = classify_linearity(betti_table(pk))
            except BoundError:
                inconclusive += 1
                continue
            assert pv.kind == "s-linear" and pv.s == k * verdict.s, (d["name"], k, repr(pv))
            checks += 1
    assert checks >= 100
    _print(
        "PASS criterion 8: %d power-linearity checks, 0 exceptions, %d beyond oracle limits (%.1fs)"
        % (checks, inconclusive, time.time() - t0)
    )


def test_criterion_9_gnr_families():
    for sizes in ([3], [3, 3], [3, 4], [4, 4, 4]):
        rep = gnr_report(cycle_matroid(build_gnr(sizes)))
        assert rep["cycles"] == len(sizes)
        assert rep["complete_intersection"] is True, sizes
        assert rep["cohen_macaulay"] is True, sizes
    shared = Graph([(1, 4), (4, 5), (5, 3), (1, 2), (2, 3), (1, 3)])
    rep = gnr_report(cycle_matroid(shared))
    assert rep["complete_intersection"] is False
    _print("PASS criterion 9: CI + CM for families (3), (3,3), (3,4), (4,4,4); shared-edge case CI false")


def test_criterion_10_graded_quotients_and_componentwise(corpus_data):
    t0 = time.time()
    quotient_ideals = 0
    componentwise_ideals = 0
    inconclusive = 0
    for d in corpus_data:
        ideal = d["ideal"]
        rep = quotients_analysis(ideal)
        if rep["graded_linear_quotients"]["status"] == "found":
            quotient_ideals += 1
            order = rep["graded_linear_quotients"]["order_indices"]
            for colon in ordered_colon_ideals(ideal, order):
                cv = classify_linearity(betti_table(colon))
                assert cv.is_graded_linear, (d["name"], colon.render())
        ok, _ = componentwise_linear_check(ideal)
        if ok is None:
            inconclusive += 1
        elif ok:
            componentwise_ideals += 1
            assert d["verdict"].is_graded_linear, d["name"]
    assert quotient_ideals >= 100 and componentwise_ideals >= 100
    _print(
        "PASS criterion 10: %d graded-quotient ideals with graded-linear colons; "
        "%d componentwise ideals all graded-linear (%d inconclusive) (%.1fs)"
        % (quotient_ideals, componentwise_ideals, inconclusive, time.time() - t0)
    )


def test_criterion_11_determinism(corpus):
    t0 = time.time()
    from bcres.cli import render_report, run_command

    def run():
        return render_report(
            run_command("cross-validate", None, Options(batch=True, max_power=2)), "json"
        )

    first = run()
    second = run()
    assert first == second
    payload = json.loads(first)
    assert payload["result"]["corpus_size"] == len(corpus)
    _print(
        "PASS criterion 11: repeated full-corpus batch runs byte-identical (%d bytes, %.1fs)"
        % (len(first), time.time() - t0)
    )


def test_note_cross_validate_no_crashes(corpus_data):
    from bcres.decomposition import cross_validate

    t0 = time.time()
    statuses = ("confirmed", "refuted", "inconclusive", "consistent", "divergent")
    for d in corpus_data[:: max(len(corpus_data) // 80, 1)]:
        rep = cross_validate(d["matroid"], max_power=2)
        assert rep["consistency"]
        assert all(v in statuses for v in rep["consistency"].values()), d["name"]
    _print("PASS note: cross-validate emits a consistency matrix with no crashes (%.1fs)" % (time.time() - t0))


def test_note_stratification_reverification(corpus_data):
    t0 = time.time()
    found = 0
    for d in corpus_data:
        if len(d["matroid"].ground) > 10 or not d["verdict"].is_graded_linear:
            continue
        strat = stratify(d["matroid"])
        assert strat is not None, d["name"]
        assert strat.verify(d["matroid"]), d["name"]
        assert sum(s.size for s in strat.strata) == len(d["matroid"].ground)
        found += 1
    assert found >= 100
    _print(
        "PASS note: stratification found and re-verified for %d graded-linear instances (%.1fs)"
        % (found, time.time() - t0)
    )
