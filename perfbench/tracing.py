"""Per-layer tracing of bcres from outside the library.

Each traced public function is replaced by a timing wrapper at every place
it is looked up: module globals that hold it (``decomposition`` binds
``betti_table`` by from-import, ``pykernel`` calls its own globals), the
package re-exports, and function default arguments
(``componentwise_linear_check(..., betti=betti_table)``).  Methods are
wrapped on their class.

A span's self time is its duration minus the time of the spans it encloses.
Counters are recorded at the same boundaries.  Stats are aggregated in
memory; nothing is written while a pass runs.
"""

import functools
import importlib
import sys
import time
from math import comb

from bcres import errors

# span name -> (module, attribute); "Class.method" patches the class.
SPANS = {
    "kernel.hochster_betti": ("bcres._kernel", "hochster_betti"),
    "kernel.homology_ranks": ("bcres._kernel", "homology_ranks"),
    "kernel.rank_sparse": ("bcres._kernel.pykernel", "rank_sparse"),
    "kernel.rank_int": ("bcres._kernel", "rank_int"),
    "kernel.rank_mod_p": ("bcres._kernel", "rank_mod_p"),
    "resolutions.betti_table": ("bcres.resolutions", "betti_table"),
    "resolutions.componentwise_linear_check": ("bcres.resolutions", "componentwise_linear_check"),
    "ideals.power_ideal": ("bcres.ideals", "power_ideal"),
    "ideals.polarize": ("bcres.ideals", "polarize"),
    "ideals.stanley_reisner_ideal": ("bcres.ideals", "stanley_reisner_ideal"),
    "ideals.quotients_analysis": ("bcres.ideals", "quotients_analysis"),
    "complexes.bc_complex": ("bcres.complexes", "bc_complex"),
    "complexes.f_h_vectors": ("bcres.complexes", "f_h_vectors"),
    "matroid.construct": ("bcres.matroid", "Matroid.__init__"),
    "matroid.restrict": ("bcres.matroid", "Matroid.restrict"),
    "matroid.tutte_polynomial": ("bcres.matroid", "Matroid.tutte_polynomial"),
    "matroid.independence_profile": ("bcres.matroid", "Matroid.independence_profile"),
    "hilbert.hilbert_function": ("bcres.hilbert", "hilbert_function"),
    "decomposition.cross_validate": ("bcres.decomposition", "cross_validate"),
    "decomposition.stratify": ("bcres.decomposition", "stratify"),
    "arrangements.koszul_report": ("bcres.arrangements", "koszul_report"),
    "graphs.gnr_report": ("bcres.graphs", "gnr_report"),
    "linalg.column_rank": ("bcres.linalg", "column_rank"),
    "cli.parse_input": ("bcres.cli", "parse_input"),
    "cli.run_command": ("bcres.cli", "run_command"),
    "cli.render_report": ("bcres.cli", "render_report"),
    "corpus.standard_corpus": ("bcres.corpus", "standard_corpus"),
}


def _count_hochster(c, args, result):
    c["kernel.hochster_betti.sigmas"] += len(args[2])
    c["kernel.hochster_betti.faces"] += sum(len(level) for level in args[1])


def _count_dense_rank(c, args, result):
    rows = args[0]
    c["kernel.rank.entries"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_power(c, args, result):
    ideal, k = args[0], args[1]
    c["ideals.power_ideal.formed"] += comb(len(ideal.gens) + k - 1, k)
    c["ideals.power_ideal.kept"] += len(result.gens)


def _count_construct(c, args, result):
    c["matroid.construct.circuits"] += len(args[0].circuits)


def _count_render(c, args, result):
    c["cli.render_report.bytes"] += len(result)


def _count_xval(c, args, result):
    c["decomposition.inconclusive"] += list(result["consistency"].values()).count("inconclusive")


def _count_betti(c, args, result, seen):
    key = (args[0], args[1] if len(args) > 1 else 0)
    if key in seen:
        c["resolutions.betti_table.repeats"] += 1
    seen.add(key)


COUNTERS = {
    "kernel.hochster_betti": _count_hochster,
    "kernel.rank_int": _count_dense_rank,
    "kernel.rank_mod_p": _count_dense_rank,
    "ideals.power_ideal": _count_power,
    "matroid.construct": _count_construct,
    "cli.render_report": _count_render,
    "decomposition.cross_validate": _count_xval,
}


class Tracer:
    """Installs span wrappers, aggregates (calls, total, self time) per span and counters."""

    def __init__(self):
        self._stack = []
        self._patches = []
        self.reset()

    def reset(self):
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}
        self.counters = dict.fromkeys(
            [
                "kernel.hochster_betti.sigmas",
                "kernel.hochster_betti.faces",
                "kernel.rank.entries",
                "ideals.power_ideal.formed",
                "ideals.power_ideal.kept",
                "matroid.construct.circuits",
                "cli.render_report.bytes",
                "decomposition.inconclusive",
                "resolutions.betti_table.repeats",
                "resolutions.bound_errors",
            ],
            0,
        )
        self._seen_tables = set()

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        count = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stats = tracer.stats[name]
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except errors.BoundError:
                if name == "resolutions.betti_table":
                    tracer.counters["resolutions.bound_errors"] += 1
                raise
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
            if name == "resolutions.betti_table":
                _count_betti(tracer.counters, args, result, tracer._seen_tables)
            elif count is not None:
                count(tracer.counters, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self):
        """Wrap every SPANS target at all of its lookup sites in loaded bcres modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original function) -> its wrapper
        for name, (module, attr) in SPANS.items():
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
            else:
                original = getattr(owner, attr)
                wrappers[id(original)] = self._wrap(name, original)
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "bcres" and m]
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, key, wrappers[id(value)])
                defaults = getattr(value, "__defaults__", None)
                if defaults and any(id(d) in wrappers for d in defaults):
                    self._patch(value, "__defaults__", tuple(wrappers.get(id(d), d) for d in defaults))

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches = []

    def begin_pass(self):
        """Betti repeats are counted within one pass, not against earlier passes."""
        self._seen_tables = set()

    def total_s(self, span):
        return self.stats[span][1]


def layer_calls(stats, layer):
    """Calls recorded by all spans of one layer (module)."""
    return sum(v[0] for k, v in stats.items() if k.split(".")[0] == layer)


def per_layer_metrics(tracer, passes):
    """The per-layer metrics of BENCHMARK.json, per traced pass."""
    s, c = tracer.stats, tracer.counters

    def calls(span):
        return s[span][0] / passes

    def self_s(span):
        return s[span][2] / passes

    def ratio(num, den):
        return num / den if den else 0.0

    rank_calls = s["kernel.rank_int"][0] + s["kernel.rank_mod_p"][0]
    out = {
        "kernel.hochster_betti.calls": (calls("kernel.hochster_betti"), "count"),
        "kernel.hochster_betti.self_s": (self_s("kernel.hochster_betti"), "s"),
        "kernel.hochster_betti.sigmas": (c["kernel.hochster_betti.sigmas"] / passes, "count"),
        "kernel.hochster_betti.faces": (c["kernel.hochster_betti.faces"] / passes, "count"),
        "kernel.homology_ranks.calls": (calls("kernel.homology_ranks"), "count"),
        "kernel.homology_ranks.self_s": (self_s("kernel.homology_ranks"), "s"),
        "kernel.rank_sparse.calls": (calls("kernel.rank_sparse"), "count"),
        "kernel.rank_sparse.self_s": (self_s("kernel.rank_sparse"), "s"),
        "kernel.rank.calls": (rank_calls / passes, "count"),
        "kernel.rank.entries": (c["kernel.rank.entries"] / passes, "count"),
        "resolutions.betti_table.calls": (calls("resolutions.betti_table"), "count"),
        "resolutions.betti_table.self_s": (self_s("resolutions.betti_table"), "s"),
        "resolutions.betti_table.repeat_ratio": (
            ratio(c["resolutions.betti_table.repeats"], s["resolutions.betti_table"][0]),
            "ratio",
        ),
        "resolutions.componentwise_linear_check.self_s": (
            self_s("resolutions.componentwise_linear_check"),
            "s",
        ),
        "resolutions.bound_errors": (c["resolutions.bound_errors"] / passes, "count"),
        "ideals.power_ideal.self_s": (self_s("ideals.power_ideal"), "s"),
        "ideals.power_ideal.kept_ratio": (
            ratio(c["ideals.power_ideal.kept"], c["ideals.power_ideal.formed"]),
            "ratio",
        ),
        "ideals.polarize.self_s": (self_s("ideals.polarize"), "s"),
        "ideals.stanley_reisner_ideal.self_s": (self_s("ideals.stanley_reisner_ideal"), "s"),
        "ideals.quotients_analysis.self_s": (self_s("ideals.quotients_analysis"), "s"),
        "complexes.bc_complex.calls": (calls("complexes.bc_complex"), "count"),
        "complexes.bc_complex.self_s": (self_s("complexes.bc_complex"), "s"),
        "complexes.f_h_vectors.self_s": (self_s("complexes.f_h_vectors"), "s"),
        "matroid.construct.calls": (calls("matroid.construct"), "count"),
        "matroid.construct.self_s": (self_s("matroid.construct"), "s"),
        "matroid.construct.circuits": (c["matroid.construct.circuits"] / passes, "count"),
        "matroid.restrict.calls": (calls("matroid.restrict"), "count"),
        "matroid.tutte_polynomial.self_s": (self_s("matroid.tutte_polynomial"), "s"),
        "matroid.independence_profile.self_s": (self_s("matroid.independence_profile"), "s"),
        "hilbert.hilbert_function.calls": (calls("hilbert.hilbert_function"), "count"),
        "hilbert.hilbert_function.self_s": (self_s("hilbert.hilbert_function"), "s"),
        "decomposition.cross_validate.self_s": (self_s("decomposition.cross_validate"), "s"),
        "decomposition.stratify.calls": (calls("decomposition.stratify"), "count"),
        "decomposition.stratify.self_s": (self_s("decomposition.stratify"), "s"),
        "decomposition.inconclusive": (c["decomposition.inconclusive"] / passes, "count"),
        "arrangements.koszul_report.self_s": (self_s("arrangements.koszul_report"), "s"),
        "graphs.gnr_report.self_s": (self_s("graphs.gnr_report"), "s"),
        "linalg.column_rank.calls": (calls("linalg.column_rank"), "count"),
        "linalg.column_rank.self_s": (self_s("linalg.column_rank"), "s"),
        "cli.parse_input.self_s": (self_s("cli.parse_input"), "s"),
        "cli.run_command.self_s": (self_s("cli.run_command"), "s"),
        "cli.render_report.self_s": (self_s("cli.render_report"), "s"),
        "cli.render_report.bytes": (c["cli.render_report.bytes"] / passes, "B"),
    }
    return out
