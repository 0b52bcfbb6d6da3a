"""Hyperplane arrangement front-end: associated matroids, coning, product
detection, circuit-boundary generator emission, and the Koszul-style
characterization reports driven by matroid decomposition.

An arrangement is a rational matrix of normal columns together with its
linear matroid, built once; everything downstream (circuits, dependency
coefficients, factor coordinates) is exact, eliminated fraction-free over
the integers.
"""

from fractions import Fraction

from .decomposition import stratify, two_term_decomposition
from .errors import BoundError, InputError
from .linalg import column_rank, column_relations, integer_primitive, nullspace
from .matroid import linear_matroid, normalize_order
from .util import Frozen, pairwise_disjoint


class Arrangement(Frozen):
    """Central arrangement: one rational normal column per hyperplane, and its matroid.

    The linear matroid of the normals is built once, at construction, and
    every report on the arrangement reads it from the matroid attribute.
    """

    __slots__ = ("normals", "labels", "matroid")

    def __init__(self, normals, labels=None):
        cols = [tuple(Fraction(v) for v in col) for col in normals]
        if not cols:
            raise InputError("arrangement needs at least one hyperplane")
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise InputError("non-rectangular normal matrix")
        if any(all(v == 0 for v in c) for c in cols):
            raise InputError("zero normal column")
        if labels is None:
            labels = tuple(range(1, len(cols) + 1))
        labels = tuple(labels)
        if len(labels) != len(cols) or len(set(labels)) != len(labels):
            raise InputError("hyperplane labels must be unique, one per column")
        self._init(tuple(cols), labels, linear_matroid(cols, labels=labels))

    @classmethod
    def _from_matroid(cls, normals, labels, matroid):
        """Arrangement with a known matroid on its labels (trusted, as Matroid._from_sorted)."""
        arrangement = object.__new__(cls)
        arrangement._init(normals, labels, matroid)
        return arrangement

    def _init(self, normals, labels, matroid):
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "matroid", matroid)

    @property
    def dimension(self):
        return len(self.normals[0])

    @property
    def size(self):
        return len(self.normals)

    @property
    def is_essential(self):
        return column_rank(list(self.normals)) == self.dimension

    def __repr__(self):
        return "Arrangement(n=%d, dim=%d)" % (self.size, self.dimension)


def cone_arrangement(arrangement):
    """Cone: pad every normal with a zero coordinate and append the new axis."""
    dim = arrangement.dimension
    cols = [col + (Fraction(0),) for col in arrangement.normals]
    cols.append(tuple(Fraction(0) for _ in range(dim)) + (Fraction(1),))
    labels = arrangement.labels + (_next_label(arrangement.labels),)
    return Arrangement(cols, labels)


def _next_label(labels):
    ints = [lab for lab in labels if isinstance(lab, int)]
    nxt = (max(ints) + 1) if ints else 1
    while nxt in labels:
        nxt += 1
    return nxt


def detect_product(arrangement):
    """Factor the arrangement along the connected components of its matroid.

    Each factor is re-expressed in the basis of its own span formed by its
    first independent normals, read off its integer column relations, so
    factors are genuine lower-dimensional arrangements whose matroid
    direct sum reproduces the whole.  A change of basis keeps every
    dependency, so a factor's matroid is the restriction to its labels.
    """
    if not arrangement.is_essential:
        raise InputError("product detection needs an essential arrangement")
    matroid = arrangement.matroid
    components, _ = matroid.components_and_coloops()
    by_label = dict(zip(arrangement.labels, arrangement.normals))
    factors = []
    for comp in components:
        labels = tuple(lab for lab in arrangement.labels if lab in comp)
        cols = [by_label[lab] for lab in labels]
        # the kept columns are the greedy basis of the span; a column j with
        # relation a has coordinates -a_b / a_j in that basis
        kept, rel = column_relations([[col[i] for col in cols] for i in range(len(cols[0]))])
        coords = tuple(
            tuple(Fraction(-rel[j][b], rel[j][j]) if j in rel else Fraction(int(b == j)) for b in kept)
            for j in range(len(cols))
        )
        factors.append(Arrangement._from_matroid(coords, labels, matroid.restrict(labels)))
    return factors


def os_ot_generators(arrangement, order=None):
    """Orlik-Solomon and Orlik-Terao generators per circuit of the matroid.

    The OS generator of a circuit is its alternating boundary; the OT
    generator weights the boundary with the (unique up to scale) rational
    dependency of the normals, normalized to coprime integers whose
    leading coefficient (at the order-minimal element) is positive.  The
    rows of the normal matrix are cleared to integers once per
    arrangement: scaling a row keeps every column relation, so each
    circuit's dependency is the relation among its columns of those rows.
    """
    matroid = arrangement.matroid
    rows = [integer_primitive(row) for row in zip(*arrangement.normals)]
    position = {lab: k for k, lab in enumerate(arrangement.labels)}
    rank_in_order = {lab: i for i, lab in enumerate(normalize_order(matroid, order))}
    os_gens = []
    ot_gens = []
    for circuit in matroid.circuits:
        elems = sorted(circuit, key=rank_in_order.get)
        cols = [position[lab] for lab in elems]
        kernel = nullspace([[row[k] for k in cols] for row in rows])
        if len(kernel) != 1:
            raise AssertionError("circuit dependency space must be one-dimensional")
        # the relation is primitive and, on a circuit, nonzero everywhere
        coeffs = kernel[0] if kernel[0][0] > 0 else [-c for c in kernel[0]]
        os_terms = []
        ot_terms = []
        for j, lab in enumerate(elems):
            rest = tuple(e for e in elems if e != lab)
            sign = (-1) ** j
            os_terms.append({"sign": sign, "monomial": rest})
            ot_terms.append({"coefficient": sign * coeffs[j], "monomial": rest})
        os_gens.append({"circuit": tuple(elems), "terms": os_terms})
        ot_gens.append(
            {"circuit": tuple(elems), "dependency": tuple(coeffs), "terms": ot_terms}
        )
    return {"orlik_solomon": os_gens, "orlik_terao": ot_gens}


def koszul_report(arrangement, order=None):
    """Koszul and graded-Koszul characterization verdicts for the arrangement.

    Reports (a) the complete-intersection proxy (pairwise-disjoint minimal
    broken circuits), (b) the two-term decomposition with s = 2, and
    (c) the stratified decomposition; the final verdict quotes whichever
    characterization applies.  Koszulness itself is never computed.
    """
    if not arrangement.is_essential:
        raise InputError("Koszul report needs an essential arrangement")
    matroid = arrangement.matroid
    report = {
        "n": arrangement.size,
        "dimension": arrangement.dimension,
        "simple": matroid.is_simple,
    }
    report["ci_broken_circuits"] = pairwise_disjoint(matroid.broken_circuit_masks(order))
    cert = two_term_decomposition(matroid)
    two_term_s2 = cert is not None and cert.s == 2
    report["two_term_s2"] = two_term_s2
    report["two_term"] = cert.as_dict() if cert else None
    try:
        strat = stratify(matroid)
        report["stratification"] = strat.as_dict(matroid)
    except BoundError as exc:
        report["stratification"] = "inconclusive: %s" % exc
        strat = None
    # the broken-circuit CI test is a labeled proxy, reported alongside the
    # verdict rather than gating it
    if not matroid.circuit_masks:
        report["verdict"] = "Koszul (zero ideals)"
    elif two_term_s2:
        report["verdict"] = "Koszul (s=2 uniform decomposition)"
    elif strat is None:
        report["verdict"] = "inconclusive: stratification bound"
    else:
        report["verdict"] = "graded-Koszul (stratified decomposition)"
    return report
