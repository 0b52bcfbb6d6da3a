"""Exception types shared across the toolkit."""


class InputError(ValueError):
    """Malformed construction data: bad labels, shapes, or schema violations."""


class CircuitAxiomError(InputError):
    """A claimed circuit family violates the circuit elimination axiom.

    The circuits come as label lists in ground order: labels of mixed types
    need not compare, so they are never sorted here.
    """

    def __init__(self, c1, c2, e):
        self.witness = (list(c1), list(c2), e)
        super().__init__("circuit elimination fails for %s and %s at common element %r" % self.witness)


class LoopError(ValueError):
    """An operation that requires a loopless matroid met a loop."""


class BoundError(RuntimeError):
    """A size or oracle bound was exceeded; the verdict is inconclusive, never wrong."""
