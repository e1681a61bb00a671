"""Exception hierarchy shared by all modules."""


class SDowlingError(Exception):
    """Base class for all errors raised by this package."""


class InputFormatError(SDowlingError):
    """Malformed input, from JSON shapes to group axioms; the CLI exits 2."""


class NonAssociative(InputFormatError):
    def __init__(self, i, j, k):
        self.triple = (i, j, k)
        super().__init__(f"multiplication is not associative at triple ({i}, {j}, {k})")


class NoIdentity(InputFormatError):
    def __init__(self):
        super().__init__("index 0 is not a two-sided identity")


class NoInverse(InputFormatError):
    def __init__(self, i):
        self.element = i
        super().__init__(f"element {i} has no two-sided inverse")


class IndexOutOfRange(InputFormatError):
    pass


class SizeLimitExceeded(SDowlingError):
    pass


class AlreadyBounded(SDowlingError):
    pass


class NonInvariantT(InputFormatError):
    pass


class NotComparable(SDowlingError):
    pass


class NotGraded(SDowlingError):
    pass


class NotACover(SDowlingError):
    pass


class NotBounded(SDowlingError):
    pass


class NotDecreasing(SDowlingError):
    pass


class NotMaximal(SDowlingError):
    pass


class UnsupportedCase(SDowlingError):
    pass


class MalformedTree(SDowlingError):
    pass


class MalformedLabeling(SDowlingError):
    """A labeling's row for a node is not parallel to the node's covers."""


class InvalidSpec(InputFormatError):
    pass
