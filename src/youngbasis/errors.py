"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: ShapeParseError -> 2,
PreconditionError (and subclasses) -> 3, InvariantError -> 4.
"""


class YoungBasisError(Exception):
    pass


class ShapeParseError(YoungBasisError):
    """Malformed shape string, scalar string, tableau serialization or
    command line."""


class PreconditionError(YoungBasisError):
    """Input violates a documented precondition."""


class FieldMismatchError(PreconditionError):
    """Arithmetic attempted between elements of different fields."""


class PoleError(PreconditionError):
    """Evaluation of a rational function at a pole (or at q = 0)."""


class DegenerateWeightError(PreconditionError):
    """An axial-distance coefficient has a vanishing denominator.

    For rational contents this means two entries share a content; for
    q-weights it means 1 - q^{2*delta} (with page weights) vanishes.
    Either way the requested parameters are outside the semisimple range.
    """


class NonSemisimpleError(PreconditionError):
    """Algebra parameters fail the semisimplicity criterion."""


class InvariantError(YoungBasisError):
    """An internal structural invariant failed to hold."""
