"""Exception types shared across the package."""

from __future__ import annotations


class ConvselError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatchError(ConvselError, ValueError):
    """An argument has the wrong ambient or output dimension."""


class InfeasibleBodyError(ConvselError, ValueError):
    """A convex body description admits no feasible point."""


class ProjectionError(ConvselError, RuntimeError):
    """A projection failed its certificate: the point found is not a member
    of the body."""


class UnboundedBodyError(ConvselError, ValueError):
    """An operation needed a bounded body (or a bounding box) and got neither."""


class UncoveredPointError(ConvselError, ValueError):
    """A set-valued map was evaluated at a point ``x`` no piece covers."""

    def __init__(self, message: str, x=None):
        super().__init__(message)
        self.x = x


class TagError(ConvselError, ValueError):
    """Semicontinuity tags of the operands are incompatible."""


class IndeterminateSumError(ConvselError, ArithmeticError):
    """A pointwise sum hit (+inf) + (-inf)."""


class EmptySetError(ConvselError, ValueError):
    """A closed set that must be nonempty is empty."""


class OverlapError(ConvselError, ValueError):
    """Two sets that must be disjoint intersect."""


class AuditError(ConvselError, ValueError):
    """A precondition audit failed; carries the offending report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class StratificationError(AuditError):
    """A declared stratification failed its partition or openness audit."""


class PostconditionError(ConvselError, RuntimeError):
    """An internal construction violated one of its stated postconditions."""


class ExprSyntaxError(ConvselError, ValueError):
    """Expression source failed to parse; ``offset`` is the 0-based position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.message = message
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    """An identifier in an expression is not a variable or known function."""


class EvalDomainError(ConvselError, ArithmeticError):
    """Expression evaluation left its numeric domain (div by zero, sqrt of
    a negative, 0 to a negative power)."""


class SpecValidationError(ConvselError, ValueError):
    """A problem-spec file violates the schema or its semantic checks."""
