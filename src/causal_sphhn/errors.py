"""Exception types shared across the package."""

from contextlib import contextmanager


class ContractViolation(ValueError):
    """An argument breaks a documented precondition."""


class RankDeficient(ArithmeticError):
    """Least-squares design matrix is numerically rank deficient."""


class SeriesTooShort(ContractViolation):
    """Time series has too few observations for the requested lag order."""


class ParseError(ValueError):
    """Input file does not conform to the expected schema."""


class ValidationError(ValueError):
    """Parsed data violates a structural invariant."""


class NumericalError(ArithmeticError):
    """A computation produced a nonfinite value."""


class TrainingDiverged(RuntimeError):
    """Training or validation loss, or a gradient, became nonfinite."""


@contextmanager
def naming(path: str):
    """Prefix ``path`` to the message of an input error raised in the block.

    The loaders parse a document after reading it; this makes a schema or
    validation error name the file it came from, as a read error does.
    """
    try:
        yield
    except (ContractViolation, ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
