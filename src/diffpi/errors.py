"""Exception types shared across the package.

Every class maps onto a CLI exit code from 1 to 5, by its nearest
ancestor in cli.EXIT_CODES; the CLI catches DiffPiError once.
"""


class DiffPiError(Exception):
    """Base class for package errors."""


class InvariantViolation(DiffPiError):
    """An input object breaks a structural precondition (associativity,
    Leibniz, unit axioms, stability, ...). Carries a witness when known."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnknownBuiltin(InvariantViolation):
    """A builtin algebra name, or a summand of one, is not known."""


class NonSplit(DiffPiError):
    """The semisimple quotient does not split over the rationals."""


class BudgetExceeded(DiffPiError):
    """A computation would exceed the configured resource budget."""

    def __init__(self, message, n=None, cost=None, budget=None):
        super().__init__(message)
        self.n = n
        self.cost = cost
        self.budget = budget


class IntegrityError(DiffPiError):
    """Internal exactness failure: a quantity that must be integral or a
    solve that must be consistent came out otherwise. Never expected on
    valid inputs."""


class NonIntegerMultiplicity(IntegrityError):
    """A cocharacter multiplicity failed to be a non-negative integer."""


class NotPolynomialGrowth(DiffPiError):
    """Operation requires polynomial growth and the input has more."""


class DiffSyntaxError(DiffPiError):
    """Parse error in the multilinear polynomial grammar, with position."""

    def __init__(self, message, pos, src=None):
        self.pos = pos
        self.src = src
        loc = f" at position {pos}"
        if src is not None:
            loc += f": {src[:pos]}<HERE>{src[pos:pos + 12]}"
        super().__init__(message + loc)


class NotMultilinear(DiffPiError):
    """Expression is not multilinear in contiguous variables x1..xn."""


class UnknownOperator(DiffPiError):
    """Superscript word uses an operator name the action does not declare."""
