"""Exception types shared across the package."""


class BiqzError(ArithmeticError):
    """Base class for domain errors raised by biqz operations."""


class ZeroDivisorError(BiqzError):
    """The complex-valued norm of the operand vanishes, so no inverse exists.

    Nonzero biquaternions can satisfy q * conj(q) == 0 (e.g. 1 + 1Ik); they
    are zero divisors and cannot be inverted.
    """


class DivergentSeriesError(BiqzError):
    """A geometric series argument lies on or outside the unit shell."""


class NoConvergenceError(BiqzError):
    """A truncated series evaluation ran out of terms while still growing, or
    an iterated value left double range (a component overflowed to inf/nan)."""


class OutsideROCError(BiqzError):
    """An evaluation point lies inside the region-of-convergence radius."""


class LiteralParseError(ValueError):
    """A biquaternion literal does not conform to the grammar."""
