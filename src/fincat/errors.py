"""Exception types shared across the package, the step counter that
raises SizeBound, and the default bound of every bounded search."""

# the desk scale: the default bound of the searches, the hom, the audit and
# the CLI's --size-bound
SIZE_BOUND = 10 ** 6


class FincatError(Exception):
    """Base class for all errors raised by this package."""


class DomainMismatch(FincatError):
    """Objects or maps have incompatible shapes for the requested operation."""


class ShapeMismatch(FincatError):
    """Structure maps of an internal datum have the wrong domains/codomains."""


class NotMono(FincatError):
    """A map required to be injective has a repeated table entry."""


class NotEpi(FincatError):
    """A map required to be surjective misses part of its codomain."""


class NotFullMono(FincatError):
    """An internal functor required to be a full monomorphism is not one."""


class NotBiSieve(FincatError):
    """An internal functor required to be a strict bi-sieve is not one."""


class NotFFEpi(FincatError):
    """An internal functor required to be fully faithful and epi-on-objects is not."""


class NotInClass(FincatError):
    """A map fed to a factorisation-system operation is outside the stated class."""


class NonCommuting(FincatError):
    """A square or cell handed to a lifting operation does not commute."""


class NotInHomSet(FincatError):
    """A transpose was fed a morphism with the wrong endpoints."""


class SizeBound(FincatError):
    """An enumeration would exceed the configured size bound.

    `stage` names what gave up, `steps` is the count it reached or predicted
    and `bound` the limit it was held to; `what` names the thing counted in
    the message, which states all three.
    """

    def __init__(self, stage, steps, bound, what="steps"):
        super().__init__(f"{stage}: {steps} {what}, over the bound {bound}")
        self.stage = stage
        self.steps = steps
        self.bound = bound

    @classmethod
    def check(cls, steps, bound, stage, what="steps"):
        """Raise when `steps` is over `bound`."""
        if steps > bound:
            raise cls(stage, steps, bound, what)


class Budget:
    """The step counter of one bounded search: `tick` counts a step and
    raises SizeBound at step `bound + 1`; `spend(n)` counts n steps at once
    and, if they pass the bound, raises exactly what the tick that passed
    it would have raised."""

    def __init__(self, bound, stage):
        self.bound = bound
        self.stage = stage
        self.steps = 0

    def tick(self):
        self.steps += 1
        if self.steps > self.bound:
            raise SizeBound(self.stage, self.steps, self.bound)

    def spend(self, n):
        if n and self.steps + n > self.bound:
            raise SizeBound(self.stage, max(self.steps, self.bound) + 1, self.bound)
        self.steps += n


class ParseError(FincatError):
    """Malformed input text; carries the offending field name when known."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class ValidationError(FincatError):
    """Parsed data failed axiom validation; carries the validation report."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


class FiberNotSingleton(FincatError):
    """Internal consistency error: a fiber guaranteed to be a singleton was not.

    Signals a precondition-validation bug in this package, not a user error.
    """


class CertificateFailure(FincatError):
    """A computed result failed the check that certifies it.

    Signals a bug in this package, not a user error or a size refusal.
    """
