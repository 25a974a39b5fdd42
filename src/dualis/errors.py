"""Exception hierarchy for dualis.

Every failure mode that a caller is expected to handle gets its own class;
all of them derive from :class:`DualisError` so scripts can catch the whole
family at once.  Errors signal *refusal to answer*, never a wrong answer:
whenever an exact computation cannot be certified, the operation raises
instead of returning a best guess.
"""


class DualisError(Exception):
    """Base class for all dualis errors."""


# --- polynomial layer -------------------------------------------------------

class PolySyntaxError(DualisError):
    """Input text does not conform to the polynomial grammar."""


class UnknownVariableError(DualisError):
    """A symbol in the input is not among the declared variables."""


class SharedVariableMismatch(DualisError):
    """Resultant operands disagree on the distinguished variable or ring."""


class DegenerateInput(DualisError):
    """Both resultant operands are constant in the distinguished variable."""


class DegreeTooLow(DualisError):
    """Discriminant requires degree at least 2."""


class ZeroInput(DualisError):
    """Operation undefined for the zero polynomial."""


class DegreeGuardrail(DualisError):
    """A Sylvester matrix would pass `exact.SYLVESTER_LIMIT` (64) rows: a
    resultant or frame of such degrees, a curve of degree 64 or more, or a
    dual equation whose dual would have degree 64 or more."""


class InvariantViolation(DualisError):
    """An internal exactness check failed; the result is refused, not trusted."""


# --- plane-curve layer ------------------------------------------------------

class ReducibleCurve(DualisError):
    """A repeated or shared component was detected."""


class IrrationalSingularity(DualisError):
    """The singular scheme has points outside the rational numbers."""


class NotSingular(DualisError):
    """The gradient does not vanish at the given point."""


class UnsupportedSingularity(DualisError):
    """Closed forms are only available for node/cusp singularities."""


class NotTransversal(DualisError):
    """A curve pair could not be certified as transversal."""


# --- dual-variety layer -----------------------------------------------------

class ChartExhausted(DualisError):
    """No chart yields the answer: the curve is a union of lines, so its dual
    is a finite set of points, or no frame certifies a distinct intersection
    count."""


class GuardrailExceeded(DualisError):
    """A desk-scale cap was exceeded before the work began: a dual report,
    biduality check or curve pair whose dual passes `exact.DUAL_DEGREE_CAP`
    (8), a package past charclass's caps, no prime that keeps the rational
    roots simple, or an integer in a result too long to print."""


class WitnessOnCurve(DualisError):
    """Polar witness point lies on the curve."""


class NonGenericWitness(DualisError):
    """Two deterministic witnesses disagree on the dual degree."""


# --- invariant-package layer ------------------------------------------------

class AmbientTooSmall(DualisError):
    """The flop identity requires ambient dimension n >= 2."""


class AmbientMismatch(DualisError):
    """Packages do not share the same ambient projective space."""


class UncertifiedTransversality(DualisError):
    """A package pair lacks a transversality certificate."""


class KOutOfRange(DualisError):
    """Slice index k outside 0 <= k <= codim(dual) - 1."""


class NonIntegralResult(DualisError):
    """An exactness check failed: the identity did not produce an integer."""


class InconsistentPackage(DualisError):
    """Invariant package violates its own structural constraints."""


class NoFailureFound(DualisError):
    """Dual-codimension scan found no inequality up to k = n."""


class ZeroCoefficient(DualisError):
    """The marked unknown does not actually occur in the identity."""


class Overdetermined(DualisError):
    """More than one field of the identity was marked unknown."""


class InvalidCounts(DualisError):
    """Singularity counts outside the nodal/cuspidal regime."""


class InvalidParams(DualisError):
    """Parameters outside the documented domain."""


# --- harness layer ----------------------------------------------------------

class SchemaError(DualisError):
    """A corpus or package file violates its JSON schema."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{message} (field: {field})")
        self.field = field


class MissingFile(DualisError):
    """A file referenced by a corpus case does not exist."""
