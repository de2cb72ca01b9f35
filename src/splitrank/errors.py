"""Exception hierarchy shared by all modules.

Every refusal is a typed, loud error; nothing is ever guessed silently.
The CLI maps these onto exit codes (see cli.py).
"""


class AlgebraError(Exception):
    """Base class for all library errors."""


class InvalidInput(AlgebraError):
    """Malformed descriptor, literal, or flag combination."""


class FieldMismatch(AlgebraError):
    """Operands belong to different fields."""


class DivisionByZero(AlgebraError):
    """Division or inversion by zero."""


class ZeroElement(AlgebraError):
    """Operation requires a nonzero element."""


class PrimeFieldHasNoRealPlaces(AlgebraError):
    """real_signs asked of a finite-field element."""


class DegenerateForm(AlgebraError):
    """Singular Gram matrix; carries a basis of the radical."""

    def __init__(self, message, radical=None):
        super().__init__(message)
        self.radical = radical or []


class UnsupportedField(AlgebraError):
    """Operation defined only over a different base field."""


class UnsupportedCase(AlgebraError):
    """Field/dimension combination outside the supported decision fragment."""


class UnsupportedExtension(UnsupportedCase):
    """Requested base change is not a supported field extension."""


class InputTooLarge(UnsupportedCase):
    """An integer past the range of proven primality, or a search past its budget."""


class SearchSpaceTooLarge(AlgebraError):
    """Bounded search would exceed the enumeration budget."""


class ZeroParameter(AlgebraError):
    """Cayley-Dickson doubling parameter is zero."""


class TooManyDoublings(AlgebraError):
    """Doubling past dimension 8 refused (composition law fails)."""


class AlgebraMismatch(AlgebraError):
    """Elements belong to different algebras."""


class NotPrimitiveIdempotent(AlgebraError):
    """Element is not a primitive idempotent."""


class UnsupportedIdempotent(AlgebraError):
    """Primitive idempotent that is not diagonal (E11, E22 or E33)."""


class NotOnTorus(AlgebraError):
    """Torus parameters do not satisfy a^2 - b^2 = 1."""


class SingularCayley(AlgebraError):
    """Cayley-transform sampling kept hitting singular I + S."""


class NotGammaOrthogonal(AlgebraError):
    """Matrix fails X^T Gamma X = Gamma or det X = 1."""


class NonNormalizableGamma(AlgebraError):
    """Gamma cannot be moved to (1,-1,1); raised only by the test oracle groups.normalize_gamma."""


class InternalCheckFailed(AlgebraError):
    """A structural self-check failed; indicates a bug, never user error."""
