"""Exception types shared across the package."""


class GfragError(Exception):
    """Base class for all package errors."""


class InvalidModelError(GfragError, ValueError):
    """A model definition violates a structural requirement."""


class InvalidInputError(GfragError, ValueError):
    """An operation received arguments outside its contract."""


class DivergentNormError(GfragError, ValueError):
    """A requested norm or supremum is infinite."""


class LambdaOutOfRangeError(GfragError, ValueError):
    """Resolvent shift below the validity threshold of the machinery."""


class SeriesDivergenceError(GfragError, RuntimeError):
    """Perturbation series increments stopped contracting."""


class ConvergenceError(GfragError, RuntimeError):
    """An iteration exhausted its budget without converging."""


class DegenerateModelError(GfragError, ValueError):
    """Model parameters collapse a formula (repeated roots, zero data)."""


class MissingTailError(GfragError, ValueError):
    """Support metadata leaves behaviour at infinity undeclared."""


class SupportConsistencyError(GfragError, RuntimeError):
    """Internal consistency check of the support calculus failed."""


class StepSizeError(GfragError, ValueError):
    """Requested time stepping violates the stability constraint."""


class NonFiniteOutputError(GfragError, RuntimeError):
    """A computed output holds NaN or an infinity."""


class DiscretizationWarning(UserWarning):
    """A computed quantity shows grid artifacts (for example, small
    negative components of a function known to be nonnegative)."""
