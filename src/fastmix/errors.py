"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class so that
the CLI can map classes to exit codes without string matching.
"""


class FastmixError(Exception):
    """Base class for all package-specific errors."""


class InputError(FastmixError):
    """Bad input: anything the user can fix by changing the arguments or the
    input file. The CLI exits with code 2 on these."""


# --- numerics ---------------------------------------------------------------

class InvalidInterval(InputError):
    """Quadrature interval is empty, reversed, or non-finite."""


class NonConvergence(FastmixError):
    """Adaptive refinement exhausted its budget above the requested tolerance."""


class ConvergenceFailure(FastmixError):
    """Eigensolver did not converge."""


class SeriesDivergence(FastmixError):
    """Hypergeometric series requested outside its disk of convergence."""


class PoleAtC(FastmixError):
    """Hypergeometric lower parameter hit a nonpositive integer."""


class NonPositiveValues(FastmixError):
    """Log-linear fit received values <= 0."""


class NumericalFailure(FastmixError):
    """A numeric routine produced non-finite intermediates."""


# --- distributions ----------------------------------------------------------

class ParamOutOfRange(InputError):
    """Distribution parameters violate the admissible region."""


class OutOfSupport(InputError):
    """Point lies outside the closed support."""


class MomentDivergence(FastmixError):
    """Requested moment does not exist for these parameters."""


class SupportMismatch(InputError):
    """Mixture components do not share a common support."""


class BadWeights(InputError):
    """Mixture weights are negative or do not sum to one."""


class NotNormalized(InputError):
    """Density failed the unit-mass check at construction."""


class SpecFileError(InputError):
    """Distribution spec file is malformed."""


# --- optimal ----------------------------------------------------------------

class DegenerateDistribution(FastmixError):
    """Second moment does not exceed the squared mean."""


# --- spectral ---------------------------------------------------------------

class GridTooCoarse(InputError):
    """Discretization grid has too few points."""


class ZeroDenominator(FastmixError):
    """Rayleigh quotient denominator vanished after re-centering."""


# --- sim --------------------------------------------------------------------

class BoundaryViolation(FastmixError):
    """Rejection sampling at a boundary exceeded its retry budget."""


class NonFiniteState(FastmixError):
    """Simulated state became NaN or infinite."""


class InsufficientDecay(FastmixError):
    """Autocorrelation never entered the fit window."""


# --- pearson ----------------------------------------------------------------

class BeyondDiscreteSpectrum(FastmixError):
    """Eigenfunction index exceeds the discrete part of the spectrum."""


class RowMismatch(FastmixError):
    """Catalog row disagrees with the synthesized process.

    Carries the verification report so callers can inspect the deviations.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
