"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` (the CLI prints a
single ``error:<code>: message`` line) and an ``exit_code``: 2 for usage
mistakes, 3 for data or validation problems, 4 for computation problems.
A count (N, n, a sample size, a stratum index) that is not an integer
raises the plain ``ValidationError``.  Stratum weights are always N_h / N,
so none can fail.  The design types raise these when they are built, and
``InfeasibleMoments`` only marks a synthesis that cannot draw a stratum.
"""


class StratmeanError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"
    exit_code = 4


class UsageError(StratmeanError):
    """The command-line flags contradict each other or are incomplete."""

    code = "usage"
    exit_code = 2


class ValidationError(StratmeanError):
    """A design, stratum, or ingested file violates an invariant."""

    code = "validation"
    exit_code = 3


class NonPositiveCount(ValidationError):
    code = "non-positive-count"


class SampleExceedsStratum(ValidationError):
    code = "sample-exceeds-stratum"


class CorrelationOutOfRange(ValidationError):
    code = "correlation-out-of-range"


class DegenerateStratum(ValidationError):
    code = "degenerate-stratum"


class InfeasibleMoments(ValidationError):
    code = "infeasible-moments"


class ParseError(ValidationError):
    code = "parse"


class SchemaError(ValidationError):
    code = "schema"


class UnknownDataset(ValidationError):
    code = "unknown-dataset"


class ZeroAuxiliaryMean(StratmeanError):
    code = "zero-auxiliary-mean"


class ZeroDenominator(StratmeanError):
    code = "zero-denominator"


class NonPositiveBase(StratmeanError):
    code = "non-positive-base"


class ZeroMse(StratmeanError):
    code = "zero-mse"


class ComputationError(StratmeanError):
    """Floating-point arithmetic failed, e.g. an optimal constant overflowed."""

    code = "computation"
