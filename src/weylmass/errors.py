"""Exception types shared across the package."""


class DegreeError(ValueError):
    """Form degree incompatible with the requested operation."""


class GaugeMismatchError(ValueError):
    """Weighted forms from different gauges combined without regauging."""


class JetError(ValueError):
    """Field evaluator that cannot take the derivative engine's Taylor seeds."""


class ChartDomainError(ValueError):
    """Point lies outside the chart (inside the excised ball)."""


class MassNotDefinedError(RuntimeError):
    """Decay preconditions for a mass integral failed; no value is reported."""


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""
