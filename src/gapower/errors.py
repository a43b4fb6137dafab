"""Exception types shared across the package."""


class PowerAnalysisError(ValueError):
    """Base class for domain errors raised by this package."""


class LayoutError(PowerAnalysisError):
    """A harmonic order has no slot in the basis layout, or layouts disagree."""


class SchemaError(PowerAnalysisError):
    """An input document does not follow the expected JSON/CSV shape."""


class CircuitError(PowerAnalysisError):
    """The circuit cannot be solved for the requested excitation."""


class WaveformError(PowerAnalysisError):
    """Sampled data is malformed or unsuitable for spectral extraction."""
