"""Exception types shared across the package."""


class SpecmaskError(Exception):
    """Base class for all package-specific errors."""


class FormatError(SpecmaskError):
    """Input does not conform to its format (WAV, SPFX, mask sidecar, policy string)."""


class UnsupportedFormatError(FormatError):
    """A file is well-formed but uses an encoding this package does not handle."""


class ConfigError(SpecmaskError, ValueError):
    """A configuration value violates its documented constraints; a kind of ValueError."""


class ManifestError(SpecmaskError):
    """A manifest line is malformed or a record violates manifest invariants."""


class EmptyInputError(SpecmaskError):
    """An operation that requires at least one frame/sample received none."""


class MaskBoundsError(SpecmaskError):
    """A mask interval extends outside the feature matrix it is applied to."""


class DivergenceError(SpecmaskError):
    """Training aborted because the loss became NaN or infinite."""
