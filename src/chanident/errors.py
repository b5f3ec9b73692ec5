"""Exception types shared across the package."""


class InsufficientSignalError(ValueError):
    """No usable signal content (all-zero input, or no correlation peak
    clears the significance floor)."""


class IdentifiabilityError(ValueError):
    """A least-squares system has fewer independent equations than unknowns."""


class InvalidSplitError(ValueError):
    """Dataset cannot be split as requested (e.g. no noiseless records)."""
