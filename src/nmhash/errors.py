"""Exception types shared across the package."""


class NmhashError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(NmhashError, ValueError):
    """Invalid configuration value or combination."""


class DataFormatError(NmhashError, ValueError):
    """Malformed dataset file; message names the offending line."""


class CheckpointError(NmhashError, ValueError):
    """Checkpoint file is malformed, of another version, or for another dataset."""


class InvalidCodeError(NmhashError, ValueError):
    """A code matrix contains values outside the allowed alphabet."""
