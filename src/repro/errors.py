"""Exception hierarchy shared across the repro packages."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """Invalid replication/service configuration (e.g. n < 3f + 1)."""


class StateTransferError(ReproError):
    """State transfer could not complete or fetched objects failed digest checks."""


class ServiceError(ReproError):
    """A wrapped service implementation returned an unexpected failure."""


class EncodingError(ReproError):
    """XDR encoding or decoding failed."""
