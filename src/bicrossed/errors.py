"""Exception taxonomy shared across the package.

The CLI maps these onto its exit codes: ConfigError is a usage problem
(exit 2), VerificationFailure carries witnesses (exit 1),
InternalInconsistencyError flags impossible states such as a non-integer
fusion multiplicity (exit 3).
"""

from __future__ import annotations


class BicrossedError(Exception):
    """Base class for package errors."""


class ConfigError(BicrossedError):
    """Invalid configuration or input data."""


class VerificationFailure(BicrossedError):
    """An axiom check failed; holds the structured witness payload."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalInconsistencyError(BicrossedError):
    """A postcondition that exact arithmetic guarantees was violated."""
