"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class ModmdError(Exception):
    """Base class for errors raised by this package."""


class PauliParseError(ModmdError, ValueError):
    """Malformed Pauli-sum text. Carries the 1-based offending line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        self.detail = message
        super().__init__(f"line {line_number}: {message}")


class ResourceCapError(ModmdError, RuntimeError):
    """A requested computation exceeds a hard size cap (qubits, shots, ...)."""


class DegenerateInputError(ModmdError, ValueError):
    """Input data carries no usable information (e.g. an all-zero matrix)."""


class EigenvalueShortfallError(ModmdError, RuntimeError):
    """Fewer eigenvalues survived filtering than were requested.

    Attributes
    ----------
    survivors : np.ndarray
        The eigenvalues that did survive, in descending phase order.
    energies : np.ndarray
        The energy estimates corresponding to ``survivors``.
    """

    def __init__(
        self,
        requested: int,
        survivors: np.ndarray,
        energies: np.ndarray,
        context: str = "",
    ):
        self.requested = requested
        self.survivors = survivors
        self.energies = energies
        self.context = context
        message = (
            f"requested {requested} eigenvalues but only {len(survivors)} "
            f"survived magnitude filtering"
        )
        if context:
            message += f" ({context})"
        super().__init__(message)


class ConfigError(ModmdError, ValueError):
    """Invalid or inconsistent experiment configuration."""
