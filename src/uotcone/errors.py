"""Exception taxonomy shared by the numerical modules and the CLI.

Every failure, numerical or of configuration, carries a short
machine-readable ``kind`` and a ``details`` dict so the CLI can emit a
structured JSON reason instead of a bare traceback.
"""

from __future__ import annotations


class UotconeError(Exception):
    """A failure with a ``kind`` and keyword ``details`` (``to_json``)."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details

    def to_json(self):
        return {"kind": self.kind, "message": str(self), **self.details}


class NumericsError(UotconeError):
    """Base class for numerical failures (CLI exit code 2)."""

    kind = "numerical"


class SymmetryError(NumericsError):
    kind = "asymmetric-matrix"


class SpdError(NumericsError):
    kind = "not-spd"


class MassError(NumericsError):
    kind = "nonpositive-mass"


class ApexCrossingError(NumericsError):
    kind = "apex-crossing"


class NonFiniteError(NumericsError):
    kind = "non-finite"


class PositivityError(NumericsError):
    kind = "positivity-loss"


class StepGuardError(NumericsError):
    kind = "dt-guard"


class SingularSystemError(NumericsError):
    kind = "singular-system"


class ShootingError(NumericsError):
    kind = "shooting-no-convergence"


class ContinuityError(NumericsError):
    kind = "continuity-violation"


class ConfigError(UotconeError):
    """Invalid run configuration (CLI exit code 1)."""

    kind = "config"
