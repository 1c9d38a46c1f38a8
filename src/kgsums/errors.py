"""Exception types shared across the package.

Each exception carries a short machine-readable ``category`` string and the
CLI's ``exit_code`` for it; the CLI emits the category as JSON on stderr and
exits with the code.
"""


class KgsumsError(Exception):
    category, exit_code = "error", 1


class NotAUnit(KgsumsError, ValueError):
    """A residue is not invertible for the given modulus."""

    category, exit_code = "not_a_unit", 2

    def __init__(self, x: int, q: int, gcd: int):
        super().__init__(f"{x} is not a unit modulo {q}: gcd({x}, {q}) = {gcd}")
        self.x = x
        self.q = q
        self.gcd = gcd


class DomainRestriction(KgsumsError, ValueError):
    """Input lies outside the domain where the operation is defined."""

    category, exit_code = "domain_restriction", 2


class InvalidWeight(KgsumsError, ValueError):
    """Weight vector keyed by a residue or character it must not contain."""

    category, exit_code = "invalid_weight", 2


class ModulusMismatch(KgsumsError, ValueError):
    """Two objects that must share a modulus do not."""

    category, exit_code = "modulus_mismatch", 2


class ResourceLimit(KgsumsError, RuntimeError):
    """An exact enumeration would exceed its documented cap."""

    category, exit_code = "resource_limit", 3


class ConfigError(KgsumsError, ValueError):
    """Malformed run-plan configuration."""

    category, exit_code = "config_error", 2


class VerificationError(KgsumsError, RuntimeError):
    """Two evaluation paths disagree beyond their combined error budget."""

    category, exit_code = "verification_failed", 5
