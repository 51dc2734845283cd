"""Exception types shared across the package."""


class RadactError(Exception):
    """Base class for all domain errors."""


class NotAssociative(RadactError):
    def __init__(self, x, y, z):
        self.witness = (x, y, z)
        super().__init__(f"(x*y)*z != x*(y*z) for x={x}, y={y}, z={z}")


class BadIdentity(RadactError):
    def __init__(self, x):
        self.witness = x
        super().__init__(f"claimed identity fails on element {x}")


class IdentityAxiom(RadactError):
    def __init__(self, a):
        self.witness = a
        super().__init__(f"1*a != a for carrier element {a}")


class AssocAxiom(RadactError):
    def __init__(self, t, s, a):
        self.witness = (t, s, a)
        super().__init__(f"t(sa) != (ts)a for t={t}, s={s}, a={a}")


class NotDisjoint(RadactError):
    pass


class ActMismatch(RadactError):
    pass


class SizeBound(RadactError):
    """Carrier too large for a full congruence-lattice enumeration."""


class BoundExceeded(RadactError):
    """No qualifying extension exists within the configured size bound."""


class NotRMono(RadactError):
    pass


class ModeUnavailable(RadactError):
    pass


class NotInUniverse(RadactError):
    pass


class UsageError(RadactError):
    """The caller asked for something that does not exist or cannot be
    built: an unknown theorem or radical, or inconsistent bounds."""


class UnknownTheorem(UsageError):
    pass


class ClassNotClosed(RadactError):
    """A claimed semisimple class fails one of its closure conditions."""

    def __init__(self, condition, witness):
        self.condition = condition
        self.witness = witness
        super().__init__(f"class oracle violates closure condition: {condition}")


class PostconditionError(RadactError):
    """A construction failed to satisfy one of its guaranteed properties."""


class ParseError(RadactError):
    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class CatalogValidationError(RadactError):
    """A catalog file parsed fine but the structure fails its axioms."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


# errors that mark a checker instance skipped, never verified or violated
BOUND_ERRORS = (SizeBound, BoundExceeded, NotInUniverse)
