"""Exception types shared across the package."""


class MiconicError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MiconicError):
    """A vector or matrix does not conform to the expected dimensions."""


class NotInterior(MiconicError):
    """Barrier evaluation was requested at a point outside the cone interior."""


class NotDcp(MiconicError):
    """The model failed convexity verification and cannot be compiled."""


class UnboundedInteger(MiconicError):
    """An integer variable lacks a finite lower or upper bound."""


class NumericFailure(MiconicError):
    """A numerical routine lost too much precision to continue."""


class InvalidCut(MiconicError):
    """A proposed cut vector is not a member of the dual cone."""


class TooLarge(MiconicError):
    """The integer grid exceeds the enumeration budget."""


class ModelSyntaxError(MiconicError):
    """Malformed model text. Carries the 1-based line and column."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = "line %d, col %d: %s" % (line, col, message)
        super().__init__(message)


class UnknownAtomError(ModelSyntaxError):
    """Model text applies an atom the library does not define."""


class ArityError(ModelSyntaxError):
    """An atom was applied to the wrong number of arguments."""


class FormatError(MiconicError):
    """Malformed conic program file. Carries the section and line number."""

    def __init__(self, message, section=None, line=None):
        self.section = section
        self.line = line
        where = ""
        if section is not None:
            where += "section %s" % section
        if line is not None:
            where += (", " if where else "") + "line %d" % line
        if where:
            message = "%s: %s" % (where, message)
        super().__init__(message)
