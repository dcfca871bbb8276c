"""Exception vocabulary shared by every module.

All domain errors derive from :class:`CubemillError` so the CLI can map them to
exit codes uniformly: validation/property failures and failed internal guards
(:class:`InternalError`) exit 1, usage errors exit 2.
"""


class CubemillError(Exception):
    """Base class for every domain error raised by this package."""


class CellNotFound(CubemillError):
    """A cell id, vertex id, or named cell does not exist in the complex."""


class UnlabeledVertex(CubemillError):
    """A folding is missing a label for some vertex."""


class NotFoldable(CubemillError):
    """No folding exists, or a supplied folding is invalid.

    Carries the obstruction witness on ``args[1]`` when one is known.
    """


class UnsupportedDimension(CubemillError):
    """The operation is capped below the requested dimension."""


class NotAdmissible(CubemillError):
    """The complex fails the admissibility checks required by the operation."""


class Unsupported(CubemillError):
    """Honest refusal: the input is outside the theory this code implements."""


class NonSeparatingMirror(Unsupported):
    """A mirror does not separate its framings; crossings are undefined."""


class NotInTile(CubemillError):
    """The path does not stay inside a single dual tile, or a bridge leaves
    every tile that meets its mirror."""


class NotABridge(CubemillError):
    """The path is not a bridge for any mirror."""


class InternalError(CubemillError):
    """An internal consistency guard failed; a bug, never a verdict on valid input."""


class CarrierViolation(CubemillError):
    """Internal consistency breach in bridge projection; must never fire on valid input."""


class NoCrossing(CubemillError):
    """Surgery was requested on a loop that crosses no mirror."""


class FormatError(CubemillError):
    """A file or literal could not be parsed; carries a location diagnostic."""

    def __init__(self, message, line=None, field=None):
        super().__init__(message)
        self.line = line
        self.field = field

    def __str__(self):
        msg = self.args[0]
        where = []
        if self.line is not None:
            where.append(f"line {self.line}")
        if self.field is not None:
            where.append(f"field {self.field!r}")
        if where:
            return f"{msg} ({', '.join(where)})"
        return msg
