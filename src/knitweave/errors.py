"""Exception hierarchy shared by all knitweave modules, and the int check
that raises one."""


class KnitweaveError(Exception):
    """Base class for every error raised by this package."""


class InputError(KnitweaveError):
    """Arguments violate a documented precondition (bad vertex, bad sizes, ...)."""


class ResourceError(KnitweaveError):
    """The request exceeds a documented feasibility envelope."""


class Graph6Error(InputError):
    """Malformed graph6 text; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class PreconditionError(InputError):
    """A structured precondition failed; ``clause`` names which one."""

    def __init__(self, clause: str, message: str):
        super().__init__(f"[{clause}] {message}")
        self.clause = clause


def check_ints(**values) -> None:
    """Raise InputError naming the first argument that is not an int; a bool
    or a float equal to an int is not one."""
    for name, x in values.items():
        if type(x) is not int:
            raise InputError(f"{name} must be an int, not {x!r}")
