"""The engine's two exception classes, one per non-usage CLI exit code.

``EngineError`` (exit 3) is input, a plan or a request that the engine
cannot serve: a malformed manifest or payload, an invalid plan or flag, an
oracle asked past its size guard. ``InternalInvariant`` (exit 4) is an
engine bug. Each message names what went wrong, including the entry, row or
layer involved, so the CLI reports ``str(e)`` without a traceback; a number
the input derives enters a message through ``number_text``.
"""

import sys


class EngineError(Exception):
    """Input, plan or request the engine cannot serve (exit code 3 at the CLI)."""


class InternalInvariant(Exception):
    """Engine bug: a postcondition the code itself guarantees was violated
    (exit code 4 at the CLI). Deliberately not an EngineError."""


def number_text(n: int) -> str:
    """``str(n)``, or where n has more digits than Python prints, a phrase
    that says so, so that the message holding it can still be formatted."""
    try:
        return str(n)
    except ValueError:
        return f"<more than {sys.get_int_max_str_digits()} digits>"


def refuse_beyond_address_space(names: str, count: int) -> None:
    """Out of memory for a float64 array beyond the address space, where numpy raises ValueError."""
    if 8 * count > sys.maxsize:
        raise EngineError(f"out of memory: {names}: a float64 array of {number_text(count)} elements "
                          "exceeds the address space")
