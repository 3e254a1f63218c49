"""Registered value-level functions used by column-merging/splitting operators.

A registered function maps constant tuples to one constant.  It may carry a
partial inverse that recovers the *first* argument from the output plus the
remaining arguments; when present, ``invert_first(f(x, y), y) == x`` must hold
on every input the function accepts.

Built-ins:

``dec_add``
    Exact decimal/integer addition; integer result only when both inputs are
    integers.  Inverse is exact subtraction, so round-trips are guaranteed for
    same-kind inputs (an integer first argument paired with a decimal second
    yields a decimal sum whose inversion is the decimal rendering of x).
``concat_pipe``
    Text concatenation with a ``|`` separator; inverse strips the known
    suffix.
``split_pipe_head`` / ``split_pipe_tail``
    The two halves of a value around its first ``|``; recombining with
    ``concat_pipe`` restores the original.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

from .errors import ChaseError, ValidationError
from .model import Constant, DECIMAL, INTEGER, const


@dataclass(frozen=True)
class RegisteredFunction:
    name: str
    arity: int
    apply: Callable[..., Constant]
    invert_first: Callable[..., Constant] | None = None


class FunctionRegistry:
    def __init__(self):
        self._functions: dict[str, RegisteredFunction] = {}

    def register(self, fn: RegisteredFunction) -> None:
        if fn.name in self._functions:
            raise ValidationError(f"function {fn.name!r} already registered")
        self._functions[fn.name] = fn

    def get(self, name: str) -> RegisteredFunction:
        if name not in self._functions:
            raise ChaseError(f"function {name!r} is not registered")
        return self._functions[name]

    def has(self, name: str) -> bool:
        return name in self._functions

    def has_inverse(self, name: str) -> bool:
        return name in self._functions and self._functions[name].invert_first is not None

    def call(self, name: str, args: tuple[Constant, ...]) -> Constant:
        fn = self.get(name)
        if len(args) != fn.arity:
            raise ChaseError(
                f"function {name!r} expects {fn.arity} arguments, got {len(args)}"
            )
        return fn.apply(*args)

    def call_inverse(self, name: str, output: Constant,
                     rest: tuple[Constant, ...]) -> Constant:
        fn = self.get(name)
        if fn.invert_first is None:
            raise ChaseError(f"function {name!r} has no registered inverse")
        if len(rest) != fn.arity - 1:
            raise ChaseError(
                f"inverse of {name!r} expects {fn.arity - 1} known arguments"
            )
        return fn.invert_first(output, *rest)


# ---------------------------------------------------------------------------
# exact decimal arithmetic over canonical lexical forms


def _require_numeric(fn: str, value: Constant) -> None:
    if value.kind not in (INTEGER, DECIMAL):
        raise ChaseError(f"{fn} expects numeric arguments, got {value.lexical!r}")


def _scaled(value: Constant) -> tuple[int, int]:
    if value.kind == INTEGER:
        return int(value.lexical), 0
    whole, frac = value.lexical.split(".")
    scale = len(frac)
    sign = -1 if whole.startswith("-") else 1
    magnitude = int(whole.lstrip("-")) * 10**scale + int(frac)
    return sign * magnitude, scale


def _render(unscaled: int, scale: int, decimal: bool) -> Constant:
    while scale > 0 and unscaled % 10 == 0:
        unscaled //= 10
        scale -= 1
    sign = "-" if unscaled < 0 else ""
    try:
        digits = str(abs(unscaled))
    except ValueError:  # more digits than str() converts
        raise ChaseError(
            f"dec_add result has more than {sys.get_int_max_str_digits()} "
            f"digits") from None
    if not decimal and scale == 0:
        return const(sign + digits)
    if scale == 0:
        digits += "0"
        scale = 1
    digits = digits.rjust(scale + 1, "0")
    return const(f"{sign}{digits[:-scale]}.{digits[-scale:]}")


def _dec_add(a: Constant, b: Constant) -> Constant:
    _require_numeric("dec_add", a)
    _require_numeric("dec_add", b)
    ua, sa = _scaled(a)
    ub, sb = _scaled(b)
    scale = max(sa, sb)
    total = ua * 10 ** (scale - sa) + ub * 10 ** (scale - sb)
    return _render(total, scale, decimal=(a.kind == DECIMAL or b.kind == DECIMAL))


def _dec_sub_first(output: Constant, second: Constant) -> Constant:
    _require_numeric("dec_add", output)
    _require_numeric("dec_add", second)
    uo, so = _scaled(output)
    ub, sb = _scaled(second)
    scale = max(so, sb)
    diff = uo * 10 ** (scale - so) - ub * 10 ** (scale - sb)
    return _render(diff, scale, decimal=(output.kind == DECIMAL or second.kind == DECIMAL))


SEPARATOR = "|"


def _concat_pipe(a: Constant, b: Constant) -> Constant:
    return const(a.lexical + SEPARATOR + b.lexical)


def _concat_pipe_invert(output: Constant, second: Constant) -> Constant:
    suffix = SEPARATOR + second.lexical
    if not output.lexical.endswith(suffix):
        raise ChaseError(
            f"cannot invert concat_pipe: {output.lexical!r} does not end "
            f"with {suffix!r}"
        )
    return const(output.lexical[: -len(suffix)])


def _split_at_pipe(value: Constant) -> tuple[str, str]:
    if SEPARATOR not in value.lexical:
        raise ChaseError(
            f"split functions need a {SEPARATOR!r} in the value, got {value.lexical!r}"
        )
    head, _, tail = value.lexical.partition(SEPARATOR)
    return head, tail


def _split_head(value: Constant) -> Constant:
    return const(_split_at_pipe(value)[0])


def _split_tail(value: Constant) -> Constant:
    return const(_split_at_pipe(value)[1])


def default_registry() -> FunctionRegistry:
    reg = FunctionRegistry()
    reg.register(RegisteredFunction("dec_add", 2, _dec_add, _dec_sub_first))
    reg.register(RegisteredFunction("concat_pipe", 2, _concat_pipe, _concat_pipe_invert))
    reg.register(RegisteredFunction("split_pipe_head", 1, _split_head))
    reg.register(RegisteredFunction("split_pipe_tail", 1, _split_tail))
    return reg
