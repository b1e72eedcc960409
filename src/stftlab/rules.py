"""Rules for the values the lab reads from outside.

A rule checks one value, its JSON type and the range where the quantity
means what its name says, and refuses it with a ValueError that names the
field: `params.trials`, `fixture.counts[1]`, `assertions[0].args.lhs`. The
same rules check the numeric flags and STFTLAB_THREADS, the --config patch,
the registered manifests, the Cheeger sweep and a stored run's summary.json.
check converts nothing, since a manifest is written into summary.json as
given; called on a flag's text, a numeric rule is an argparse type.

The module imports the standard library alone, so that the command line
can check STFTLAB_THREADS before the numerical libraries load.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


class Refused(ValueError, argparse.ArgumentTypeError):
    """A value outside its rule: a ValueError to Python callers, and to
    argparse a bad flag value, which it reports under the flag's name."""


def _refuse(name: str, want: str, value):
    raise Refused(f"{name} must be {want}, got "
                  f"{json.dumps(value, default=repr)}")


def _at(name: str, key) -> str:
    return f"{name}.{key}" if name else str(key)


class Number:
    """A finite number, or an integer, in [lo, hi), or in (lo, hi) if open;
    if infinite, +inf as well."""

    def __init__(self, lo=-math.inf, hi=math.inf, open=False, integer=False,
                 infinite=False):
        self.lo, self.hi, self.open = lo, hi, open
        self.integer, self.infinite = integer, infinite
        want = "an integer" if integer else "a finite number"
        if hi < math.inf:
            want += f" in {'(' if open else '['}{lo}, {hi})"
        elif lo > -math.inf:
            want += f" {'>' if open else '>='} {lo}"
        self.want = want + (" or inf" if infinite else "")

    def check(self, name: str, value) -> None:
        if self.infinite and value == math.inf:
            return
        if not ((type(value) is int if self.integer else type(value) in (
                int, float) and abs(value) <= sys.float_info.max)
                and (self.lo < value if self.open else self.lo <= value)
                and value < self.hi):
            _refuse(name, self.want, value)

    def __call__(self, text, name: str = "value"):
        """The number that text spells, once it passes the rule. text is a
        flag's or an environment variable's text; a rule of finite numbers
        also takes any number that float() reads."""
        try:
            value = (int if self.integer else float)(text)
        except ValueError:
            value = text
        self.check(name, value)
        return value


class List:
    """A non-empty array of item, or if pair an [lo, hi] pair, lo <= hi."""

    def __init__(self, item, pair=False):
        self.item, self.pair = item, pair

    def check(self, name: str, value) -> None:
        want = "a pair [lo, hi], lo <= hi" if self.pair else \
            "a non-empty array"
        if type(value) is not list or not value or (
                self.pair and len(value) != 2):
            _refuse(name, want, value)
        for i, item in enumerate(value):
            self.item.check(f"{name}[{i}]", item)
        if self.pair and value[0] > value[1]:
            _refuse(name, want, value)


class Accepted:
    """A string, a boolean, an integer or an object, which accept, if
    given, takes without a ValueError."""

    _WANT = {str: "a string", bool: "a boolean", int: "an integer",
             dict: "an object"}

    def __init__(self, kind: type, accept=lambda value: None):
        self.kind, self.accept = kind, accept

    def check(self, name: str, value) -> None:
        if type(value) is not self.kind:
            _refuse(name, self._WANT[self.kind], value)
        try:
            self.accept(value)
        except ValueError as e:
            raise Refused(f"{name}: {e}") from None


class Keyed:
    """An object that holds each required key and no key that is neither
    required nor optional, each value passing its key's rule."""

    def __init__(self, required: dict, optional: dict | None = None):
        self.required = required
        self.fields = {**required, **(optional or {})}

    def check(self, name: str, value) -> None:
        if type(value) is not dict:
            _refuse(name, "an object", value)
        for key in value:
            if key not in self.fields:
                raise Refused(f"{_at(name, key)} is unknown (known: "
                              f"{', '.join(self.fields)})")
        for key, rule in self.fields.items():
            if key in value:
                rule.check(_at(name, key), value[key])
            elif key in self.required:
                raise Refused(f"{_at(name, key)} is missing")


POSITIVE = Number(0, open=True)
REAL = Number()
MAGNITUDE = Number(0.0)
FRACTION = Number(0, 1, open=True)
COUNT = Number(1, integer=True)
SIZE = Number(0, integer=True)
GRID_COUNT = Number(8, integer=True)  # make_grid adds: even, <= MAX_COUNT
EXPONENT = Number(1.0, infinite=True)  # a Lebesgue exponent
SEED = Number(0, 2 ** 64, integer=True)
CONSTANT = Number(0, infinite=True)  # a stability constant: inf if unbounded
STRING = Accepted(str)
BOOLEAN = Accepted(bool)
OBJECT = Accepted(dict)
