"""One frozen-record base for the package's value classes.

A subclass names its fields in `_fields`, in constructor order, and its
explicit `__init__` validates the arguments and writes each field into
`self.__dict__`. The base supplies what a frozen dataclass would:
equality between records of the same class, a hash over the fields,
`Name(field=value, ...)` as repr, and refusal of attribute assignment
and deletion. It does so without importing `dataclasses`, which would
pull `inspect`, `ast` and `dis` into every `import rbpa`. The
constructors stay explicit because records are built on hot paths (a
cached `p_egf` call builds a `SequenceTable`), where one generic
keyword-binding `__init__` nearly doubled the cost of that call.

Instances keep a plain `__dict__`, so `pickle` and `copy` restore them
without calling `__setattr__`, and `object.__setattr__` can still
rebind a field deliberately.
"""

from __future__ import annotations


class FrozenRecord:
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
