"""Record: the one base of dllab's identity records.

A record with an identity (`algebra.RingParams`, `dlgraph.DLVertex`,
`group.GroupElement`, the `qilab` map primitives, ...) names its fields in
a class attribute `_fields`, the NamedTuple name for the same thing, and
sets them once in its own `__init__`, which also holds its signature,
defaults and checks. Record gives every such class the rest:

- setting or deleting a field raises AttributeError;
- a record equals only a record of its own class with equal fields, never
  a tuple or a NamedTuple of the same name and fields;
- its hash and repr are those of its field tuple, as for a frozen
  dataclass;
- copy, deepcopy and pickle rebuild it through its class, so its
  `__init__` checks run again.

The records are not dataclasses: importing `dataclasses` pulls in
`inspect`, and generating each record's methods at import time would slow
every command's start-up. Nor are they NamedTuples, which compare equal to
plain tuples. Result records, which are never hashed or compared with a
tuple, are NamedTuples.
"""


class Record:
    __slots__ = ()
    _fields: "tuple[str, ...]" = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._values())
