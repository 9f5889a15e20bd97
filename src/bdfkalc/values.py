"""Base classes for the package's values and its job record."""


class Record:
    """A subclass names its fields in ``_fields`` and sets them in ``__init__`` with ``_set``;
    equality (same class, equal fields), hash, repr and pickling read those fields."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """An immutable record: setting or deleting an attribute raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class HashedValue(Value):
    """A cache key on every call: ``_set`` stores its hash, so a parent reads a child's in one step."""

    __slots__ = ("_hash",)

    def _set(self, *values) -> None:
        super()._set(*values)
        object.__setattr__(self, "_hash", hash(values))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # field pairs on an explicit stack, so equal trees of any depth compare without recursion
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if isinstance(a, HashedValue):
                if a.__class__ is not b.__class__ or a._hash != b._hash:
                    return False
                stack.extend(zip(a._values(), b._values()))
            elif a.__class__ is tuple and b.__class__ is tuple and len(a) == len(b):
                stack.extend(zip(a, b))
            elif a != b:
                return False
        return True
