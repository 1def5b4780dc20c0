"""Error types and the value-record base shared by the whole package."""


class InputError(ValueError):
    """An argument or file violates a documented precondition."""


class FileFormatError(InputError):
    """A structured input file is malformed; message carries path and line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno
        self.reason = message


def _check_ints(values, what, lo=None, hi=None):
    """Raise InputError for the first of values that is not an int in lo..hi.

    values is a sequence; one value x is checked as (x,). A bound of None
    leaves that end open, and a bool counts as an int. what names a value:
    a string, or a function of its position in values. The loop calls
    nothing but isinstance until a value fails; only then is what called
    and the message built.
    """
    for x in values:
        if not isinstance(x, int) or lo is not None and x < lo or hi is not None and x > hi:
            if callable(what):  # a value that is x and comes earlier would have failed first
                what = what(next(i for i, y in enumerate(values) if y is x))
            if not isinstance(x, int):
                raise InputError(f"{what} {x!r} is not an integer")
            if hi is None:
                raise InputError(f"{what} {x} is below {lo}")
            if lo is None:
                raise InputError(f"{what} {x} is above {hi}")
            raise InputError(f"{what} {x} is outside {lo}..{hi}" + (", which is empty" if lo > hi else ""))


class _Record:
    """Immutable value record, rebuilt by its constructor from its fields.

    A record's fields are what _fields() returns, by default its __slots__
    in constructor order; its other slots, if any, follow from them. __init__
    sets each slot once; assignment and deletion then raise AttributeError.
    Records compare and hash by the values of _key (the fields unless a
    subclass narrows it), so a record hashes only when those values do: a
    VertexMap hashes, as its Graphs do, but an SlsCertificate holds a dict
    and does not. Records repr as Name(field=value, ...), and copy and
    pickle by calling the constructor with the fields again.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def _key(self):
        return self._fields()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()
