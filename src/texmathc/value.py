"""`Value`, the base of the package's value classes."""


class Value:
    """Instances compare, hash, print and pickle by the fields `__slots__`
    names (less an instance `__dict__`); assigning or deleting one raises.

    A subclass gets an `__init__` that takes the fields in order, defaults
    given as class keywords, and stores each (through its slot, unless the
    class allows assignment) in a statement of its own, as by hand: on
    CPython 3.11 a loop over the fields builds a value in 1.7 times the time.
    Then it calls `__post_init__` if the class has one.  `==` walks nested
    values, tuples and lists on a stack: deep trees compare from any depth,
    and a tuple equals a list of equal items.  A value is its own copy, as a
    tuple of immutables is, so `copy.deepcopy` of a deep tree does not recurse.
    """

    __slots__ = ()

    def __init_subclass__(cls, **defaults):
        cls._fields = fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        scope = {"_defaults": defaults, **{f"_set_{n}": getattr(cls, n).__set__ for n in fields}}
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in fields)
        mutable = cls.__setattr__ is object.__setattr__
        body = [f"self.{n} = {n}" if mutable else f"_set_{n}(self, {n})" for n in fields]
        body += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
        exec(f"def __init__(self, {params}):\n    " + "\n    ".join(body), scope)
        cls.__init__ = scope["__init__"]

    def _key(self) -> tuple:  # what `==` and `hash` read: every field, in order
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if isinstance(a, Value) and type(b) is type(a):
                stack.extend(zip(a._key(), b._key()))
            elif type(a) in (tuple, list) and type(b) in (tuple, list):
                if len(a) != len(b):
                    return False
                stack.extend(zip(a, b))
            elif a != b:
                return False
        return True

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = []
        for name in self._fields:  # a loop, not a generator: one frame per nested value
            fields.append(f"{name}={getattr(self, name)!r}")
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):  # rebuilt by `__init__`, which checks the fields
        return type(self), Value._key(self)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
