"""The base of the package's immutable value classes.

A subclass lists its fields in ``__slots__``, in the order of its
constructor's parameters, and sets them in its own ``__init__`` through
``object.__setattr__``.  The base gives it equality between objects of the
same class with equal fields, the hash of the field tuple, a
``Name(field=value, ...)`` repr, ``AttributeError`` on assigning or deleting
an attribute, and a ``__reduce__`` that rebuilds an object through its
constructor, so that ``pickle``, ``copy`` and ``deepcopy`` work.
"""


class Value:
    __slots__ = ()

    def _field_values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values())

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (self.__class__.__qualname__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return self.__class__, self._field_values()
