"""Reversible wrapping of the program's public callables, from outside.

A function is replaced in every ``abas`` module that binds it, so names
imported with ``from .x import f`` are wrapped too. ``Patches`` undoes its
replacements in reverse order when its ``with`` block ends, which lets
wrappers stack and come off cleanly.
"""

from __future__ import annotations

import sys


class Patches:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, name: str, make):
        orig = getattr(module, name)
        new = make(orig)
        for mod in list(sys.modules.values()):
            if mod is None or not mod.__name__.startswith("abas"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def method(self, cls, name: str, make):
        orig = cls.__dict__[name]
        setattr(cls, name, make(orig))
        self._undo.append((cls, name, orig))

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
