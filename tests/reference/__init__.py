"""Pointwise reference implementations that the library's array code is
tested against.  Nothing under ``src/`` imports from here."""
