"""Executable references for optimised code paths.

Each module keeps the straightforward implementation that a shipped
fast path replaced.  The equivalence tests require the fast path to
reproduce it exactly: same outputs and, where an RNG is involved, the
same draws.  The references live with the tests, not in the package.
"""
