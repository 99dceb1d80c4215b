"""Typed failures shared across the package.

Precondition violations are ValueError subclasses and map to CLI exit 2.
A failed internal cross-check (two independent routes to the same quantity
disagreeing) raises InternalCheckError and maps to CLI exit 3.
"""


class NoCycleFactorError(ValueError):
    """The graph admits no cycle-factor at all."""


class NotRegularError(ValueError):
    """A d-regularity precondition failed."""


class IndivisibleOrderError(ValueError):
    """The clique benchmark needs d to divide the vertex count."""


class GenerationError(RuntimeError):
    """No random graph could be drawn.

    The package's sampler always completes a draw, so nothing in it raises
    this; it stays public for callers and samplers of their own, and the
    CLI maps it to exit 2.
    """


class InternalCheckError(RuntimeError):
    """Internal consistency check failed; indicates a bug, never bad input."""
