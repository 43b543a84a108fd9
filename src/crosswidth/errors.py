"""The two bases of the package's exceptions.  Every exception raised on
purpose derives from exactly one, which sets the CLI's exit code; any
other exception is a defect."""

__all__ = ["InputError", "NumericalFailure"]


class InputError(Exception):
    """Invalid input (config, h, structure, an expression): the CLI prints
    the message and exits 2."""


class NumericalFailure(Exception):
    """A numerical method did not converge: the CLI prints ``Type:
    message`` and exits 3."""
