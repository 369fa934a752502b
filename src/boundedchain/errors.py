"""Exception hierarchy shared across the package.

Keeping these distinct lets the CLI map failures to exit codes without
string matching: usage and input problems exit 1, and consistency errors
are never caught. Running out of budget is not an exception: every
engine, the brute-force oracle included, returns ``resource_limit``.
"""


class BoundedChainError(Exception):
    """Base class for everything raised deliberately by this package."""


class UsageError(BoundedChainError):
    """An API or CLI call violated a precondition (bad algorithm, bad dim, ...)."""


class InputError(BoundedChainError):
    """A file or in-memory instance is malformed."""


class ConsistencyError(BoundedChainError):
    """Post-solve verification failed; indicates a bug, not bad input."""
