"""Shared exception types."""


class BudgetExceededError(Exception):
    """A requested construction exceeds a configured resource budget.

    Raised before any large allocation happens; the message carries the
    size estimate that tripped the budget.
    """


def size_str(n: int) -> str:
    """A size for a refusal message: decimal up to 64 bits, past that the
    power of two it reaches, so the line stays short and never meets the
    int-to-str digit limit."""
    return str(n) if n.bit_length() <= 64 else f"2^{n.bit_length() - 1} or more"
