"""Exception taxonomy shared by all modules.

InputError: malformed or mismatched arguments (wrong context, bad index,
    out-of-range parameter).
DomainError: arguments are well-formed but violate a mathematical
    precondition (not an automorphism, not an involution, central matrix).
SearchExhausted: a bounded search that is expected to succeed ran out of
    budget; callers treat this as an internal/contradiction flag, not as
    a negative verdict.
InternalError: an internal invariant failed; a defect of the package,
    never a verdict.  It is raised explicitly, so unlike a bare `assert` it
    survives `python -O`, and it subclasses AssertionError so callers that
    catch assertion failures keep catching it.
"""


class InputError(ValueError):
    pass


class DomainError(ValueError):
    pass


class SearchExhausted(RuntimeError):
    pass


class InternalError(AssertionError):
    pass
