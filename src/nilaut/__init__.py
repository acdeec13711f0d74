"""Workbench for free nilpotent groups, their automorphisms, and the
integer-matrix machinery behind them, with a seeded verification harness."""

__version__ = "0.1.0"

from .errors import DomainError, InputError, InternalError, SearchExhausted  # noqa: F401
from .nilgroup import (  # noqa: F401
    FreeWord,
    GroupContext,
    GroupElement,
    collect,
    format_element,
    parse_element,
)
from .glz import IntMatrix, Sublattice  # noqa: F401
from .automorphisms import Endomorphism  # noqa: F401
from .harness import SuiteConfig, emit_report, run_suite  # noqa: F401
