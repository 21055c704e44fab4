"""Micro-operation vocabulary of the trace-driven core model.

The simulator does not execute real binaries (see DESIGN.md substitution
S6); it consumes synthetic traces whose instructions are drawn from this
small micro-op vocabulary, which is sufficient to exercise every structure
the paper adapts (issue queues, integer/FP units, the memory hierarchy).
"""

from __future__ import annotations

from enum import IntEnum


class Uop(IntEnum):
    """Micro-op kinds.  Integer values index numpy arrays in the trace."""

    INT_ALU = 0
    INT_MUL = 1
    FP_ADD = 2
    FP_MUL = 3
    LOAD = 4
    STORE = 5
    BRANCH = 6


#: Execution latency in cycles (L1-hit latency for loads; misses add more).
BASE_LATENCY = {
    Uop.INT_ALU: 1,
    Uop.INT_MUL: 3,
    Uop.FP_ADD: 4,
    Uop.FP_MUL: 4,
    Uop.LOAD: 3,
    Uop.STORE: 1,
    Uop.BRANCH: 1,
}
