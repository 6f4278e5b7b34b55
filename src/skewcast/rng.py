"""Counter-based random streams built on numpy's Philox generator.

Every stream is addressed by (seed, stream, a, b): the pair (seed, stream)
forms the Philox key and (a, b) is placed in the upper counter words.  Two
distinct addresses never overlap, so draws are reproducible under any
parallel evaluation order and independent of how many draws other streams
have consumed.  ``reseat`` moves an existing generator to another (a, b)
of its key at less than half the cost of making a new one.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF


def keyed_stream(seed: int, stream: int, a: int = 0, b: int = 0) -> np.random.Generator:
    """Generator for the sub-stream addressed by (seed, stream, a, b)."""
    key = np.array([seed & _MASK, stream & _MASK], dtype=np.uint64)
    # counter word 0 is the free-running draw index
    counter = np.array([0, a & _MASK, b & _MASK, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def reseat(gen: np.random.Generator, a: int, b: int = 0) -> None:
    """Move ``gen``, made by ``keyed_stream(seed, stream, ...)``, to the start
    of sub-stream (a, b): it then draws exactly as
    ``keyed_stream(seed, stream, a, b)`` would."""
    state = gen.bit_generator.state
    state["state"]["counter"] = np.array([0, a & _MASK, b & _MASK, 0], dtype=np.uint64)
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)  # drop any buffered output
    gen.bit_generator.state = state
