"""Force one operator path over a compiled plan, from the test side.

Production picks row / batch / fused execution from the input alone
(``physical._batch_mode`` / ``physical._fuse_mode``).  The parity suites
need every path over the *same* plan and inputs, so they patch those two
functions for the duration of a block.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.algebra import physical

# mode -> (answer of _batch_mode, answer of _fuse_mode).  "row" is the
# differential oracle; "batch" runs whole-column kernels but still
# materializes a relation at every operator boundary; "fused" runs eligible
# scan/join→select→project chains as one kernel.
_FORCED = {
    "row": (False, False),
    "batch": (True, False),
    "fused": (True, True),
}
MODES = tuple(_FORCED)


@contextmanager
def execution_mode(mode: str):
    """Run the block with every operator on its ``mode`` path."""
    batch, fuse = _FORCED[mode]
    with mock.patch.object(
        physical, "_batch_mode", lambda input_rows: batch
    ), mock.patch.object(physical, "_fuse_mode", lambda op: fuse):
        yield
