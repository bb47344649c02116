"""The cyclic collector, paused around bulk builds and loads."""

import contextlib
import gc


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic collector: a load makes no cyclic garbage, so a
    pass would only rescan live objects. If it was on, the exit moves
    the new objects to the oldest generation (else the first query
    rescans them), by ``freeze`` then ``unfreeze`` with no pass, or by
    one generation-1 pass if ``unfreeze`` would thaw what a caller froze."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if gc.get_freeze_count():
            gc.collect(1)
        else:
            gc.freeze()
            gc.unfreeze()
        gc.enable()
