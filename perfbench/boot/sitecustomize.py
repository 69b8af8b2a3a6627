"""Bootstrap of traced replica processes.

The benchmark puts this directory on the replica processes' ``PYTHONPATH``
only for a traced run (``--trace 1``), and names a span directory in
``PERFBENCH_SPANS``.  Python imports ``sitecustomize`` at start-up, before
the replica's own code, so every replica of the same topology as the
untraced run is armed: SIGUSR1 installs the span wrappers and starts
recording, SIGUSR2 stops, and the spans are written at exit.
"""

import os

_SPANS = os.environ.get("PERFBENCH_SPANS")
if _SPANS:
    import pbtrace

    pbtrace.child_bootstrap(_SPANS)
