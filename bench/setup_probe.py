"""Load planeot and build instances in a fresh process; print when ready.

Usage: python3 setup_probe.py SPEC...  with SPEC ``preset:<name>:<n>`` or
``files:<p path>:<q path>``. The last line printed is ``time.monotonic()``
once every instance is built, so the caller can time the set-up from the
moment it started this process. Thread settings come from the environment.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import planeot.cli  # noqa: E402,F401  (the CLI imports the whole package)
from planeot.cost import build_instance  # noqa: E402
from planeot.grids import Density2D, Grid1D  # noqa: E402
from planeot.io import read_density  # noqa: E402
from planeot.presets import build_preset  # noqa: E402

for spec in sys.argv[1:]:
    kind, a, b = spec.split(":")
    if kind == "preset":
        f, f_tilde = build_preset(a, int(b), int(b))
    else:
        f, q = read_density(a), read_density(b)
        f_tilde = Density2D(
            Grid1D(q.gx.lo + 1.0, q.gx.hi + 1.0, q.gx.n),
            Grid1D(q.gy.lo + 1.0, q.gy.hi + 1.0, q.gy.n),
            q.values,
        )
    build_instance(f, f_tilde)
print(repr(time.monotonic()))
