"""Suite-wide defaults.

The cross-layer invariant sanitizer (``repro.sim.invariants``) is on for
every test by default: each System built during a test checks the eight
simsan invariants at its quiesce points.  Because the environment variable
is inherited by subprocesses, the CLI smoke tests' campaign runs are
sanitized too.  Individual tests that *need* it off (e.g. to construct a
deliberately broken machine) set ``system.sanitizer.enabled = False``.
"""

import os

os.environ.setdefault("REPRO_SANITIZE", "1")
