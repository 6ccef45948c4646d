"""The hypothesis profiles a test run can choose.

``python3 -m pytest --hypothesis-profile no-shrink`` runs every property
test without the shrink phase: a failing test reports the first example
that fails, where shrinking it can take minutes on the multi-week streams
of ``test_dynamics.py``.  Useful when a run is expected to fail, as in a
mutation check.  Without the option the default profile applies, as
before.
"""

from hypothesis import Phase, settings

settings.register_profile("no-shrink", phases=[p for p in Phase if p is not Phase.shrink])
