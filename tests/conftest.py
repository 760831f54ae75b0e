"""Shared test settings: Hypothesis draws the same examples on every run.

The profile derives each test's examples from the test itself
(``derandomize``) and keeps no example database, so a failure found once is
found again by the same command.
"""

from hypothesis import settings

settings.register_profile("pinned", derandomize=True, database=None)
settings.load_profile("pinned")
