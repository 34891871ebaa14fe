"""Test-session settings shared by every tier-1 module.

Hypothesis draws the same examples on every run (a hash of each test picks
its seed), so tier-1 passes or fails the same way each time.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
