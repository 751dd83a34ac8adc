"""Hypothesis profiles.  ``--hypothesis-profile=ci`` makes property tests
derandomized and deadline-free, so they cannot flake on a slow runner."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
