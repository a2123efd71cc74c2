"""Hypothesis profiles.

Local runs draw fresh examples.  CI runs pass ``--hypothesis-profile=ci``,
which derives examples from each test's name, so a property failure in CI
replays locally with the same flag.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
