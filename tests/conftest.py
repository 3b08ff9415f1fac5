"""Hypothesis profiles of the test suite.

default   tier-1's: derandomized, so each run draws the same examples, and
          no example database, so no failure found once is replayed from
          .hypothesis/ on later runs.  A test's own @settings(max_examples=...)
          still sets its count.
explore   new random examples on every run, and 1000 for each test that
          sets no max_examples of its own; CI runs the hypothesis tests
          under it (pytest -m hypothesis --hypothesis-profile explore).
"""

from hypothesis import settings

settings.register_profile("default", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None, max_examples=1000)
settings.load_profile("default")
