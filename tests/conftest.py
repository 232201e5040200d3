"""The hypothesis settings profile of a run.

HYPOTHESIS_PROFILE=ci loads a derandomized profile, so that every CI run
draws the same examples; unset, hypothesis keeps its defaults.  The
suite still collects without hypothesis installed."""

import os

try:
    from hypothesis import settings
except ImportError:  # only the modules that import hypothesis fail
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
