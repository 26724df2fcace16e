"""Hypothesis profiles for the test suite.

Tier-1 replays a fixed set of examples in the parser fuzz test, the CSV
writer's and the loaders' differential tests and the step loop's reference
tests; ``pytest --hypothesis-profile fuzz`` draws fresh ones there instead,
1000 per run.  ``traced_peak`` measures what a call allocates at its peak.
"""

import tracemalloc

from hypothesis import settings

settings.register_profile("fuzz", max_examples=1000, deadline=None)


def fixed_or_fresh(max_examples: int) -> settings:
    """Settings for a fuzz or reference test: in tier-1, ``max_examples``
    examples derived from the test itself, the same on every run; under the
    fuzz profile, the profile's fresh ones.

    Call it where the test is decorated.  Pytest imports this module before
    it loads the profile, so a flag computed here would always read False.
    """
    if settings.get_current_profile_name() == "fuzz":
        return settings(deadline=None)
    return settings(max_examples=max_examples, derandomize=True, deadline=None)


def traced_peak(fn):
    """Call ``fn()`` under ``tracemalloc`` and return ``(peak, result)``: the
    most bytes the call held at once, counting only what it allocated, and
    what it returned."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()
