"""Hypothesis profiles for the test suite.

Tier-1 replays a fixed set of examples in the parser fuzz test and in the
CSV writer's differential test; ``pytest --hypothesis-profile fuzz`` draws
fresh ones there instead, 1000 per run.
"""

from hypothesis import settings

settings.register_profile("fuzz", max_examples=1000, deadline=None)
