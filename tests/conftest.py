"""Shared pytest set-up: assert rewriting in oracles.py, and the hypothesis
profile the CI suite runs under."""

import pytest
from hypothesis import settings

# before any test module imports oracles.py, so its asserts keep pytest's
# introspected failure messages
pytest.register_assert_rewrite("oracles")

# derandomized, so a CI failure replays on any machine; print_blob prints
# the failing example's reproduction blob
settings.register_profile("ci", derandomize=True, print_blob=True)
