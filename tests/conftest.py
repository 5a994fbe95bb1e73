"""Shared pytest set-up: the hypothesis profile the CI suite runs under."""

from hypothesis import settings

# derandomized, so a CI failure replays on any machine; print_blob prints
# the failing example's reproduction blob
settings.register_profile("ci", derandomize=True, print_blob=True)
