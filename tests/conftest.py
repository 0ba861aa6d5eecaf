"""Shared pytest set-up: property tests run derandomised, so the suite is deterministic."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
