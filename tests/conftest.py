"""Shared test settings: hypothesis runs derandomized, without a database or deadline."""

from hypothesis import settings

settings.register_profile("bidmc", derandomize=True, database=None, deadline=None)
settings.load_profile("bidmc")
