"""Shared test configuration.

Every hypothesis property runs deterministically and without a
per-example deadline; a property test sets only ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("thermofock", deadline=None, derandomize=True)
settings.load_profile("thermofock")
