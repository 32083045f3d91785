"""Test configuration shared by every module.

Property tests run under one derandomised hypothesis profile: the examples
are a fixed function of each test, so a run is reproducible and no example
database is read or written.  hypothesis comes with the ``test`` extra; only
the property tests need it, and they skip without it.

Every test starts from an empty pull-back cache (``operators._pulled``), so
the tests that count pull-backs, spans or eliminations of a trace read the
same numbers in any order.
"""

import pytest

from extmod import operators

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("derandomized", derandomize=True, database=None, deadline=None,
                              max_examples=60)
    settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def _cleared_pull_back_cache():
    operators._pulled.cache_clear()
