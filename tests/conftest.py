"""Test configuration shared by every module.

Property tests run under one derandomised hypothesis profile: the examples
are a fixed function of each test, so a run is reproducible and no example
database is read or written.  hypothesis comes with the ``test`` extra; only
the property tests need it, and they skip without it.
"""

try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("derandomized", derandomize=True, database=None, deadline=None,
                              max_examples=60)
    settings.load_profile("derandomized")
