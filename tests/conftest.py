"""One Hypothesis profile for the suite: reproducible examples and no example database."""

from hypothesis import settings

settings.register_profile("driftspectra", derandomize=True, database=None, deadline=None)
settings.load_profile("driftspectra")
