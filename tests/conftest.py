"""One hypothesis profile for every property test: derandomised, no example
database, no deadline.  Each test states only its ``max_examples``."""

from hypothesis import settings

settings.register_profile("gylat", deadline=None, derandomize=True, database=None)
settings.load_profile("gylat")
