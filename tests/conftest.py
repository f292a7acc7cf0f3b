"""Settings shared by the property tests.

Examples are drawn from a fixed seed and have no per-example deadline, so a
run draws the same examples on every machine and a slow one cannot time out.
"""

from hypothesis import settings

settings.register_profile("aci", deadline=None, derandomize=True)
settings.load_profile("aci")
