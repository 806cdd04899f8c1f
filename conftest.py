"""Shared pytest setup for tests/ and bench/tests/.

hypothesis's failure reporter imports libcst (through
hypothesis.extra._patching) the first time a @given test fails, and that
import raises a DeprecationWarning (mypy_extensions.TypedDict). Under
filterwarnings = ["error"] the warning would turn the failure report into an
INTERNALERROR that stops the whole session, so the module is imported here
once, with that warning ignored; the filter stays in force for every test.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
