import warnings

import numpy as np
import pytest

# A failing hypothesis test makes the hypothesis pytest plugin import its
# patch writer, which imports libcst, which raises a DeprecationWarning at
# import; under `filterwarnings = error::DeprecationWarning` the report
# then ends in a pytest INTERNALERROR without the falsifying example.
# Importing it here, once, with that warning ignored, keeps the report.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
