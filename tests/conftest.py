import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import domekit

# Hypothesis draws some values from the constants of the local modules loaded
# so far, so a derandomized test drew other examples in a partial run than in
# the full suite.  Loading every domekit module and every test module before
# the first test makes that pool, and so the examples, the same in every run.
for _module in pkgutil.iter_modules(domekit.__path__):
    importlib.import_module(f"domekit.{_module.name}")
for _path in sorted(Path(__file__).parent.glob("*.py")):
    if _path.stem != "conftest":
        importlib.import_module(_path.stem)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
