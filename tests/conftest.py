import json
import pathlib

import pytest
from hypothesis import settings

from gsinv import PrecisionContext

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# every property test: derandomized and without an example database, so
# every run draws the same examples and tier-1 stays deterministic
settings.register_profile("gsinv", max_examples=150, deadline=None, derandomize=True,
                          database=None)
settings.load_profile("gsinv")


@pytest.fixture(scope="session")
def ctx30():
    return PrecisionContext(30)


@pytest.fixture(scope="session")
def ctx20():
    return PrecisionContext(20)


def load_fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())
