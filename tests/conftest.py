import json
import pathlib

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, fzero

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


@st.composite
def _factor(draw, prec, top):
    """A raw tuple of either sign below ``2**top``, or zero.  Its mantissa is
    random or all ones (often of ``prec`` bits), small and odd (its products
    with full ones tie), a power of two, halfway between two ``prec``-bit
    ones, or wider than ``prec`` bits."""
    kind = draw(st.sampled_from(["random", "ones", "small", "one", "tie", "wide", "zero"]))
    if kind == "zero":
        return fzero
    bits = draw(st.one_of(st.sampled_from([prec, prec - 1, 2]), st.integers(1, prec)))
    man = {
        "random": lambda: draw(st.integers(1 << (bits - 1), (1 << bits) - 1)),
        "ones": lambda: (1 << bits) - 1,
        "small": lambda: draw(st.sampled_from([3, 5, 7, 11, 13])),
        "one": lambda: 1,
        "tie": lambda: ((draw(st.integers(1 << (prec - 1), (1 << prec) - 1)) | draw(st.booleans()))
                        << 70 | 1 << 69),  # the kept prec bits of either parity
        "wide": lambda: draw(st.integers(1 << prec, 1 << (prec + 64))),
    }[kind]()
    return from_man_exp(man * draw(st.sampled_from([1, -1])), top - man.bit_length())
