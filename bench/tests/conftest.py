import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)


@pytest.fixture(scope="session")
def lb():
    import run
    return run.import_lbkit(SRC)


@pytest.fixture
def rng():
    return random.Random(1234)
