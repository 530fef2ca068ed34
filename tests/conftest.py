import pytest

from flagroots import LieType, build_constants, paint, root_system
from flagroots.fixtures import _SPACE_DEFS as SPACES


@pytest.fixture(scope="session")
def systems():
    return {t: root_system(t) for t in LieType}


@pytest.fixture(scope="session")
def tables(systems):
    return {t: build_constants(s) for t, s in systems.items()}


@pytest.fixture(scope="session")
def diagrams(systems):
    return {sid: paint(systems[t], nodes) for sid, (t, nodes) in SPACES.items()}
