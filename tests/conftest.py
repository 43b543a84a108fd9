import pytest

import fixtures
from crosswidth import pipeline


@pytest.fixture(scope="session")
def f0_engine():
    return pipeline.build_engine(fixtures.f0(), calib=1.0, h_max=0.08)


@pytest.fixture(scope="session")
def f1_engine():
    return pipeline.build_engine(fixtures.f1(), calib=1.0, h_max=0.08)


@pytest.fixture(scope="session")
def f1_varying_r1_engine():
    return pipeline.build_engine(fixtures.f1_varying_r1(), calib=1.0, h_max=0.08)


@pytest.fixture(scope="session")
def f1arc_engine():
    return pipeline.build_engine(fixtures.f1_arc(), calib=1.0, h_max=0.08)


@pytest.fixture(scope="session")
def single_engine():
    return pipeline.build_engine(fixtures.single_transversal(), calib=1.0, h_max=0.08)


@pytest.fixture(scope="session")
def f0_decoupled_engine():
    return pipeline.build_engine(fixtures.f0_decoupled(), calib=1.0, h_max=0.08)
