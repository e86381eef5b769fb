import pytest

from sepcat import presets
from sepcat.exactalg import Field, QQ
from sepcat.lincat import linearize


@pytest.fixture
def z2_over_q():
    return linearize(presets.cyclic_group(2), QQ)


@pytest.fixture
def z2_over_f2():
    return linearize(presets.cyclic_group(2), Field(2))


@pytest.fixture
def a2_over_q():
    return linearize(presets.chain_poset(2), QQ)


@pytest.fixture
def trivial_cat():
    return linearize(presets.cyclic_group(1), QQ)


@pytest.fixture
def discrete2_over_q():
    return linearize(presets.discrete_category(2), QQ)
