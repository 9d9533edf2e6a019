import os

import pytest

from goebel.modarith import qr_bits


def pytest_collection_modifyitems(config, items):
    if os.environ.get("GOEBEL_RUN_SLOW"):
        return
    skip = pytest.mark.skip(reason="slow; set GOEBEL_RUN_SLOW=1 to enable")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def cold_qr_bits():
    """An empty residue-table cache, emptied again after the test, for tests
    that count or substitute the tables behind modarith.qr_bits."""
    qr_bits.cache_clear()
    yield
    qr_bits.cache_clear()
