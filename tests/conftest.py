from __future__ import annotations

import pytest
from hypothesis import settings

# Property tests draw the same cases on every run, and a slow or busy host
# cannot fail them on time alone.
settings.register_profile("gtpairs", derandomize=True, deadline=None)
settings.load_profile("gtpairs")


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--extended",
        action="store_true",
        default=False,
        help="run the long extended-tier checks",
    )


def pytest_collection_modifyitems(config, items) -> None:
    if config.getoption("--extended"):
        return
    skip = pytest.mark.skip(reason="needs --extended")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)
