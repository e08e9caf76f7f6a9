import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fracsmooth import sets


def _fail_skip(report):
    # no test may skip silently: a skipped test or module fails the run
    if report.skipped and not hasattr(report, "wasxfail"):
        report.outcome = "failed"
        report.longrepr = f"skipped, and no tier-1 test may skip: {report.longrepr}"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    _fail_skip((yield).get_result())


@pytest.hookimpl(hookwrapper=True)
def pytest_make_collect_report(collector):
    _fail_skip((yield).get_result())


@pytest.fixture
def cantor_thirds():
    return sets.CantorLike(1.0, 2.0, 2, 1.0 / 3.0)


@pytest.fixture
def full_interval():
    return sets.FullInterval(1.0, 2.0)


@pytest.fixture
def poly_one():
    return sets.PolySequence(1.0)


@pytest.fixture
def single_point():
    return sets.FinitePoints((1.5,))


@pytest.fixture
def two_cantor_union():
    return sets.UnionSet(
        (sets.CantorLike(1.0, 1.4, 2, 1.0 / 3.0), sets.CantorLike(1.6, 2.0, 3, 1.0 / 5.0))
    )


def descriptor_zoo():
    return [
        sets.FullInterval(1.0, 2.0),
        sets.FullInterval(1.25, 1.75),
        sets.FinitePoints((1.5,)),
        sets.FinitePoints((1.0, 1.25, 1.7, 2.0)),
        sets.CantorLike(1.0, 2.0, 2, 1.0 / 3.0),
        sets.CantorLike(1.1, 1.9, 3, 0.2),
        sets.PolySequence(1.0),
        sets.PolySequence(0.5),
        sets.UnionSet((sets.CantorLike(1.0, 1.4, 2, 1.0 / 3.0), sets.PolySequence(2.0))),
        sets.UnionSet((sets.FinitePoints((1.05,)), sets.FullInterval(1.5, 1.75))),
    ]
