"""Shared test helpers."""

import random
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.lang import compile_source
from repro.vm.interpreter import Interpreter
from repro.vm.loader import LoadedAssembly


def pytest_addoption(parser):
    parser.addoption(
        "--repro-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="fix the seed returned by the rng_seed fixture (reproduce a "
        "randomized-test failure: the failing run prints the seed to use)",
    )


@pytest.fixture
def rng_seed(request):
    """A per-test randomization seed.

    Fresh each run unless pinned with ``--repro-seed``.  When a test using
    this fixture fails, the seed is printed in the report so the exact run
    can be replayed with ``pytest --repro-seed=<seed>``.
    """
    seed = request.config.getoption("--repro-seed")
    if seed is None:
        seed = random.SystemRandom().randrange(2**63)
    request.node._repro_seed = seed
    return seed


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    seed = getattr(item, "_repro_seed", None)
    if seed is not None and report.failed:
        report.sections.append(
            (
                "randomized seed",
                f"this test used rng_seed={seed}; "
                f"replay with: pytest {item.nodeid!r} --repro-seed={seed}",
            )
        )


def interpret(source: str, entry_class=None):
    """Compile + interpret; returns (result, interpreter)."""
    assembly = compile_source(source, entry_class=entry_class)
    loaded = LoadedAssembly(assembly)
    interp = Interpreter(loaded)
    return interp.run(), interp


@pytest.fixture
def run_main():
    def _run(source, entry_class=None):
        return interpret(source, entry_class)[0]

    return _run


@pytest.fixture(autouse=True)
def _fresh_tier_memory():
    """Start every test with an empty tier memory, so no test's tiering
    depends on which tests ran before it in the process."""
    from repro.vm import dispatch

    dispatch._HOT_CODE.clear()


#: a superinstruction tier-up count no test program reaches
_NEVER_FUSE = 10**15


@contextmanager
def use_engine(name):
    """Run the machines built inside the block on engine ``name``; yields
    the machine class to construct.

    ``threaded`` is the one product engine.  ``classic`` is the
    :class:`~tests.classic_oracle.ClassicMachine` oracle; it is also put
    behind the harness runner, so ``Runner.run_on`` and pool workers
    forked inside the block build it too.  ``unfused`` is the threaded
    engine held below its superinstruction tier, which pins a divergence
    on either the closure translation or the fuser; it sees an empty tier
    memory, so no function remembered from a fused run starts fused.
    """
    from repro.harness import runner
    from repro.vm import dispatch
    from repro.vm.machine import Machine
    from tests.classic_oracle import ClassicMachine

    assert name in ("classic", "threaded", "unfused"), name
    machine_class = ClassicMachine if name == "classic" else Machine
    fuse_runs = _NEVER_FUSE if name == "unfused" else dispatch._FUSE_RUNS
    hot_code = {} if name == "unfused" else dispatch._HOT_CODE
    with mock.patch.object(runner, "Machine", machine_class), \
            mock.patch.object(dispatch, "_FUSE_RUNS", fuse_runs), \
            mock.patch.object(dispatch, "_HOT_CODE", hot_code):
        yield machine_class
