import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import daereach
from daereach import (
    ReachSettings,
    build_rotating_masses,
    compute_index_and_chain,
    decouple,
    rotating_masses_initial_star,
    to_autonomous,
)


@pytest.fixture(scope="session")
def rotating_masses_auto():
    system, inputs = build_rotating_masses()
    return to_autonomous(system, inputs)


@pytest.fixture(scope="session")
def rotating_masses_decoupled(rotating_masses_auto):
    return decouple(compute_index_and_chain(rotating_masses_auto))


@pytest.fixture(scope="session")
def rotating_masses_star():
    return rotating_masses_initial_star()


@pytest.fixture
def index1_pair():
    """The 2x2 hand-checkable system E = diag(1, 0), A = I."""
    from daereach.model import AutonomousDae

    return AutonomousDae(np.diag([1.0, 0.0]), np.eye(2))


@pytest.fixture
def short_settings():
    return ReachSettings(time_step=0.05, num_steps=20)


@pytest.fixture
def lp_count(monkeypatch):
    """One entry per simplex LP solved from here on; every LP of the
    library, ``find_feasible``'s included, goes through ``lp.solve_lp``."""
    from daereach import lp

    calls = []
    solve = lp.solve_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counted)
    return calls


# The child caps its own address space before it imports the package, so
# no preexec hook runs in this (threaded) test process between fork and
# exec.  It then forks the CLI and reports the CLI's own peak resident set
# (``os.wait4`` on it, in KiB) to the file named by its first argument: a
# process started from the test process counts that process's resident set
# in its ``ru_maxrss`` (fork copies it, and exec folds the old one in), and
# ``RUSAGE_CHILDREN`` is the largest over every child; one forked from the
# small launcher counts only the launcher's.  ``alarm`` ends a CLI that
# runs past 60 s.
_CAPPED_CLI = """
import os, resource, runpy, signal, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
report = sys.argv.pop(1)
pid = os.fork()
if pid == 0:
    signal.alarm(60)
    runpy.run_module("daereach.cli", run_name="__main__", alter_sys=True)
else:
    _, status, usage = os.wait4(pid, 0)
    with open(report, "w") as file:
        file.write(str(usage.ru_maxrss))
    sys.exit(os.waitstatus_to_exitcode(status))
"""


@pytest.fixture
def capped_cli():
    """Runs ``python -m daereach.cli *argv`` in a child process whose address
    space is capped at 1 GiB, with one BLAS thread and a 60 s timeout: an
    input that makes the CLI allocate without bound fails in the child, not
    on the host.  The runner returns the ``subprocess.CompletedProcess``,
    with the CLI process's own peak resident set in MiB as ``peak_rss_mb``."""
    src = str(Path(daereach.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(argv):
        with tempfile.TemporaryDirectory() as scratch:
            report = Path(scratch) / "peak_rss_kib"
            done = subprocess.run(
                [sys.executable, "-c", _CAPPED_CLI, str(report), *argv],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            done.peak_rss_mb = int(report.read_text()) / 1024
        return done

    return run
