import numpy as np
import pytest

from daereach import (
    ReachSettings,
    build_rotating_masses,
    compute_index_and_chain,
    decouple,
    make_admissible,
    rotating_masses_initial_star,
    to_autonomous,
)


@pytest.fixture(scope="session")
def rotating_masses_auto():
    system, inputs = build_rotating_masses()
    return to_autonomous(system, inputs)


@pytest.fixture(scope="session")
def rotating_masses_decoupled(rotating_masses_auto):
    chain = make_admissible(compute_index_and_chain(rotating_masses_auto))
    return decouple(chain)


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
