import numpy as np
import pytest

import planeot as po


@pytest.fixture(scope="session")
def instances():
    """Cache of preset instances keyed by (name, n)."""
    cache = {}

    def get(preset: str, n: int = 33) -> po.Instance:
        key = (preset, n)
        if key not in cache:
            f, ft = po.build_preset(preset, n, n)
            cache[key] = po.build_instance(f, ft)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def solves(instances):
    """Cache of converged solves keyed by (name, n, omega)."""
    cache = {}

    def get(preset: str, n: int = 33, omega: float = 0.7):
        key = (preset, n, omega)
        if key not in cache:
            inst = instances(preset, n)
            cfg = po.SolverConfig(nx=n, ny=n, omega=omega)
            F, report = po.picard_solve(inst, cfg)
            cache[key] = (inst, F, report, report.candidate)
        return cache[key]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
