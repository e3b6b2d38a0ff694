"""Shared fixtures.

Workload fixtures are session-scoped (generation is deterministic, and the
kernels never mutate their inputs); SDV fixtures are function-scoped since
tests reconfigure them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import native
from repro.config import CoreConfig, L2Config, SdvConfig
from repro.soc import FpgaSdv
from repro.workloads import get_scale
from repro.workloads.cage import scaled_cage_like
from repro.workloads.graphs import rmat_graph
from repro.workloads.signals import make_signal


@pytest.fixture
def sdv() -> FpgaSdv:
    """Default-configuration SDV."""
    return FpgaSdv()


@pytest.fixture
def tiny_config() -> SdvConfig:
    """A deliberately small machine: tiny caches so tests hit DRAM easily."""
    return SdvConfig(
        core=CoreConfig(l1d_bytes=4096, l1d_ways=4),
        l2=L2Config(banks=4, bank_bytes=16 * 1024, ways=4),
    ).validate()


@pytest.fixture(scope="session")
def smoke_scale():
    return get_scale("smoke")


@pytest.fixture(scope="session")
def small_matrix():
    """~400-row cage-profile CSR matrix."""
    return scaled_cage_like(384, seed=7)


@pytest.fixture(scope="session")
def small_graph():
    """2^8-node R-MAT graph."""
    return rmat_graph(2 ** 8, edge_factor=4, seed=11)


@pytest.fixture(scope="session")
def small_signal():
    """128-point complex signal."""
    return make_signal(128, kind="tones", seed=3)


@pytest.fixture(scope="session")
def x_vector(small_matrix):
    return np.linspace(0.5, 1.5, small_matrix.shape[0])


def _pick_walk(request, monkeypatch, fallback: str) -> str:
    """Keep the compiled kernels, or force the fallback walks by making
    the loader report no library, which is what hosts with no C compiler
    run."""
    if request.param == fallback:
        monkeypatch.setattr(native, "library", lambda: None)
    elif native.library() is None:
        pytest.skip("no C compiler could build the compiled kernels")
    return request.param


@pytest.fixture(params=["compiled", "numpy"])
def batch_walk(request, monkeypatch) -> str:
    """Run batch walks on the compiled walk or on the NumPy walk."""
    return _pick_walk(request, monkeypatch, "numpy")


@pytest.fixture(params=["compiled", "python"])
def classify_walk(request, monkeypatch) -> str:
    """Classify on the compiled cache walk or on the Python dict walk."""
    return _pick_walk(request, monkeypatch, "python")
