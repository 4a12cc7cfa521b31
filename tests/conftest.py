import gc
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_TEST = "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture(autouse=True)
def release_finished_datasets():
    """Collect garbage after every test while Ray is up.

    A consumed Dataset keeps its actor-pool workers, and the CPUs they
    hold, until Python's cyclic GC frees their handles. A pipeline with two
    actor pools (``ivf_topk``, ``lsh_topk``) needs three of the session's
    four CPUs, so a test that starts while an earlier test's actors linger
    waits on Ray's resource-deadlock GC, or forever when that never fires.
    """
    yield
    ray = sys.modules.get("ray")
    if ray is not None and ray.is_initialized():
        gc.collect()


@pytest.fixture(scope="session")
def sf_dir():
    return SF_TEST
