"""Golden-fingerprint equivalence: a ``ColumnarTrace`` must run to
bit-identical ``SimStats`` (and persist records) as its ``ProgramTrace``
for every registered scheme x benchmark workload, and the analytical mode
must reproduce the discrete op counts."""

import runpy
from pathlib import Path

import pytest

from repro.analysis.bench import fingerprint_run
from repro.analysis.experiments import default_sim_config
from repro.api import RunOptions, build_system
from repro.core.registry import (CONTRACT_EPOCH, iter_schemes, scheme_info,
                                  unregister_scheme)
from repro.sim.coltrace import ColumnarTrace
from repro.sim.trace import with_epochs
from repro.workloads.base import (WORKLOAD_NAMES, WorkloadSpec, build_cached,
                                  seed_media_words)

SPEC = WorkloadSpec(threads=2, ops=25, elements=512, seed=13)
SCHEMES = [info for info in iter_schemes() if info.builtin]
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
#: Registered by ``examples/custom_scheme.py`` (see ``plugin_scheme``).
PLUGIN_SCHEME = "bbb-nocoalesce"


def _run(info, trace, initial_words, mode):
    kwargs = {"entries": 8} if info.has_persist_buffer else {}
    system = build_system(info.name, config=default_sim_config(),
                          options=RunOptions(mode=mode), **kwargs)
    seed_media_words(system.nvmm_media, initial_words)
    result = system.run(trace, finalize=False)
    return system, result


@pytest.fixture
def plugin_scheme():
    """Register the out-of-tree scheme of ``examples/custom_scheme.py`` for
    one test, then remove it again."""
    module = runpy.run_path(str(EXAMPLES / "custom_scheme.py"))
    yield scheme_info(module["SCHEME_NAME"])
    unregister_scheme(module["SCHEME_NAME"])


@pytest.mark.parametrize(
    "scheme", [info.name for info in SCHEMES] + [PLUGIN_SCHEME])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_columnar_matches_object_mode(scheme, workload, request):
    """A ``ColumnarTrace`` input (the batch runner's shared-memory form)
    runs bit-identically to the ``ProgramTrace`` it was converted from,
    for every registered scheme — the out-of-tree example included."""
    info = (request.getfixturevalue("plugin_scheme")
            if scheme == PLUGIN_SCHEME else scheme_info(scheme))
    cfg = default_sim_config()
    trace, initial_words = build_cached(workload, cfg.mem, SPEC)
    if info.contract == CONTRACT_EPOCH:
        trace = with_epochs(trace, every_n_stores=8)
    # A fresh conversion, not the memoized columnar_of: that one's
    # to_program hands back the source trace itself, so the ops would
    # never be rebuilt from the columns.
    cols = ColumnarTrace.from_program(trace)
    _, obj = _run(info, trace, initial_words, "auto")
    _, col = _run(info, cols, initial_words, "auto")
    assert fingerprint_run(obj) == fingerprint_run(col)


@pytest.mark.parametrize(
    "info",
    [i for i in SCHEMES if i.contract != CONTRACT_EPOCH],
    ids=lambda i: i.name,
)
def test_analytical_exact_counts(info):
    """Analytical mode reproduces the op counts exactly for every
    non-epoch scheme (cycle/write errors are gated by the tolerance test
    in tests/test_analytical.py)."""
    cfg = default_sim_config()
    trace, initial_words = build_cached("hashmap", cfg.mem, SPEC)
    _, sim = _run(info, trace, initial_words, "object")
    _, est = _run(info, trace, initial_words, "analytical")
    assert est.stats.total_loads == sim.stats.total_loads
    assert est.stats.total_stores == sim.stats.total_stores
    assert (est.stats.total_persisting_stores
            == sim.stats.total_persisting_stores)
