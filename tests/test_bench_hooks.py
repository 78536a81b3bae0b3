"""Every function perfbench wraps still exists under the name it wraps, and
every config it runs still loads.

perfbench installs its timers and its correctness recorder by "module:name"
target; a renamed target stops a benchmark run with exit code 3. These tests
resolve each target the way perfbench does, and load each workload config,
full and toy, with every probe set, through ExperimentConfig.from_dict as
its child process does, so a rename or a config-grammar change fails here
first.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import check  # noqa: E402
import hooks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from contact_hj.experiments import ExperimentConfig  # noqa: E402

TARGETS = (list(tracing.SPAN_TARGETS) + list(tracing.COUNTER_TARGETS)
           + [f"contact_hj.solver:{name}" for name in check.RECORDED_SOLVES]
           + ["contact_hj.measures:discounted_measure"])


@pytest.mark.parametrize("target", TARGETS)
def test_bench_hook_target_resolves(target):
    owner, attr, original = hooks._resolve(target)
    assert getattr(owner, attr) is original


@pytest.mark.parametrize("toy", [False, True], ids=["full", "toy"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_bench_workload_config_loads(name, toy):
    for probes in workloads.probe_sets(name):
        config = ExperimentConfig.from_dict(
            workloads.build_config(name, probes, toy))
        assert config.probes == tuple(tuple(p) for p in probes)
