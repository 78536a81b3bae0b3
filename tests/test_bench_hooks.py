"""Every function perfbench wraps still exists under the name it wraps.

perfbench installs its timers and its correctness recorder by "module:name"
target; a renamed target stops a benchmark run with exit code 3. This test
resolves each target the way perfbench does, so a rename fails here first.
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

TARGETS = (list(tracing.SPAN_TARGETS) + list(tracing.COUNTER_TARGETS)
           + [f"contact_hj.solver:{name}" for name in check.RECORDED_SOLVES]
           + ["contact_hj.measures:discounted_measure"])


@pytest.mark.parametrize("target", TARGETS)
def test_bench_hook_target_resolves(target):
    owner, attr, original = hooks._resolve(target)
    assert getattr(owner, attr) is original
