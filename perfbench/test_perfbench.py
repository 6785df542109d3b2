"""Smoke test of the benchmark itself at tiny sizes.

Run from the repository root: python3 -m pytest perfbench -q
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from subtree_density import dp, enumeration, verify  # noqa: E402
from subtree_density.tree import serialize  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = workloads.workloads("tiny")


@pytest.mark.parametrize("name", sorted(TINY))
def test_report_bodies_identical_with_tracing_on_and_off(name):
    workload = TINY[name]
    inputs = workload.inputs(3)
    plain = workload.run(inputs, 3, None)
    originals = (dp.vertex_view, verify.vertex_view, enumeration.enumerate_trees)
    with Tracer() as tracer:
        traced = workload.run(inputs, 3, None)
    assert (dp.vertex_view, verify.vertex_view, enumeration.enumerate_trees) == originals
    assert plain.failed == traced.failed == 0, plain.problems + traced.problems
    assert plain.digests and plain.digests == traced.digests
    assert len(tracer.starts) > 0 and not tracer.absent


def _sampled(seed):
    workload = TINY["sample-rooted"]
    return [serialize(enumeration.sample_series_reduced(n, s))
            for n, s in workload.inputs(seed)]


def test_sample_inputs_follow_the_seed():
    assert _sampled(5) == _sampled(5)
    assert _sampled(5) != _sampled(6)
