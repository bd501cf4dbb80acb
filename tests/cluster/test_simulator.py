"""Tests for the training-step simulator."""

import numpy as np
import pytest

from repro.assignment.greedy import greedy_placement
from repro.baselines import data_parallel_strategy
from repro.cluster import simulate_step
from repro.cluster.events import ListScheduler
from repro.cluster.simulator import DEFAULT_COMPUTE_EFFICIENCY
from repro.core.exceptions import SimulationError
from repro.core.strategy import Strategy
from repro.core.machine import GTX1080TI, RTX2080TI
from repro.models import mlp
from tests.conftest import build_dag


@pytest.fixture(scope="module")
def small_mlp():
    return mlp(batch=32, hidden=(256, 256), classes=128)


class TestBasics:
    def test_serial_on_one_device(self, small_mlp):
        s = Strategy.serial(small_mlp)
        rep = simulate_step(small_mlp, s, GTX1080TI, 1)
        total_flops = small_mlp.stats()["total_flops"]
        lower = total_flops / (GTX1080TI.peak_flops * DEFAULT_COMPUTE_EFFICIENCY)
        assert rep.step_time >= lower * 0.99
        assert rep.throughput == pytest.approx(32 / rep.step_time)

    def test_report_fields(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 4)
        rep = simulate_step(small_mlp, s, GTX1080TI, 4)
        assert rep.p == 4 and rep.machine == "1080Ti" and rep.batch == 32
        assert rep.task_count > 0
        assert "fwd" in rep.busy_by_kind and "bwd" in rep.busy_by_kind
        assert "gradsync" in rep.busy_by_kind  # replicated weights sync
        assert rep.trace == []  # not kept by default

    def test_keep_trace(self, small_mlp):
        s = Strategy.serial(small_mlp)
        rep = simulate_step(small_mlp, s, GTX1080TI, 1, keep_trace=True)
        assert len(rep.trace) == rep.task_count

    def test_invalid_strategy_rejected(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 8)
        from repro.core.exceptions import StrategyError
        with pytest.raises(StrategyError):
            simulate_step(small_mlp, s, GTX1080TI, 4)  # 8 shards, p=4

    def test_summary(self, small_mlp):
        s = Strategy.serial(small_mlp)
        text = simulate_step(small_mlp, s, GTX1080TI, 1).summary()
        assert "samples/s" in text

    def test_explicit_batch(self, small_mlp):
        s = Strategy.serial(small_mlp)
        rep = simulate_step(small_mlp, s, GTX1080TI, 1, batch=99)
        assert rep.batch == 99


class TestPhysics:
    def test_data_parallel_speedup_is_sublinear(self):
        # Compute-heavy instance: a large batch amortizes the weight sync.
        g = mlp(batch=4096, hidden=(512,), classes=64)
        serial = simulate_step(g, Strategy.serial(g), GTX1080TI, 1)
        dp = simulate_step(g, data_parallel_strategy(g, 4), GTX1080TI, 4)
        speedup = serial.step_time / dp.step_time
        assert 1.0 < speedup <= 4.0 + 1e-9

    def test_data_parallel_hurts_tiny_models(self, small_mlp):
        """With a small batch the gradient sync dwarfs the compute —
        the paper's motivation for non-batch parallelism."""
        serial = simulate_step(small_mlp, Strategy.serial(small_mlp),
                               GTX1080TI, 1)
        dp = simulate_step(small_mlp, data_parallel_strategy(small_mlp, 4),
                           GTX1080TI, 4)
        assert dp.step_time > serial.step_time

    def test_low_balance_machine_slower_step(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 8)
        fast = simulate_step(small_mlp, s, GTX1080TI, 8)
        # 2080Ti computes faster but syncs much slower; for a sync-bound
        # step the step time is longer.
        slow = simulate_step(small_mlp, s, RTX2080TI, 8)
        assert slow.busy_by_kind["gradsync"] > fast.busy_by_kind["gradsync"]

    def test_gradsync_overlaps_backward(self, small_mlp):
        """Step time must be far below the serial sum of all task time —
        the overlap the analytic model ignores."""
        s = data_parallel_strategy(small_mlp, 8)
        rep = simulate_step(small_mlp, s, GTX1080TI, 8)
        total_busy = sum(rep.busy_by_kind.values())
        assert rep.step_time < total_busy

    def test_mismatched_layouts_transfer(self):
        g = build_dag(2, [], batch=16, width=16)
        s = Strategy({"n0": (4, 1), "n1": (1, 4)})
        rep = simulate_step(g, s, GTX1080TI, 4)
        assert rep.busy_by_kind.get("xfer", 0.0) > 0

    def test_matched_layouts_no_transfer(self):
        g = build_dag(2, [], batch=16, width=16)
        s = Strategy({"n0": (4, 1), "n1": (4, 1)})
        rep = simulate_step(g, s, GTX1080TI, 4)
        assert rep.busy_by_kind.get("xfer", 0.0) == 0.0

    def test_reduction_split_adds_reduce_tasks(self):
        g = build_dag(2, [], reduction_mask=0b10)
        assignment = {"n0": (1, 1), "n1": (1, 1, 4)}
        rep = simulate_step(g, Strategy(assignment), GTX1080TI, 4)
        assert rep.busy_by_kind.get("reduce", 0.0) > 0

    def test_update_phase_present_for_params(self):
        g = build_dag(2, [], param_mask=0b11)
        s = Strategy({n: (2, 1) for n in g.node_names})
        rep = simulate_step(g, s, GTX1080TI, 2)
        assert rep.busy_by_kind.get("update", 0.0) > 0

    def test_utilization_bounded(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 4)
        rep = simulate_step(small_mlp, s, GTX1080TI, 4)
        assert all(0.0 <= u <= 1.0 for u in rep.device_utilization.values())


class TestErrors:
    """SimulationError paths: bad placements, bad devices, bad DAGs."""

    def test_unplaced_shards_rejected(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 4)
        pl = greedy_placement(small_mlp, s, 4)
        del pl.devices["fc1"]
        with pytest.raises(SimulationError, match="no placement"):
            simulate_step(small_mlp, s, GTX1080TI, 4, placement=pl)

    def test_unknown_device_rejected(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 4)
        pl = greedy_placement(small_mlp, s, 4)
        pl.devices["fc1"] = np.array([0, 1, 2, 99], dtype=np.int64)
        with pytest.raises(SimulationError, match="outside"):
            simulate_step(small_mlp, s, GTX1080TI, 4, placement=pl)

    def test_colliding_shards_rejected(self, small_mlp):
        s = data_parallel_strategy(small_mlp, 4)
        pl = greedy_placement(small_mlp, s, 4)
        pl.devices["fc1"] = np.array([0, 0, 1, 2], dtype=np.int64)
        with pytest.raises(SimulationError, match="two shards"):
            simulate_step(small_mlp, s, GTX1080TI, 4, placement=pl)

    def test_dependency_cycle_detected(self):
        """`append` forbids forward deps, so a cycle can only be forged
        by mutation — `schedule` must still refuse to schedule it."""
        sched = ListScheduler()
        a = sched.append("fwd", "a", (("gpu", 0),), 1.0)
        b = sched.append("fwd", "b", (("gpu", 0),), 1.0, (a,))
        sched.deps[a] = (b,)
        with pytest.raises(SimulationError, match="cycle"):
            sched.schedule()

    def test_future_dependency_rejected_at_add(self):
        sched = ListScheduler()
        with pytest.raises(SimulationError, match="unknown/future"):
            sched.append("fwd", "a", (("gpu", 0),), 1.0, (5,))

    def test_negative_duration_rejected_at_add(self):
        sched = ListScheduler()
        with pytest.raises(SimulationError, match="negative duration"):
            sched.append("fwd", "a", (("gpu", 0),), -1.0)

    def test_missing_batch_dim_needs_explicit_batch(self):
        from repro.core.dims import Dim
        from repro.core.graph import CompGraph
        from repro.core.tensors import TensorSpec
        from repro.ops.base import OpSpec


        op = OpSpec(name="nb", kind="test", dims=(Dim("m", 8),),
                    inputs={"in0": TensorSpec(axes=("m",))},
                    outputs={"out": TensorSpec(axes=("m",))},
                    flops_per_point=2.0)
        g = CompGraph([op])
        s = Strategy.serial(g)
        with pytest.raises(SimulationError, match="batch"):
            simulate_step(g, s, GTX1080TI, 1)
        rep = simulate_step(g, s, GTX1080TI, 1, batch=16)
        assert rep.batch == 16


class TestMultiNode:
    def test_cross_node_sync_slower(self):
        """Spanning two nodes routes the gradient ring over InfiniBand,
        so the same strategy syncs slower than the intra-node run."""
        g = mlp(batch=64, hidden=(2048,), classes=512)
        one_node = simulate_step(g, data_parallel_strategy(g, 8),
                                 GTX1080TI, 8)
        two_node = simulate_step(g, data_parallel_strategy(g, 16),
                                 GTX1080TI, 16)
        # Per-device gradsync time is larger across nodes despite the
        # per-device compute being halved.
        assert two_node.busy_by_kind["gradsync"] / 16 > \
            one_node.busy_by_kind["gradsync"] / 8 * 0.9

    def test_topology_aware_placement_packs_nodes(self):
        from repro.assignment import greedy_placement
        g = mlp(batch=64, hidden=(128,))
        s = data_parallel_strategy(g, 4)
        pl = greedy_placement(g, s, 16)
        # 4 shards land on the first node's devices (0..7).
        assert all(d < 8 for d in pl.devices["fc1"])
