"""Tests validating the Section 4 model against simulated measurements."""

import pytest

from repro.experiments.fig3 import DAEMON_IMAGE_MB, measure_launch_and_spawn
from repro.perfmodel import (
    FittedLine,
    LaunchModel,
    ModelInputs,
    fit_component_scaling,
)
from repro.rm import SlurmConfig


class TestFit:
    def test_exact_line_recovered(self):
        line = fit_component_scaling([1, 2, 3, 4], [3, 5, 7, 9])
        assert line.intercept == pytest.approx(1.0)
        assert line.slope == pytest.approx(2.0)
        assert line.r2 == pytest.approx(1.0)

    def test_predict(self):
        line = FittedLine(intercept=1.0, slope=0.5, r2=1.0)
        assert line.predict(10) == 6.0

    def test_scale_independence_detection(self):
        flat = fit_component_scaling([16, 64, 128], [0.018, 0.0181, 0.0179])
        assert flat.is_scale_independent
        linear = fit_component_scaling([16, 64, 128], [0.1, 0.4, 0.8])
        assert not linear.is_scale_independent

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_component_scaling([1], [1])
        with pytest.raises(ValueError):
            fit_component_scaling([1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="identical"):
            fit_component_scaling([4, 4, 4], [1, 2, 3])


class TestModelShape:
    def setup_method(self):
        self.model = LaunchModel()

    def test_trace_constant_in_scale(self):
        a = self.model.t_trace(ModelInputs(16))
        b = self.model.t_trace(ModelInputs(1024))
        assert a == b == pytest.approx(0.018)

    def test_trace_zero_in_attach_mode(self):
        assert self.model.t_trace(ModelInputs(64, mode="attach")) == 0.0
        assert self.model.t_job(ModelInputs(64, mode="attach")) == 0.0

    def test_legacy_events_make_trace_linear(self):
        legacy = LaunchModel(slurm=SlurmConfig(legacy_events=True))
        a = legacy.t_trace(ModelInputs(16))
        b = legacy.t_trace(ModelInputs(32))
        assert b - a == pytest.approx(16 * 8 * 0.0015)

    def test_rpdtab_linear_in_tasks(self):
        t1 = self.model.t_rpdtab(ModelInputs(64, tasks_per_daemon=8))
        t2 = self.model.t_rpdtab(ModelInputs(128, tasks_per_daemon=8))
        assert t2 == pytest.approx(2 * t1, rel=0.01)

    def test_congestion_kicks_in_beyond_threshold(self):
        below = self.model.t_daemon(ModelInputs(512))
        above = self.model.t_daemon(ModelInputs(1024))
        linear_extrapolation = below * 2
        assert above > linear_extrapolation * 1.05

    def test_total_is_sum_of_parts(self):
        t = self.model.predict(ModelInputs(128))
        assert t.total == pytest.approx(
            t.rm_time() + t.t_trace + t.t_rpdtab + t.t_handshake + t.t_other)


class TestModelVsMeasurement:
    """Figure 3's claim: the model tracks the measured breakdown."""

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_total_within_15_percent(self, n):
        measured, _, _ = measure_launch_and_spawn(n)
        predicted = LaunchModel().predict(ModelInputs(
            n, daemon_image_mb=DAEMON_IMAGE_MB))
        assert predicted.total == pytest.approx(measured.total, rel=0.15)

    def test_components_track(self):
        measured, _, _ = measure_launch_and_spawn(96)
        predicted = LaunchModel().predict(ModelInputs(
            96, daemon_image_mb=DAEMON_IMAGE_MB))
        assert predicted.t_job == pytest.approx(measured.t_job, rel=0.25)
        assert predicted.t_daemon == pytest.approx(measured.t_daemon,
                                                   rel=0.30)
        assert predicted.t_trace == pytest.approx(measured.t_trace, rel=0.10)
        assert predicted.t_rpdtab == pytest.approx(measured.t_rpdtab,
                                                   rel=0.15)

    def test_measured_trace_scale_independent(self):
        ts = []
        for n in (16, 64, 128):
            m, _, _ = measure_launch_and_spawn(n)
            ts.append(m.t_trace)
        line = fit_component_scaling([16, 64, 128], ts)
        assert line.is_scale_independent
        assert ts[0] == pytest.approx(0.018, abs=0.003)

    def test_measured_rpdtab_linear_in_tasks(self):
        ns, ts = [], []
        for n in (16, 64, 128):
            m, _, _ = measure_launch_and_spawn(n)
            ns.append(n * 8)
            ts.append(m.t_rpdtab)
        line = fit_component_scaling(ns, ts)
        assert line.r2 > 0.99
        assert line.slope == pytest.approx(3 * 1.2e-5, rel=0.1)


class TestImageStagingTerms:
    """The analytic image-staging terms match the storage layer's modes."""

    def test_shared_fs_is_linear(self):
        m = LaunchModel()
        one = m.image_stage_time(15.0, 1)
        assert m.image_stage_time(15.0, 512) == pytest.approx(512 * one)

    def test_fs_servers_divide_serial_term(self):
        assert LaunchModel(fs_servers=4).image_stage_time(15.0, 64) == \
            pytest.approx(LaunchModel().image_stage_time(15.0, 64) / 4)

    def test_broadcast_is_logarithmic(self):
        m = LaunchModel(staging="broadcast")
        t64 = m.image_stage_time(15.0, 64)
        t512 = m.image_stage_time(15.0, 512)
        assert t512 < 2 * t64
        assert t512 < LaunchModel().image_stage_time(15.0, 512) / 10

    def test_cache_cold_equals_serial_warm_near_free(self):
        m = LaunchModel(staging="cache")
        cold = m.image_stage_time(15.0, 64)
        assert cold == pytest.approx(LaunchModel().image_stage_time(15.0, 64))
        warm = m.image_stage_time(15.0, 64, warm_nodes=64)
        assert warm < cold / 50

    def test_per_call_staging_override(self):
        m = LaunchModel()
        assert m.image_stage_time(15.0, 256, staging="broadcast") < \
            m.image_stage_time(15.0, 256)

    def test_broadcast_term_tracks_simulation(self):
        from repro.cluster import Cluster, ClusterSpec
        from repro.simx import Simulator
        from tests.conftest import run_gen

        sim = Simulator()
        cluster = Cluster(sim, ClusterSpec(n_compute=256, seed=5,
                                           staging_mode="broadcast"))
        run_gen(sim, cluster.fs.stage_images(cluster.compute, 15.0, "toold"))
        predicted = LaunchModel(
            staging="broadcast").image_stage_time(15.0, 256)
        assert sim.now == pytest.approx(predicted, rel=0.15)

    def test_default_predictions_unchanged_by_staging_param(self):
        inp = ModelInputs(128, daemon_image_mb=DAEMON_IMAGE_MB)
        classic = LaunchModel().predict(inp)
        explicit = LaunchModel(staging="shared-fs").predict(inp)
        assert classic.t_daemon == explicit.t_daemon
        assert classic.total == explicit.total

    def test_unknown_staging_mode_rejected(self):
        from repro.cluster import StagingError
        with pytest.raises(StagingError, match="unknown staging mode"):
            LaunchModel(staging="bcast")
        with pytest.raises(StagingError, match="unknown staging mode"):
            LaunchModel().image_stage_time(15.0, 8, staging="Broadcast")


class TestStreamModel:
    """The data-plane analytic terms against the simulated stream."""

    def test_service_time_terms(self):
        from repro.perfmodel import StreamModel
        from repro.tbon import TBONTopology

        m = StreamModel()
        flat = TBONTopology.one_deep(64)
        hop = m.hop_time()
        # unbounded credits: the widest router's merge only
        assert m.service_time(flat) == pytest.approx(m.merge_time(64))
        # a credit limit adds the feeding serialization batches
        limited = m.service_time(flat, credit_limit=8)
        assert limited == pytest.approx(m.merge_time(64) + 7 * hop)
        # an internal (non-root) bottleneck also pays its forward hop
        deep = TBONTopology.balanced(64, fanout=16)
        assert m.service_time(deep, credit_limit=16) == pytest.approx(
            m.merge_time(16) + hop)

    def test_throughput_monotone_in_credits(self):
        from repro.perfmodel import StreamModel
        from repro.tbon import TBONTopology

        m = StreamModel()
        topo = TBONTopology.one_deep(128)
        assert (m.sustained_throughput(topo, credit_limit=2)
                < m.sustained_throughput(topo, credit_limit=8)
                < m.sustained_throughput(topo))

    def test_interval_bound_caps_throughput(self):
        from repro.perfmodel import StreamModel
        from repro.tbon import TBONTopology

        m = StreamModel()
        topo = TBONTopology.one_deep(16)
        fast = m.sustained_throughput(topo, credit_limit=4)
        assert m.wave_interval_throughput(topo, 1.0, 4) == 1.0
        assert m.wave_interval_throughput(topo, 0.0, 4) == fast

    def test_sustained_throughput_tracks_simulation(self):
        from repro.experiments.streaming import measure_stream

        for credit in (2, 8):
            cell = measure_stream(64, filter_name="histogram",
                                  credit_limit=credit, n_waves=15,
                                  fanout=16)
            assert cell["model_err"] <= 0.15, cell["model_err"]

    def test_wave_latency_tracks_simulation(self):
        from repro.experiments.streaming import measure_stream
        from repro.perfmodel import StreamModel

        # a paced stream measures unloaded per-wave latency
        cell = measure_stream(32, filter_name="ewma", credit_limit=8,
                              n_waves=8, fanout=0,
                              publish_interval=0.05)
        assert cell["mean_latency"] == pytest.approx(
            cell["latency_model"], rel=0.25)
