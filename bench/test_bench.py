"""Tests of the benchmark's own checks and tracer.

    python -m pytest -q bench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
from coopcdma import harness, mmse  # noqa: E402
from coopcdma.harness import BerCurve, ExperimentConfig, PacketResult  # noqa: E402

K, P, T, TRIALS = 4, 1500, 200, 8
BITS = 2 * K * (P - T) * TRIALS


def curve(rows, scheme="cis", divergences=0):
    return BerCurve(x_name="snr_db", rows=rows, scheme=scheme, variant="exact",
                    divergences=divergences)


class TestRowChecks:
    def test_good_rows_pass(self):
        good = curve([(0.0, 0.2, 0.01, BITS), (18.0, 0.0, 0.0, BITS)])
        assert checks.check_curve(good, K, P, T, TRIALS) == []
        assert checks.check_snr_trend(good) == []

    def test_bit_count_short_by_one_trial_fails(self):
        short = curve([(0.0, 0.2, 0.01, BITS - 2 * K * (P - T))])
        assert checks.check_curve(short, K, P, T, TRIALS)

    def test_ber_outside_half_fails(self):
        assert checks.check_curve(curve([(0.0, 0.51, 0.0, BITS)]), K, P, T, TRIALS)
        assert checks.check_curve(curve([(0.0, -1e-3, 0.0, BITS)]), K, P, T, TRIALS)

    def test_divergence_fails(self):
        assert checks.check_curve(curve([(0.0, 0.2, 0.0, BITS)], divergences=1),
                                  K, P, T, TRIALS)

    def test_ber_rising_with_snr_fails(self):
        assert checks.check_snr_trend(curve([(0.0, 0.01, 0.0, BITS),
                                             (18.0, 0.02, 0.0, BITS)]))

    def test_scheme_order(self):
        assert checks.check_scheme_order(
            {"jpais-gpc": 4.3e-4, "cis": 1.7e-3, "ncis": 6.4e-3}) == []
        assert checks.check_scheme_order(
            {"jpais-gpc": 2e-3, "cis": 1.7e-3, "ncis": 6.4e-3})
        assert checks.check_scheme_order(
            {"jpais-gpc": 4.3e-4, "cis": 1.7e-3, "ncis": 1.7e-3})


@pytest.fixture(scope="module")
def scenario():
    cfg = ExperimentConfig(packet_len=40, training_len=20, seed=3)
    dims = cfg.dims()
    rng_ch = harness.trial_rngs(cfg.seed, 0)[0]
    scn = harness.draw_scenario(dims, harness.codes_for(cfg, dims.K),
                                harness.snr_db_to_sigma2(12.0), 3.0, rng_ch)
    return cfg, scn


class TestAmplitudeChecks:
    @pytest.mark.parametrize("scheme", ["cis", "jpais-ipc", "jpais-gpc"])
    def test_designs_pass_and_corruptions_fail(self, scenario, scheme):
        cfg, scn = scenario
        _, amps = harness.design_exact(scn, scheme, cfg)
        assert checks.check_amplitudes(scheme, amps) == []
        assert checks.check_amplitudes(scheme, amps * 1.001)
        assert checks.check_amplitudes(scheme, amps * (1.0 + 1e-9))
        assert checks.check_amplitudes(scheme, np.asarray(amps) * 1j)
        flipped = np.real(amps).copy()
        flipped[0, 0] = -flipped[0, 0]
        assert checks.check_amplitudes(scheme, flipped)

    def test_ipc_budget_is_per_user(self):
        amps = np.zeros((K, 3))
        amps[:, 0] = 1.0
        assert checks.check_amplitudes("jpais-ipc", amps) == []
        amps[0, 0], amps[1, 0] = np.sqrt(1.5), np.sqrt(0.5)  # global sum still K
        assert checks.check_amplitudes("jpais-ipc", amps)
        assert checks.check_amplitudes("jpais-gpc", amps) == []


def packet(norms, errors, diverged=False, bit_errors=10):
    return PacketResult(bit_errors=bit_errors, payload_bits=2 * K * (P - T), diverged=diverged,
                        extras={"a_sq_norms": np.asarray(norms, dtype=float),
                                "channel_error": np.asarray(errors, dtype=float)})


class TestAdaptivePacketCheck:
    def test_good_packet_passes(self):
        assert checks.check_adaptive_packet("jpais-gpc", packet([4.0] * 5, [0.5, 0.05]), K) == []
        assert checks.check_adaptive_packet("jpais-ipc", packet([1.0] * 5, [0.5, 0.05]), K) == []

    def test_budget_off_at_one_symbol_fails(self):
        assert checks.check_adaptive_packet("jpais-gpc",
                                            packet([4.0, 4.0 + 1e-8, 4.0], [0.05]), K)
        assert checks.check_adaptive_packet("jpais-ipc", packet([1.0, 4.0], [0.05]), K)

    def test_channel_error_and_divergence_fail(self):
        assert checks.check_adaptive_packet("jpais-gpc", packet([4.0], [0.05, 0.1]), K)
        assert checks.check_adaptive_packet("jpais-gpc", packet([4.0], [0.05], True), K)
        assert checks.check_adaptive_packet("jpais-gpc", packet([], []), K)

    def test_ber_at_ceiling_fails(self):
        at_ceiling = int(checks.ADAPTIVE_BER_CEILING * 2 * K * (P - T))
        assert checks.check_adaptive_packet(
            "jpais-gpc", packet([4.0], [0.05], bit_errors=at_ceiling - 1), K) == []
        assert checks.check_adaptive_packet(
            "jpais-gpc", packet([4.0], [0.05], bit_errors=at_ceiling), K)


def bindings():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer.WRAP_POINTS]


class TestTracer:
    def test_self_time_excludes_children(self):
        tr = tracer.Tracer()
        tr.names = ["outer", "inner"]
        tr.spans = [[0, 0.0, 10.0, -1], [1, 2.0, 5.0, 0], [1, 6.0, 7.0, 0]]
        calls, total, own = tr.totals()
        assert calls == {"outer": 1, "inner": 2}
        assert total == {"outer": 10.0, "inner": 4.0}
        assert own == {"outer": 6.0, "inner": 4.0}
        assert tracer.self_seconds(tr) == 10.0

    @pytest.mark.parametrize("scheme,variant", [("jpais-gpc", "exact"),
                                                ("jpais-ipc", "exact"),
                                                ("jpais-gpc", "adaptive"),
                                                ("jpais-ipc", "adaptive")])
    def test_traced_run_restores_and_measures(self, scheme, variant):
        before = bindings()
        cfg = ExperimentConfig(scheme=scheme, variant=variant, packet_len=30,
                               training_len=10, trials=1, snr_grid=(9.0,), seed=2)
        plain = harness.run_experiment(cfg).rows
        tr = tracer.Tracer()
        with tr.installed():
            traced = harness.run_experiment(cfg).rows
        assert bindings() == before
        assert traced == plain
        symbols = cfg.packet_len if variant == "adaptive" else 0
        metrics = tracer.layer_metrics(tr, 1, 1, symbols)
        assert set(metrics) == {m[0] for m in tracer.LAYER_METRICS}
        if variant == "exact":
            assert metrics["mmse.alternate.iterations_per_design"]["value"] >= 1
            assert metrics["harness.simulate_packet_exact.self_ms_per_packet"]["value"] > 0
            assert metrics["rlscore.correlation_gain.calls_per_symbol"]["value"] == 0
        else:
            rows = 54 if scheme == "jpais-gpc" else 216
            assert metrics["rlscore.ExpWeightedInverse.update_rows.rows_per_symbol"][
                "value"] == rows
            layer = "gpc.power_update" if scheme == "jpais-gpc" else "ipc.user_power_update"
            assert metrics[f"{layer}.us_per_symbol"]["value"] > 0
            assert metrics["mmse.alternate.ms_per_packet"]["value"] == 0

    def test_restores_after_an_exception(self):
        before = bindings()
        with pytest.raises(RuntimeError):
            with tracer.Tracer().installed():
                assert bindings() != before
                raise RuntimeError("inside traced section")
        assert bindings() == before

    def test_pinv_fallbacks_are_counted(self):
        tr = tracer.Tracer()
        with tr.installed():
            mmse._checked_solve(np.zeros((3, 3)), np.ones(3), "singular")
        assert tr.counters["pinv_fallbacks"] == 1


class TestCalibration:
    def test_scaling_is_relative_to_the_reference(self):
        assert calibrate.scaled(2.0, calibrate.REFERENCE_S) == 2.0
        assert calibrate.scaled(2.0, 2 * calibrate.REFERENCE_S) == 1.0

    def test_reference_pass_takes_time(self):
        assert calibrate.seconds() > 0.0
