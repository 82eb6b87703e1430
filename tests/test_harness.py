"""End-to-end packet simulation: scheme parity, determinism, aggregation."""

import dataclasses
import json
import math

import numpy as np
import pytest

import coopcdma
from conftest import (destination_noise_columns, poisoned, scenario_omega,
                      stacked_signature, trial_soft_outputs)
from coopcdma import cli, gpc, mmse
from coopcdma.errors import (ConfigError, DegenerateStateError,
                             IllConditionedError, NumericalDivergenceError,
                             TrialFailure)
from coopcdma.harness import (BerCurve, ExperimentConfig,
                              _noise_matrix, _packet_result, _run_points,
                              capacity_at_target, codes_for, design_exact,
                              draw_scenario, exact_draws, learning_curve,
                              run_experiment,
                              run_packet, run_user_sweep,
                              simulate_packet_exact, snr_db_to_sigma2,
                              trial_rngs)
from coopcdma.mmse import equal_power_amps
from coopcdma.model import demodulate_qpsk


def small_cfg(**kw):
    base = dict(users=2, chips=8, paths=2, relays=1, packet_len=300,
                training_len=60, trials=2, snr_grid=(9.0,), seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_are_desk_scale(self):
        cfg = ExperimentConfig()
        assert cfg.chips == 16 and cfg.paths == 3 and cfg.packet_len == 1500
        assert cfg.training_len == 200 and cfg.alpha == 0.998

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scheme="bogus")

    def test_rejects_training_longer_than_packet(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(packet_len=100, training_len=100)

    def test_no_relaying_scheme_forces_zero_relays(self):
        cfg = ExperimentConfig(scheme="ncis", relays=2)
        assert cfg.relays == 0
        assert cfg.dims().hops == 1

    def test_dims_carry_the_configured_user_count(self):
        cfg = dataclasses.replace(ExperimentConfig(users=4, relays=2), users=6)
        assert cfg.dims().K == 6
        assert cfg.dims().stack == 3 * 18

    @pytest.mark.parametrize("field", ["users", "chips", "paths", "relays",
                                       "packet_len", "training_len", "trials",
                                       "mmse_iters", "alpha"])
    def test_rejects_a_count_past_the_index_limit(self, field):
        """A count no BLAS index can address is refused at the boundary,
        naming its field, not left to fail inside numpy; 2**31 - 1 passes.
        So is a forgetting factor alpha above 1, its field's other upper
        bound; 1.0 passes."""
        high, over = (1.0, 1.5) if field == "alpha" else (2**31 - 1, 2**31)
        with pytest.raises(ConfigError, match=f"^{field}: must be at most "
                                              f"{high}, got {over}$"):
            ExperimentConfig(**{field: over})
        if field != "training_len":  # which must stay below packet_len
            assert getattr(ExperimentConfig(**{field: high}), field) == high

    def test_rejects_chips_2_to_the_70(self):
        """The reported case, which passed the boundary and ended in numpy's
        'Maximum allowed dimension exceeded' once a run drew the codes."""
        with pytest.raises(ConfigError, match="^chips: must be at most"):
            dataclasses.replace(small_cfg(), chips=2**70)

    def test_rejects_fewer_than_one_user(self):
        with pytest.raises(ConfigError, match="users"):
            ExperimentConfig(users=0)
        with pytest.raises(ConfigError, match="users"):
            dataclasses.replace(ExperimentConfig(users=3), users=0)

    @pytest.mark.parametrize("grid", [[0, 2], [2.5], ["3"], [True], []])
    def test_user_sweep_rejects_zero_users_instead_of_relabelling(
            self, grid, monkeypatch):
        """Each count of the grid is checked as ExperimentConfig.users is,
        and an empty grid refused, before any packet runs: 2.5 no longer runs
        as 2, nor [] as an empty curve. No scenario is drawn, so no packet
        runs."""
        from coopcdma import harness
        monkeypatch.setattr(harness, "draw_scenario",
                            lambda *a, **k: pytest.fail("a packet ran"))
        with pytest.raises(ConfigError, match="^users: "):
            run_user_sweep(small_cfg(users=3, trials=1, snr_grid=(12.0,)),
                           grid)

    @pytest.mark.parametrize("kw,field", [
        (dict(trials=2.5), "trials"),
        (dict(packet_len=30.0, training_len=10), "packet_len"),
        (dict(users="4"), "users"), (dict(alpha="0.9"), "alpha"),
        (dict(snr_grid=6.0), "snr_grid"), (dict(isi="no"), "isi"),
        (dict(seed=True), "seed"), (dict(relays=True), "relays"),
        (dict(snr_grid=(True,)), "snr_grid"),
    ])
    def test_rejects_a_value_of_the_wrong_type(self, kw, field):
        """A value of another type than the field's default is refused at
        construction, not failed deep in a run, run as something else
        ("no" as ISI on) or taken as 1 (a bool)."""
        with pytest.raises(ConfigError, match=f"^{field}: expected "):
            ExperimentConfig(**kw)

    def test_numpy_scalars_are_stored_as_python_types(self):
        cfg = ExperimentConfig(users=np.int64(3), chips=np.int32(8),
                               seed=np.uint8(7), alpha=np.float32(0.5),
                               lam=np.float64(0.25), isi=np.bool_(False),
                               scheme=np.str_("cis"),
                               snr_grid=np.array([3, 9.5]))
        for f in dataclasses.fields(cfg):
            assert type(getattr(cfg, f.name)) is type(f.default), f.name
        assert [type(snr) for snr in cfg.snr_grid] == [float, float]
        assert cfg == ExperimentConfig(users=3, chips=8, seed=7, alpha=0.5,
                                       lam=0.25, isi=False, scheme="cis",
                                       snr_grid=(3.0, 9.5))

    @pytest.mark.parametrize("field", ["lam", "lam_t"])
    def test_rejects_negative_loading(self, field):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: -0.5})

    @pytest.mark.parametrize("field,value", [
        ("chips", 0), ("paths", 0), ("relays", -1), ("mmse_iters", 0),
        ("mmse_tol", 0.0), ("mmse_tol", -1e-6), ("mmse_tol", float("nan")),
        ("mmse_tol", float("inf")),
        ("delta", 0.0), ("delta", -1.0), ("delta", float("nan")),
        ("delta", float("inf")),
        ("shadowing_std_db", -1.0), ("shadowing_std_db", float("nan")),
        ("shadowing_std_db", float("inf")),
        ("snr_grid", (0.0, float("nan"))), ("snr_grid", (float("inf"),)),
        ("snr_grid", (float("-inf"), 6.0)), ("snr_grid", ()),
        ("snr_grid", (4000.0,)), ("snr_grid", (6.0, -4000.0)),
        ("snr_grid", (-3100.0,)), ("seed", -1),
        ("lam", float("inf")), ("lam_t", float("nan")),
    ])
    def test_rejects_out_of_range_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: value})

    def test_boundary_values_are_accepted(self):
        cfg = ExperimentConfig(chips=1, paths=1, relays=0, mmse_iters=1,
                               shadowing_std_db=0.0, snr_grid=(-10.0, 30.0))
        assert cfg.relays == 0 and cfg.mmse_iters == 1

    @pytest.mark.parametrize("variant", ["exact", "adaptive"])
    def test_list_snr_grid_is_the_tuple_grid(self, variant):
        """A list grid is stored as a tuple: the config equals and hashes as
        the tuple grid's (the exact designs are cached by config), and the
        rows are the same."""
        kw = dict(variant=variant, trials=2, packet_len=80, training_len=20)
        listed = small_cfg(snr_grid=[6.0, 12.0], **kw)
        tupled = small_cfg(snr_grid=(6.0, 12.0), **kw)
        assert listed.snr_grid == (6.0, 12.0)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert run_experiment(listed).rows == run_experiment(tupled).rows

    def test_ncis_still_rejects_negative_relays(self):
        with pytest.raises(ConfigError, match="relays"):
            ExperimentConfig(scheme="ncis", relays=-1)


class TestHelpers:
    def test_snr_conversion(self):
        assert snr_db_to_sigma2(0.0) == pytest.approx(1.0)
        assert snr_db_to_sigma2(10.0) == pytest.approx(0.1)
        assert snr_db_to_sigma2(3.0) == pytest.approx(10 ** -0.3)

    def test_equal_power_amps_split_budget(self):
        dims = ExperimentConfig(users=3, relays=2).dims()
        amps = equal_power_amps(dims.K, dims.hops)
        assert amps.shape == (3, 3)
        np.testing.assert_allclose(np.sum(amps ** 2, axis=1), 1.0, atol=1e-12)
        assert np.ptp(amps) == 0.0

    def test_trial_rngs_reproducible_and_independent(self):
        a = trial_rngs(1, 5)
        b = trial_rngs(1, 5)
        c = trial_rngs(1, 6)
        assert len(a) == 4
        for ga, gb, gc in zip(a, b, c):
            x, y, z = ga.random(4), gb.random(4), gc.random(4)
            np.testing.assert_array_equal(x, y)
            assert not np.array_equal(x, z)

    def test_codes_do_not_depend_on_trial_parameters(self):
        cfg1 = small_cfg(trials=2)
        cfg2 = small_cfg(trials=7, snr_grid=(0.0, 6.0))
        np.testing.assert_array_equal(codes_for(cfg1, 2), codes_for(cfg2, 2))

    @pytest.mark.parametrize("error", [DegenerateStateError,
                                       IllConditionedError,
                                       NumericalDivergenceError])
    def test_each_trial_error_is_a_trial_failure(self, error):
        """The exact design and the packets catch one family, exported by
        the package."""
        assert issubclass(error, TrialFailure)
        assert issubclass(TrialFailure, RuntimeError)
        assert coopcdma.TrialFailure is TrialFailure
        assert "TrialFailure" in coopcdma.__all__

    def test_noise_matrix_bitwise_matches_complex_expression(self):
        """In-place fill equals scale*(a + 1j*b) drawn from the same state:
        one (2, *shape) draw is a then b, as is a generator that draws a,
        then b."""
        sigma2 = 0.37
        scale = np.sqrt(sigma2 / 2.0)
        shape = (54, 150)
        rng_a, rng_b, rng_c = (np.random.default_rng(7) for _ in range(3))
        ref = scale * (rng_a.standard_normal(shape)
                       + 1j * rng_a.standard_normal(shape))
        out = _noise_matrix(rng_b.standard_normal((2, *shape)), sigma2)
        drawn = _noise_matrix((rng_c.standard_normal(shape) for _ in "ri"),
                              sigma2)
        for got in (out, drawn):
            assert got.dtype == np.complex128 and got.shape == shape
            assert np.array_equal(got, ref)
        # the generators consumed the same draws
        assert rng_a.random() == rng_b.random() == rng_c.random()


class TestPacketResult:
    @pytest.mark.parametrize("n", [1500, 731, 1, 0])
    def test_per_symbol_errors_match_the_axis_sum(self, rng, n):
        """The per-symbol error counts are the integers of summing the
        K x n x 2 error array over users and bit pairs, for a whole packet
        and for a short (diverged) one, whose later symbols count none;
        also with more users than a byte counts errors of."""
        P, T = 1500, 200
        for K in (4, 200):
            bits = rng.integers(0, 2, size=(K, P, 2))
            soft = (rng.standard_normal((K, n))
                    + 1j * rng.standard_normal((K, n)))
            res = _packet_result(soft, bits, T)
            want = np.zeros(P, dtype=np.int64)
            want[:n] = (demodulate_qpsk(soft) != bits[:, :n]).sum(axis=(0, 2))
            assert res.per_symbol_errors.dtype == want.dtype
            assert res.per_symbol_errors.tobytes() == want.tobytes()
            assert res.bit_errors == int(want[T:].sum())
            assert res.payload_bits == 2 * (P - T) * K


class TestCapacityAtTarget:
    def make_curve(self, rows):
        return BerCurve(x_name="users", rows=rows, scheme="cis",
                        variant="exact", divergences=0)

    def test_largest_feasible_point(self):
        curve = self.make_curve([(2, 1e-4, 0, 100), (4, 5e-3, 0, 100),
                                 (6, 2e-2, 0, 100), (8, 9e-3, 0, 100)])
        assert capacity_at_target(curve, 1e-2) == 8

    def test_none_when_nothing_feasible(self):
        curve = self.make_curve([(2, 0.2, 0, 100), (4, 0.3, 0, 100)])
        assert capacity_at_target(curve, 1e-2) is None

    def test_dict_form(self):
        curves = {"cis": self.make_curve([(2, 1e-3, 0, 100)]),
                  "ncis": self.make_curve([(2, 0.5, 0, 100)])}
        out = {name: capacity_at_target(c, 1e-2) for name, c in curves.items()}
        assert out == {"cis": 2, "ncis": None}


class TestSchemeParity:
    def test_no_relay_suppression_equals_individual_scheme_without_relays(
            self, monkeypatch):
        """NCIS is JPAIS-IPC restricted to the direct link, and so is one-user
        JPAIS-GPC: each block holds one link, whose unit budget pins its
        power. Such a packet runs as ncis without an alternation: identical
        errors in both variants and identical exact filters."""
        def no_alternation(*args, **kwargs):
            raise AssertionError("a pinned power constraint ran mmse.alternate")

        monkeypatch.setattr(mmse, "alternate", no_alternation)

        def packet(scheme, users, variant):
            cfg = small_cfg(scheme=scheme, users=users, relays=0,
                            variant=variant)
            dims = cfg.dims()
            assert dims.hops == 1
            rng_ch, rng_data, rng_noise, rng_init = trial_rngs(cfg.seed, 0)
            scn = draw_scenario(dims, codes_for(cfg, dims.K),
                                snr_db_to_sigma2(9.0), cfg.shadowing_std_db,
                                rng_ch, isi_enabled=cfg.isi)
            if variant == "adaptive":
                res = run_packet(cfg, scn, rng_data, rng_noise, rng_init)
                return None, res.per_symbol_errors
            W, amps = design_exact(scn, cfg.scheme, cfg)
            (res,) = simulate_packet_exact([scn], cfg,
                                           exact_draws(dims, rng_data,
                                                       rng_noise))
            return W, res.per_symbol_errors

        for scheme, users in (("jpais-ipc", 2), ("jpais-ipc", 3),
                              ("jpais-gpc", 1)):
            for variant in ("exact", "adaptive"):
                W_ncis, err_ncis = packet("ncis", users, variant)
                W, err = packet(scheme, users, variant)
                assert np.array_equal(err, err_ncis), (scheme, users, variant)
                if variant == "exact":
                    assert np.array_equal(W, W_ncis), (scheme, users)

    def test_equal_power_scheme_uses_equal_amplitudes(self):
        cfg = small_cfg(scheme="cis")
        dims = cfg.dims()
        rngs = trial_rngs(cfg.seed, 0)
        scn = draw_scenario(dims, codes_for(cfg, dims.K),
                            snr_db_to_sigma2(9.0), cfg.shadowing_std_db,
                            rngs[0], isi_enabled=cfg.isi)
        _, amps = design_exact(scn, "cis", cfg)
        np.testing.assert_allclose(amps, equal_power_amps(dims.K, dims.hops),
                                   atol=1e-12)

    def test_constrained_schemes_respect_their_budgets(self):
        cfg = small_cfg()
        dims = cfg.dims()
        rngs = trial_rngs(cfg.seed, 0)
        scn = draw_scenario(dims, codes_for(cfg, dims.K),
                            snr_db_to_sigma2(9.0), cfg.shadowing_std_db,
                            rngs[0], isi_enabled=cfg.isi)
        _, amps_i = design_exact(scn, "jpais-ipc", cfg)
        np.testing.assert_allclose(np.sum(np.abs(amps_i) ** 2, axis=1), 1.0,
                                   atol=1e-10)
        _, amps_g = design_exact(scn, "jpais-gpc", cfg)
        assert abs(np.sum(np.abs(amps_g) ** 2) - dims.K) < 1e-10


class TestDeterminism:
    def test_identical_runs_produce_identical_curves(self):
        cfg = small_cfg(variant="adaptive", scheme="jpais-ipc")
        c1 = run_experiment(cfg)
        c2 = run_experiment(cfg)
        assert c1.rows == c2.rows

    def test_seed_changes_the_results(self):
        c1 = run_experiment(small_cfg(seed=3))
        c2 = run_experiment(small_cfg(seed=4))
        assert c1.rows != c2.rows

    def test_points_are_independent_of_grid_composition(self):
        """Each grid point's result only depends on (seed, trial, point)."""
        full = run_experiment(small_cfg(snr_grid=(6.0, 12.0)))
        only = run_experiment(small_cfg(snr_grid=(12.0,)))
        assert full.rows[1] == only.rows[0]


class TestAggregation:
    def test_ber_decreases_with_snr(self):
        cfg = small_cfg(snr_grid=(0.0, 15.0), trials=3, scheme="jpais-ipc")
        curve = run_experiment(cfg)
        assert curve.rows[0][1] > curve.rows[1][1]

    def test_curve_metadata_and_counts(self):
        cfg = small_cfg()
        curve = run_experiment(cfg)
        assert curve.x_name == "snr_db"
        assert len(curve.rows) == 1
        x, mean, stderr, bits = curve.rows[0]
        assert x == 9.0 and 0.0 <= mean <= 1.0 and stderr >= 0.0
        payload = cfg.packet_len - cfg.training_len
        assert bits == 2 * payload * cfg.users * cfg.trials

    @pytest.mark.parametrize("grid", [[2, 3], np.arange(2, 4)])
    def test_user_sweep_axis(self, grid):
        cfg = small_cfg(trials=1)
        curve = run_user_sweep(cfg, grid)
        assert curve.x_name == "users"
        assert [row[0] for row in curve.rows] == [2, 3]
        assert [type(row[0]) for row in curve.rows] == [int, int]

    def test_degenerate_exact_draw_counts_as_divergence(self, monkeypatch):
        """A degenerate relay draw skips that trial, not the whole sweep: the
        relays of the first trial fail every relay stack that holds them."""
        from coopcdma import harness
        real, first = harness.mmse_relay_bank, []

        def first_trial_degenerate(x_sr, sigma2):
            if not first:
                first.append(x_sr[0].copy())
            if any(np.array_equal(x, first[0]) for x in x_sr):
                raise DegenerateStateError("relay filter output power is zero")
            return real(x_sr, sigma2)

        monkeypatch.setattr(harness, "mmse_relay_bank", first_trial_degenerate)
        cfg = small_cfg(scheme="cis", variant="exact", trials=2)
        curve = run_experiment(cfg)
        assert curve.divergences == 1
        _, mean, _, bits = curve.rows[0]
        assert np.isfinite(mean)
        assert bits == 2 * (cfg.packet_len - cfg.training_len) * cfg.users

    def test_fixed_snr_runs_refuse_an_snr_grid(self, monkeypatch):
        """A user sweep or learning curve over two SNRs raises before any
        packet runs, instead of running only the first SNR: no scenario is
        drawn."""
        from coopcdma import harness

        def no_packet(*args, **kwargs):
            raise AssertionError("a packet ran")

        monkeypatch.setattr(harness, "draw_scenario", no_packet)
        cfg = small_cfg(snr_grid=(0.0, 18.0))
        with pytest.raises(ConfigError, match="snr_grid"):
            run_user_sweep(cfg, [2, 3])
        with pytest.raises(ConfigError, match="snr_grid"):
            learning_curve(cfg)

    def test_learning_curve_covers_payload(self):
        cfg = small_cfg(variant="adaptive", trials=2)
        curve = learning_curve(cfg)
        assert curve.x_name == "symbol"
        assert len(curve.rows) == cfg.packet_len
        # early decision-directed symbols sit near chance, later ones improve
        head = np.mean([row[1] for row in curve.rows[:5]])
        tail = np.mean([row[1] for row in curve.rows[-50:]])
        assert tail < head

    def test_learning_curve_with_every_trial_diverged(self, monkeypatch):
        """No surviving trial reads nan over 0 bits, as in run_experiment."""
        from coopcdma import harness

        def diverge(cfg, *args, **kwargs):
            return harness.PacketResult(
                bit_errors=0, payload_bits=0, diverged=True,
                per_symbol_errors=np.zeros(cfg.packet_len, dtype=np.int64))

        monkeypatch.setattr(harness, "run_packet", diverge)
        cfg = small_cfg(scheme="jpais-gpc", variant="adaptive", trials=2)
        curve = learning_curve(cfg)
        assert curve.divergences == 2
        assert len(curve.rows) == cfg.packet_len
        for i, (x, ber, stderr, bits) in enumerate(curve.rows):
            assert x == i and np.isnan(ber) and stderr == 0.0 and bits == 0
        _, ber, stderr, bits = run_experiment(cfg).rows[0]
        assert np.isnan(ber) and stderr == 0.0 and bits == 0

    @pytest.mark.parametrize("scheme", ["cis", "jpais-gpc", "jpais-ipc"])
    def test_adaptive_relay_divergence_counts_once(self, scheme,
                                                   monkeypatch):
        """An adaptive packet whose relay receiver diverges (a nan
        source-relay waveform in its scenario) is one divergence; the other
        trial keeps the BER it has without the poison."""
        from coopcdma import harness
        real, drawn = harness.draw_scenario, []

        def draw(*args, **kwargs):
            scn = real(*args, **kwargs)
            if not drawn:
                scn.x_sr[-1][0, 0] = np.nan
            drawn.append(scn)
            return scn

        cfg = small_cfg(scheme=scheme, variant="adaptive", trials=2,
                        packet_len=120, training_len=40)
        (clean, clean_div, _), = _run_points(cfg, [9.0])
        monkeypatch.setattr(harness, "draw_scenario", draw)
        (bers, divergences, _), = _run_points(cfg, [9.0])
        assert clean_div == 0 and divergences == 1
        assert bers == clean[1:]

    @staticmethod
    def poisoned_packet(monkeypatch, scheme, relay_symbol=None,
                        destination_symbol=None):
        """One adaptive packet with a nan in a relay's observation of
        relay_symbol, or in the destination noise of destination_symbol."""
        from coopcdma import harness
        cfg = small_cfg(scheme=scheme, variant="adaptive", relays=2,
                        packet_len=120, training_len=40)
        dims = cfg.dims()
        real_frames, real_noise = harness._relay_frames, harness._noise_matrix

        def frames(*args):
            out = real_frames(*args)
            if relay_symbol is not None:
                out[1, 2, relay_symbol] = np.nan
            return out

        def noise(normals, *args, **kwargs):
            out = real_noise(normals, *args, **kwargs)
            if destination_symbol is not None and out.shape == (dims.stack,
                                                                dims.P):
                out[5, destination_symbol] = np.nan
            return out

        monkeypatch.setattr(harness, "_relay_frames", frames)
        monkeypatch.setattr(harness, "_noise_matrix", noise)
        rng_ch, *rngs = trial_rngs(cfg.seed, 0)
        scn = draw_scenario(dims, codes_for(cfg, dims.K),
                            snr_db_to_sigma2(9.0), cfg.shadowing_std_db,
                            rng_ch, isi_enabled=cfg.isi)
        return run_packet(cfg, scn, *rngs)

    @pytest.mark.parametrize("scheme", ["cis", "jpais-gpc", "jpais-ipc"])
    @pytest.mark.parametrize("stage,symbol", [("relay", 17), ("relay", 55),
                                              ("destination", 17),
                                              ("destination", 70)])
    def test_diverged_packet_records_where(self, scheme, stage, symbol,
                                           monkeypatch):
        """A poisoned relay observation or destination noise sample ends the
        packet at its symbol, in training (17) or on decisions, and the
        packet records the stage, the symbol and the reason; no symbol after
        the last one detected counts an error."""
        res = self.poisoned_packet(monkeypatch, scheme, **{
            f"{stage}_symbol": symbol})
        assert res.diverged
        assert res.extras["divergence"] == (
            stage, symbol, "NumericalDivergenceError: non-finite entries in "
            "receiver a-priori error")
        detected = symbol + 1 if stage == "destination" else 0
        assert not res.per_symbol_errors[detected:].any()

    def test_packet_that_kept_going_records_no_divergence(self,
                                                          monkeypatch):
        res = self.poisoned_packet(monkeypatch, "jpais-gpc")
        assert not res.diverged and "divergence" not in res.extras

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("K,n_r,L", [(4, 2, 3), (1, 0, 2), (3, 1, 1),
                                         (2, 2, 2)])
    @pytest.mark.parametrize("isi", [True, False])
    @pytest.mark.parametrize("scheme", ["ncis", "cis", "jpais-gpc",
                                        "jpais-ipc"])
    def test_initial_filters_match_the_stacked_signature(
            self, scheme, isi, K, n_r, L, seed, monkeypatch):
        """The adaptive receiver starts from the bytes of each user's
        equal-power composite waveform formed through the kron-built stacked
        signature: the initial taps mapped onto every link, weighted by the
        equal amplitudes, summed over the hops and normalized."""
        captured = []
        real = gpc.init_receiver

        def spy(W0, *args):
            captured.append(W0)
            return real(W0, *args)

        monkeypatch.setattr(gpc, "init_receiver", spy)
        cfg = small_cfg(scheme=scheme, variant="adaptive", users=K,
                        relays=n_r, paths=L, isi=isi, seed=seed,
                        packet_len=12, training_len=4)
        dims = cfg.dims()
        hops, stack = dims.hops, dims.stack
        codes = codes_for(cfg, K)
        rng_ch, rng_data, rng_noise, rng_init = trial_rngs(seed, 0)
        scn = draw_scenario(dims, codes, snr_db_to_sigma2(9.0),
                            cfg.shadowing_std_db, rng_ch, isi_enabled=isi)
        run_packet(cfg, scn, rng_data, rng_noise, rng_init)
        rng_init = trial_rngs(seed, 0)[3]
        h0 = 0.01 * (rng_init.standard_normal(K * hops * L)
                     + 1j * rng_init.standard_normal(K * hops * L))
        U0 = gpc.waveforms_from_channel(stacked_signature(codes, L, hops), h0,
                                        L)
        amps = equal_power_amps(K, hops).astype(complex)
        W0 = (U0.reshape(stack, K, hops) * amps).sum(-1)
        nrm = np.linalg.norm(W0, axis=0)
        W0 = W0 / np.where(nrm > 0, nrm, 1.0)
        assert len(captured) == 1
        assert captured[0].tobytes() == W0.tobytes()

    @pytest.mark.parametrize("variant", ["exact", "adaptive"])
    @pytest.mark.parametrize("scheme", ["cis", "jpais-gpc"])
    def test_per_symbol_errors_add_up_to_packet_count(self, scheme, variant):
        """The payload's per-symbol errors sum to the packet's bit errors."""
        cfg = small_cfg(scheme=scheme, variant=variant)
        dims = cfg.dims()
        for trial in range(cfg.trials):
            rng_ch, rng_data, rng_noise, rng_init = trial_rngs(cfg.seed, trial)
            scn = draw_scenario(dims, codes_for(cfg, dims.K),
                                snr_db_to_sigma2(9.0), cfg.shadowing_std_db,
                                rng_ch, isi_enabled=cfg.isi)
            res = run_packet(cfg, scn, rng_data, rng_noise, rng_init)
            assert not res.diverged
            assert res.per_symbol_errors.shape == (cfg.packet_len,)
            assert (res.per_symbol_errors[cfg.training_len:].sum()
                    == res.bit_errors)

    @pytest.mark.parametrize("variant", ["exact", "adaptive"])
    @pytest.mark.parametrize("scheme", ["ncis", "cis", "jpais-gpc", "jpais-ipc"])
    def test_relay_banks_solved_once_per_exact_packet(self, scheme, variant,
                                                      monkeypatch):
        """An exact packet solves its relays' MMSE banks in one call on the
        relay stack (an empty one without relays), shared by the design and
        the packet; an adaptive packet solves none. Both modules that look
        the bank up are counted."""
        from coopcdma import harness, relays
        real, calls = relays.mmse_relay_bank, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(harness, "mmse_relay_bank", counted)
        monkeypatch.setattr(relays, "mmse_relay_bank", counted)
        cfg = small_cfg(scheme=scheme, variant=variant, relays=2)
        dims = cfg.dims()
        rng_ch, rng_data, rng_noise, rng_init = trial_rngs(cfg.seed, 0)
        scn = draw_scenario(dims, codes_for(cfg, dims.K), snr_db_to_sigma2(9.0),
                            cfg.shadowing_std_db, rng_ch, isi_enabled=cfg.isi)
        run_packet(cfg, scn, rng_data, rng_noise, rng_init)
        assert len(calls) == (1 if variant == "exact" else 0)

    @pytest.mark.parametrize("scheme", ["cis", "jpais-gpc"])
    def test_adaptive_packet_forms_no_padded_waveform_matrix(self, scheme):
        """An adaptive packet builds its link frames from the per-hop
        waveforms: the scenario keeps no padded U and no exact design."""
        cfg = small_cfg(scheme=scheme, variant="adaptive", packet_len=60,
                        training_len=20)
        dims = cfg.dims()
        rng_ch, rng_data, rng_noise, rng_init = trial_rngs(cfg.seed, 0)
        scn = draw_scenario(dims, codes_for(cfg, dims.K), snr_db_to_sigma2(9.0),
                            cfg.shadowing_std_db, rng_ch, isi_enabled=cfg.isi)
        assert not run_packet(cfg, scn, rng_data, rng_noise,
                              rng_init).diverged
        assert "U" not in vars(scn) and scn.designs == {}

    def test_destination_decides_only_payload_symbols(self, monkeypatch):
        """The adaptive destination makes a hard decision per payload symbol
        only: training symbols are their own reference."""
        from coopcdma import harness
        real, decided = harness.hard_decision, []

        def counted(soft):
            decided.append(soft.shape)
            return real(soft)

        monkeypatch.setattr(harness, "hard_decision", counted)
        cfg = small_cfg(scheme="jpais-gpc", variant="adaptive")
        dims = cfg.dims()
        rng_ch, rng_data, rng_noise, rng_init = trial_rngs(cfg.seed, 0)
        scn = draw_scenario(dims, codes_for(cfg, dims.K), snr_db_to_sigma2(9.0),
                            cfg.shadowing_std_db, rng_ch, isi_enabled=cfg.isi)
        res = run_packet(cfg, scn, rng_data, rng_noise, rng_init)
        assert not res.diverged
        assert decided == [(dims.K,)] * (cfg.packet_len - cfg.training_len)

    def test_config_round_trip_through_metadata(self):
        """The config a result file's manifest records rebuilds the run's."""
        cfg = small_cfg()
        curve = run_experiment(cfg)
        manifest = cli.RunManifest(config=dataclasses.asdict(cfg), version="0",
                                   wall_time_s=0.0,
                                   divergences=curve.divergences)
        recorded = json.loads(cli.curves_to_json([curve], manifest))
        config = recorded["manifest"]["config"]
        config["snr_grid"] = tuple(config["snr_grid"])
        assert ExperimentConfig(**config) == cfg


def dead_relay(scn, rng):
    """The first relay hears nothing from user 0: its MMSE bank fails. The
    scenario gets waveforms of its own, so that the scenarios of the
    trial's other points keep theirs."""
    scn.x_sr = scn.x_sr.copy()
    scn.x_sr[0][:, 0] = 0.0


def nan_waveform(scn, rng):
    scn.x_dest = poisoned(scn.x_dest, np.nan, rng)


def nan_relay(scn, rng):
    """A nan in one relay's waveforms: its relay covariance fails the bank's
    finiteness check."""
    scn.x_sr = poisoned(scn.x_sr, np.nan, rng)


def zero_waveforms(scn, rng):
    """No link reaches the destination: the power solution is zero."""
    scn.x_dest = np.zeros_like(scn.x_dest)


def trial_of(rng_ch) -> int:
    """The trial index of a trial_rngs channel stream."""
    return rng_ch.bit_generator.seed_seq.entropy[2]


def exact_point(monkeypatch, cfg, poison=None, poisoned_trial=3,
                poisoned_points=None, results=None):
    """run_experiment of an exact cfg, with poison applied to the scenarios
    of one trial at each of poisoned_points (at all of its points by
    default), and the PacketResult of each (point, trial) pair that reached
    its packet simulation. Given a dict results, it also collects the
    PacketResult of every pair that the sweep counted.

    A scenario's trial is that of the channel stream its draw took; the
    poison is applied as a chunk's stack is designed (_design_stack), after
    each trial's scenario was drawn once for all of its points."""
    from coopcdma import harness
    sigma2 = [snr_db_to_sigma2(snr) for snr in cfg.snr_grid]
    drawn, packets = [], {}
    real_draw, real_simulate = harness.draw_scenario, harness.simulate_packet_exact
    real_stack, real_chunk = harness._design_stack, harness._chunk_packets

    def pair(scn):
        """(point, trial) of a scenario: its channel is its trial's draw."""
        return (sigma2.index(scn.sigma2),
                next(t for h, t in drawn if h is scn.h_true))

    def draw(*args, **kwargs):
        scn = real_draw(*args, **kwargs)
        drawn.append((scn.h_true, trial_of(args[4])))
        return scn

    def design_stack(scenarios, *args):
        for scn in scenarios:
            p, t = pair(scn)
            if poison is not None and t == poisoned_trial and (
                    poisoned_points is None or p in poisoned_points):
                poison(scn, np.random.default_rng(7))
        return real_stack(scenarios, *args)

    def simulate(scns, *args, **kwargs):
        results = real_simulate(scns, *args, **kwargs)
        for scn, res in zip(scns, results):
            packets[pair(scn)] = res
        return results

    def chunk(cfg, dims, codes, trials, levels):
        pairs = [(sigma2.index(level), t) for t in trials for level in levels]
        for pair, res in zip(pairs, real_chunk(cfg, dims, codes, trials,
                                               levels)):
            if results is not None:
                results[pair] = res
            yield res

    with monkeypatch.context() as patch:
        patch.setattr(harness, "draw_scenario", draw)
        patch.setattr(harness, "_design_stack", design_stack)
        patch.setattr(harness, "simulate_packet_exact", simulate)
        patch.setattr(harness, "_chunk_packets", chunk)
        curve = run_experiment(cfg)
    return curve, packets


class TestPointDesigns:
    """The exact designs of a chunk's scenarios, solved as one stack and
    kept each on its own scenario."""

    @pytest.mark.parametrize("scheme,poison", [
        ("cis", nan_waveform), ("jpais-gpc", nan_waveform),
        ("jpais-ipc", nan_waveform), ("cis", dead_relay),
        ("jpais-gpc", dead_relay), ("jpais-ipc", dead_relay),
        ("jpais-gpc", zero_waveforms), ("jpais-ipc", zero_waveforms),
        ("cis", nan_relay), ("jpais-gpc", nan_relay),
        ("jpais-ipc", nan_relay)])
    def test_failed_design_diverges_alone(self, scheme, poison, monkeypatch):
        """One poisoned scenario in a point's stack of 8 counts as one
        divergence, whether its relay bank, its link factors or its power
        projection fails, and its packet records the failed design with no
        symbol detected; the other 7 packets keep the bit errors they have
        without the poison."""
        cfg = small_cfg(scheme=scheme, variant="exact", trials=8)
        clean, clean_packets = exact_point(monkeypatch, cfg)
        results = {}
        curve, packets = exact_point(monkeypatch, cfg, poison,
                                     results=results)
        assert clean.divergences == 0 and curve.divergences == 1
        assert sorted(packets) == [(0, t) for t in range(8) if t != 3]
        assert sorted(results) == [(0, t) for t in range(8)]
        failed = results[0, 3]
        assert failed.diverged and failed.bit_errors == 0
        assert np.array_equal(failed.per_symbol_errors,
                              np.zeros(cfg.packet_len))
        error = {nan_waveform: "IllConditionedError: ",
                 nan_relay: "IllConditionedError: relay covariance"}.get(
                     poison, "DegenerateStateError: ")
        stage, symbol, reason = failed.extras["divergence"]
        assert (stage, symbol) == ("design", None)
        assert reason.startswith(error)
        for t, res in packets.items():
            assert res.bit_errors == clean_packets[t].bit_errors
            assert np.array_equal(res.per_symbol_errors,
                                  clean_packets[t].per_symbol_errors)
        assert curve.rows[0][3] == 7 * clean.rows[0][3] // 8

    @pytest.mark.parametrize("scheme", ["ncis", "cis", "jpais-gpc",
                                        "jpais-ipc"])
    def test_every_packet_runs_the_design_of_its_own_scenario(
            self, scheme, monkeypatch):
        """harness.design_exact, wrapped from outside as the benchmark wraps
        it to check designed amplitudes, is called once per exact packet with
        that packet's own scenario, and the packet runs on the design the
        call returned: one simulate_packet_exact call per trial, on the
        trial's scenarios in point order, each holding the filters and
        amplitudes its call returned with its map. Each trial's scenario is
        drawn once; the packet of each of its points, trial by trial, has a
        scenario of that point's noise level on the trial's channel."""
        from coopcdma import harness
        real_design = harness.design_exact
        designs = []

        def record(scn, scheme, cfg, *args, **kwargs):
            W, amps = real_design(scn, scheme, cfg, *args, **kwargs)
            designs.append((scn, W, amps))
            return W, amps

        draws, ran = [], []
        real_draw = harness.draw_scenario
        real_simulate = harness.simulate_packet_exact

        def draw(*args, **kwargs):
            draws.append(real_draw(*args, **kwargs))
            return draws[-1]

        def simulate(scns, cfg, trial_draws):
            for scn in scns:
                W, amps, *_ = scn.designs[cfg.scheme, cfg]
                ran.append((scn, W, amps, trial_draws))
            return real_simulate(scns, cfg, trial_draws)

        monkeypatch.setattr(harness, "design_exact", record)
        monkeypatch.setattr(harness, "draw_scenario", draw)
        monkeypatch.setattr(harness, "simulate_packet_exact", simulate)
        cfg = small_cfg(scheme=scheme, variant="exact", trials=3,
                        snr_grid=(0.0, 9.0))
        assert run_experiment(cfg).divergences == 0
        assert len(draws) == 3 and len(designs) == len(ran) == 6
        levels = [snr_db_to_sigma2(snr) for snr in cfg.snr_grid]
        for i, ((scn, W, amps), (p_scn, p_W, p_amps, shared)) in enumerate(
                zip(designs, ran)):
            t, p = divmod(i, 2)
            assert p_scn is scn and p_W is W and p_amps is amps
            assert shared is ran[2 * t][3]
            assert scn.sigma2 == levels[p]
            for name in ("codes", "x_sr", "x_dest", "h_true"):
                assert getattr(scn, name) is getattr(draws[t], name)
            lone = dataclasses.replace(scn)
            assert amps.tobytes() == real_design(lone, scheme, cfg)[1].tobytes()

    @pytest.mark.parametrize("scheme", ["cis", "jpais-gpc", "jpais-ipc"])
    @pytest.mark.parametrize("relays", [2, 0])
    def test_stacked_relay_chain_has_each_lone_trials_bytes(
            self, scheme, relays, monkeypatch):
        """A chunk's relay chain is solved as one stack (one mmse_relay_bank
        call, an empty stack without relays), and every trial keeps the
        bytes it gets alone: its link-symbol correlation, its filters, its
        amplitudes and its packet map, which folds in its relays. A trial
        whose relay hears nothing from one user fails the stack's chain;
        _design_stack redoes the stack's halves until that trial stands
        alone, and alone it diverges, with the failed design recorded."""
        from coopcdma import harness
        cfg = small_cfg(scheme=scheme, variant="exact", relays=relays,
                        users=3, trials=5)
        dims = cfg.dims()

        def draw():
            scns = [draw_scenario(dims, codes_for(cfg, dims.K),
                                  snr_db_to_sigma2(9.0), cfg.shadowing_std_db,
                                  trial_rngs(cfg.seed, t)[0],
                                  isi_enabled=cfg.isi) for t in range(5)]
            if relays:
                dead_relay(scns[2], None)
            return scns

        stacked, alone = draw(), draw()
        real, stacks = harness.mmse_relay_bank, []

        def bank(x_sr, sigma2):
            stacks.append(len(x_sr))
            return real(x_sr, sigma2)

        monkeypatch.setattr(harness, "mmse_relay_bank", bank)
        if relays:
            with pytest.raises(DegenerateStateError):
                harness._relay_chains(stacked)
            assert stacks == [5]
        designs = harness._design_stack(stacked, scheme, cfg)
        # the whole stack, then its halves [0, 1] and [2, 3, 4], then [2]
        # and [3, 4]
        assert stacks == ([5, 5, 2, 3, 1, 2] if relays else [5])
        monkeypatch.undo()
        kept = [t for t in range(5) if not (relays and t == 2)]
        omegas, _ = harness._relay_chains([stacked[t] for t in kept])
        for omega, t in zip(omegas, kept):
            assert omega.tobytes() == scenario_omega(alone[t]).tobytes()
        for t, (scn, lone) in enumerate(zip(stacked, alone)):
            rng_ch, rng_data, rng_noise, rng_init = trial_rngs(cfg.seed, t)
            (res,) = harness._exact_trial(
                cfg, [scn], exact_draws(dims, rng_data, rng_noise), stacked)
            if relays and t == 2:
                assert isinstance(designs[t], DegenerateStateError)
                assert res.diverged and res.extras["divergence"] == (
                    "design", None, f"DegenerateStateError: {designs[t]}")
                continue
            assert not res.diverged
            design_exact(lone, scheme, cfg)
            for got, want in zip(designs[t], lone.designs[scheme, cfg]):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            for got, want in zip(design_exact(scn, scheme, cfg, stacked),
                                 design_exact(lone, scheme, cfg)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scheme,poison", [
        ("cis", dead_relay), ("jpais-gpc", dead_relay),
        ("jpais-ipc", nan_waveform), ("ncis", nan_waveform)])
    def test_stacked_factors_have_each_lone_qr_bytes(self, scheme, poison,
                                                     monkeypatch):
        """The R factors that colour a packet's noise are taken per design
        stack, one stacked QR call for the relays' filters and one for the
        destination's, and the destination's has the bytes of the lone
        np.linalg.qr(W, mode="r") of its own filters, also in a stack whose
        poisoned trial the bisection isolates; a lone design has the same
        design and packet map, byte for byte. The packets factor nothing."""
        from coopcdma import harness
        cfg = small_cfg(scheme=scheme, variant="exact", relays=2, users=3,
                        trials=5)
        dims = cfg.dims()

        def draw(t):
            scn = draw_scenario(dims, codes_for(cfg, dims.K),
                                snr_db_to_sigma2(9.0), cfg.shadowing_std_db,
                                trial_rngs(cfg.seed, t)[0],
                                isi_enabled=cfg.isi)
            if t == 2:
                poison(scn, np.random.default_rng(t))
            return scn

        real, factored = np.linalg.qr, []

        def qr(W, mode):
            factored.append(W.shape)
            return real(W, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", qr)
        stacked = [draw(t) for t in range(5)]
        design_exact(stacked[0], scheme, cfg, stacked)
        designs = [scn.designs[scheme, cfg] for scn in stacked]
        assert factored and all(len(shape) > 2 for shape in factored)
        del factored[:]
        for t, scn in enumerate(stacked):
            rng_ch, rng_data, rng_noise, rng_init = trial_rngs(cfg.seed, t)
            (res,) = harness._exact_trial(
                cfg, [scn], exact_draws(dims, rng_data, rng_noise), stacked)
            assert res.diverged == (t == 2)
        assert factored == []
        monkeypatch.undo()
        assert isinstance(designs[2], TrialFailure)
        for t in (0, 1, 3, 4):
            W, amps, theta, edges = designs[t]
            R = np.linalg.qr(W, mode="r")
            assert destination_noise_columns(theta, dims).tobytes() == (
                np.sqrt(stacked[t].sigma2) * R.conj().T).tobytes()
            lone = draw(t)
            design_exact(lone, scheme, cfg)
            for got, want in zip(designs[t], lone.designs[scheme, cfg]):
                assert got.tobytes() == want.tobytes()

    def test_foreign_scenario_is_refused(self):
        """A scenario that is not one of the point's raises a ValueError
        that says so, not a bare StopIteration."""
        cfg = small_cfg(variant="exact")
        dims = cfg.dims()
        scns = [draw_scenario(dims, codes_for(cfg, dims.K),
                              snr_db_to_sigma2(9.0), cfg.shadowing_std_db,
                              trial_rngs(cfg.seed, t)[0]) for t in range(2)]
        with pytest.raises(ValueError, match="not one of the point's"):
            design_exact(scns[1], cfg.scheme, cfg, scns[:1])

    def test_chunked_point_matches_one_trial_at_a_time(self, monkeypatch):
        """A point of one chunk and three trials more designs them in two
        stacks, and its rows are those of designs done one trial at a time."""
        from coopcdma import harness
        chunk = harness._DESIGN_CHUNK
        cfg = small_cfg(scheme="jpais-ipc", variant="exact", trials=chunk + 3,
                        packet_len=40, training_len=10)
        real, stacks = mmse.design, []

        def design(U, *args):
            stacks.append(len(U))
            return real(U, *args)

        monkeypatch.setattr(mmse, "design", design)
        chunked = run_experiment(cfg)
        assert stacks == [chunk, 3]
        monkeypatch.setattr(harness, "_DESIGN_CHUNK", 1)
        assert run_experiment(cfg).rows == chunked.rows
        assert stacks[2:] == [1] * (chunk + 3)


class TestScenarioDesigns:
    """A scenario keeps its own exact designs (Scenario.designs); a
    scenario made from it by replace starts with none."""

    def test_next_point_shares_the_channel_not_the_designs(self):
        """A trial's scenario at a second point, made by replace as a chunk
        makes it, holds the first point's channel arrays, but no design,
        even after the first point's scenario is designed;
        its own design is its lone design at its own noise level, and the
        first point's design stays as it was."""
        cfg = small_cfg(scheme="jpais-gpc", variant="exact")
        dims = cfg.dims()
        first = draw_scenario(dims, codes_for(cfg, dims.K),
                              snr_db_to_sigma2(0.0), cfg.shadowing_std_db,
                              trial_rngs(cfg.seed, 0)[0], isi_enabled=cfg.isi)
        W0, amps0 = design_exact(first, cfg.scheme, cfg)
        assert list(first.designs) == [(cfg.scheme, cfg)]
        second = dataclasses.replace(first, sigma2=snr_db_to_sigma2(18.0))
        for name in ("codes", "x_sr", "x_dest", "h_true"):
            assert getattr(second, name) is getattr(first, name)
        assert second.designs == {} and second.designs is not first.designs
        W1, amps1 = design_exact(second, cfg.scheme, cfg)
        assert W1.tobytes() != W0.tobytes()
        W, amps, theta, _ = first.designs[cfg.scheme, cfg]
        assert W is W0 and amps is amps0
        assert destination_noise_columns(theta, dims).tobytes() == (
            np.sqrt(first.sigma2) * np.linalg.qr(W0, mode="r").conj().T
        ).tobytes()
        lone = draw_scenario(dims, codes_for(cfg, dims.K),
                             snr_db_to_sigma2(18.0), cfg.shadowing_std_db,
                             trial_rngs(cfg.seed, 0)[0], isi_enabled=cfg.isi)
        for got, want in zip((W1, amps1), design_exact(lone, cfg.scheme,
                                                       cfg)):
            assert got.tobytes() == want.tobytes()

    def test_schemes_on_one_stack_keep_their_own_designs(self, monkeypatch):
        """Two schemes designed on one stack each solve that stack once
        (one _design_stack call per scheme, however many of its scenarios
        ask), keep one entry each on every scenario, and have, byte for
        byte, the designs of each scenario designed alone."""
        from coopcdma import harness
        cfg = small_cfg(variant="exact", trials=4)
        dims = cfg.dims()

        def draw(t):
            return draw_scenario(dims, codes_for(cfg, dims.K),
                                 snr_db_to_sigma2(9.0), cfg.shadowing_std_db,
                                 trial_rngs(cfg.seed, t)[0],
                                 isi_enabled=cfg.isi)

        stack = [draw(t) for t in range(4)]
        real, solved = harness._design_stack, []

        def design_stack(scenarios, scheme, cfg):
            solved.append((len(scenarios), scheme))
            return real(scenarios, scheme, cfg)

        monkeypatch.setattr(harness, "_design_stack", design_stack)
        schemes = ("cis", "jpais-gpc")
        designs = {(scheme, t): design_exact(scn, scheme, cfg, stack)
                   for scheme in schemes for t, scn in enumerate(stack)}
        assert solved == [(4, "cis"), (4, "jpais-gpc")]
        monkeypatch.undo()
        for t, scn in enumerate(stack):
            assert list(scn.designs) == [(scheme, cfg) for scheme in schemes]
            for scheme in schemes:
                W, amps, *_ = scn.designs[scheme, cfg]
                assert W is designs[scheme, t][0]
                assert amps is designs[scheme, t][1]
                for got, want in zip(designs[scheme, t],
                                     design_exact(draw(t), scheme, cfg)):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()


def failure_cases():
    """(T, failed trials) of a stack of 7 and one of 8: no failure, one at
    the first, the middle or the last trial, and two."""
    return [(T, bad) for T in (7, 8)
            for bad in ((), (0,), (T // 2,), (T - 1,), (1, T - 2), (2, 3))]


class TestDesignStackBisection:
    """_design_stack keeps a failure to its own trial by running the failed
    stack's halves again (_bisect_failures)."""

    @pytest.mark.parametrize("T,bad", [(1, ()), (1, (0,))] + failure_cases())
    def test_each_trial_is_written_once(self, T, bad):
        """With a step that fails on chosen trials, the returned list holds
        one entry per trial, in order: each failed trial its own failure,
        each kept trial its own result; the step runs at most
        1 + 2 f ceil(log2 T) times for f failures."""
        from coopcdma import harness
        calls = []

        def step(trials):
            calls.append(trials)
            for t in trials:
                if t in bad:
                    raise DegenerateStateError(f"trial {t}")
            return [("design", t) for t in trials]

        out = harness._bisect_failures(step, list(range(T)))
        assert len(out) == T
        for t in range(T):
            if t in bad:
                assert type(out[t]) is DegenerateStateError
                assert str(out[t]) == f"trial {t}"
            else:
                assert out[t] == ("design", t)
        assert len(calls) <= 1 + 2 * len(bad) * math.ceil(math.log2(T))
        assert len(calls) == 1 or bad

    @pytest.mark.parametrize("T,bad", [case for case in failure_cases()
                                       if case[1]])
    @pytest.mark.parametrize("scheme,poison", [
        ("cis", nan_waveform), ("jpais-gpc", nan_waveform),
        ("jpais-ipc", nan_waveform), ("cis", dead_relay),
        ("jpais-gpc", dead_relay), ("jpais-ipc", dead_relay),
        ("jpais-gpc", zero_waveforms), ("jpais-ipc", zero_waveforms),
        ("cis", nan_relay), ("jpais-gpc", nan_relay),
        ("jpais-ipc", nan_relay)])
    def test_kept_trials_have_the_clean_stacks_bytes(self, scheme, poison, T,
                                                     bad):
        """Poisoned trials in a stack of 7 or 8 fail with the error type and
        message of their lone design; every other trial's filters,
        amplitudes and packet map are byte-equal to the clean stack's."""
        from coopcdma import harness
        cfg = small_cfg(scheme=scheme, variant="exact", trials=T)
        dims = cfg.dims()

        def draw(t, poisoned):
            scn = draw_scenario(dims, codes_for(cfg, dims.K),
                                snr_db_to_sigma2(9.0), cfg.shadowing_std_db,
                                trial_rngs(cfg.seed, t)[0],
                                isi_enabled=cfg.isi)
            if poisoned:
                poison(scn, np.random.default_rng(t))
            return scn

        clean = [draw(t, False) for t in range(T)]
        scns = [draw(t, t in bad) for t in range(T)]
        want = harness._design_stack(clean, scheme, cfg)
        got = harness._design_stack(scns, scheme, cfg)
        for t in range(T):
            if t in bad:
                with pytest.raises(TrialFailure) as lone:
                    design_exact(draw(t, True), scheme, cfg)
                assert type(got[t]) is type(lone.value)
                assert str(got[t]) == str(lone.value)
                continue
            for a, b in zip(got[t], want[t]):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


def recorded_packets(monkeypatch, run):
    """run() with every exact packet recorded in run order: its design (W,
    amps) with its packet map (theta, edges), and its soft outputs; also
    the distinct noise levels of each relay-chain stack."""
    from coopcdma import harness
    real_design = harness.design_exact
    real_simulate = harness.simulate_packet_exact
    real_bank = harness.mmse_relay_bank
    packets, outputs, noise_levels = [], [], []

    def design(scn, scheme, cfg, *args, **kwargs):
        W, amps = real_design(scn, scheme, cfg, *args, **kwargs)
        packets.append(list(scn.designs[scheme, cfg]))
        return W, amps

    def simulate(scns, cfg, draws):
        outputs.extend(trial_soft_outputs(scns, cfg, draws))
        return real_simulate(scns, cfg, draws)

    def bank(x_sr, sigma2):
        noise_levels.append(set(np.ravel(sigma2).tolist()))
        return real_bank(x_sr, sigma2)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "design_exact", design)
        patch.setattr(harness, "simulate_packet_exact", simulate)
        patch.setattr(harness, "mmse_relay_bank", bank)
        result = run()
    assert len(outputs) == len(packets)
    for packet, soft in zip(packets, outputs):
        packet.append(soft)
    return result, packets, noise_levels


def per_point_run(cfg):
    """Every packet of cfg's sweep, point by point, each point's trials
    designed as one stack at the point's noise level."""
    from coopcdma import harness
    dims = cfg.dims()
    for snr in cfg.snr_grid:
        rngs = [trial_rngs(cfg.seed, t) for t in range(cfg.trials)]
        scns = [draw_scenario(dims, codes_for(cfg, dims.K),
                              snr_db_to_sigma2(snr), cfg.shadowing_std_db,
                              rng_ch, isi_enabled=cfg.isi)
                for rng_ch, *_ in rngs]
        for scn, (_, rng_data, rng_noise, _) in zip(scns, rngs):
            harness._exact_trial(cfg, [scn],
                                 exact_draws(dims, rng_data, rng_noise), scns)


class TestMixedNoiseChunks:
    """A chunk holds whole trials, each at every SNR point; each trial
    keeps the bytes it gets in a stack of its own point."""

    @pytest.mark.parametrize("scheme", ["ncis", "cis", "jpais-gpc",
                                        "jpais-ipc"])
    def test_chunks_across_points_keep_each_points_bytes(self, scheme,
                                                         monkeypatch):
        """A 3-point x 5-trial sweep in chunks of two trials (6 packets)
        designs three stacks, each across all three points, and every
        packet's design, packet map and soft outputs have the
        bytes of its point's own stack, its trial's points run as one call
        and each alone; the rows are those of the points swept one at a
        time."""
        from coopcdma import harness
        cfg = small_cfg(scheme=scheme, variant="exact", trials=5,
                        snr_grid=(0.0, 9.0, 18.0), packet_len=60,
                        training_len=20)
        real, stacks = mmse.design, []

        def design(X, *args):
            stacks.append(len(X))
            return real(X, *args)

        monkeypatch.setattr(harness, "_DESIGN_CHUNK", 6)
        monkeypatch.setattr(mmse, "design", design)
        curve, chunked, levels = recorded_packets(
            monkeypatch, lambda: run_experiment(cfg))
        assert stacks == [6, 6, 3]
        assert [len(s) for s in levels] == [3, 3, 3]
        _, alone, _ = recorded_packets(monkeypatch,
                                       lambda: per_point_run(cfg))
        assert len(chunked) == len(alone) == 15
        # the sweep's packets trial by trial, per_point_run's point by point
        chunked = [chunked[3 * t + p] for p in range(3) for t in range(5)]
        for got, want in zip(chunked, alone):
            assert len(got) == len(want) == 5
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()
        monkeypatch.undo()
        rows = [run_experiment(dataclasses.replace(cfg, snr_grid=(snr,)))
                .rows[0] for snr in cfg.snr_grid]
        assert curve.rows == rows
        assert curve.point_divergences == [0, 0, 0]

    @pytest.mark.parametrize("scheme,poison", [
        ("cis", dead_relay), ("jpais-gpc", nan_waveform),
        ("jpais-ipc", zero_waveforms), ("jpais-gpc", nan_relay)])
    def test_poisoned_trial_in_a_mixed_chunk_fails_alone(self, scheme, poison,
                                                         monkeypatch):
        """Trial 0 poisoned at the second point only shares its chunk with
        its own packets at the other points and with trial 1's: it alone
        diverges, with its failed design recorded, and is counted at its
        own point; every other packet keeps its bit errors."""
        from coopcdma import harness
        cfg = small_cfg(scheme=scheme, variant="exact", trials=5,
                        snr_grid=(0.0, 9.0, 18.0), packet_len=60,
                        training_len=20)
        monkeypatch.setattr(harness, "_DESIGN_CHUNK", 6)
        clean, clean_packets = exact_point(monkeypatch, cfg)
        results = {}
        curve, packets = exact_point(monkeypatch, cfg, poison,
                                     poisoned_trial=0, poisoned_points=(1,),
                                     results=results)
        assert clean.point_divergences == [0, 0, 0]
        assert curve.point_divergences == [0, 1, 0]
        assert curve.divergences == 1
        pairs = [(p, t) for p in range(3) for t in range(5)]
        assert sorted(packets) == [pair for pair in pairs if pair != (1, 0)]
        assert sorted(results) == pairs
        stage, symbol, reason = results[1, 0].extras["divergence"]
        assert (stage, symbol) == ("design", None)
        assert reason.startswith(("IllConditionedError: ",
                                  "DegenerateStateError: "))
        for t, res in packets.items():
            assert res.bit_errors == clean_packets[t].bit_errors
            assert np.array_equal(res.per_symbol_errors,
                                  clean_packets[t].per_symbol_errors)
        assert curve.rows[::2] == clean.rows[::2]


def sweep_packets(monkeypatch, cfg, poison=None, poisoned_trial=None):
    """run_experiment of cfg with poison applied to each draw of the
    scenario of poisoned_trial, before it serves any point; the curve, the
    trials of what the sweep made, in order (of each chunk, each scenario
    draw and each exact_draws call), and every packet the sweep counted as
    ((sigma2, trial), PacketResult, soft outputs) in run order."""
    from coopcdma import harness
    real_draw, real_chunk = harness.draw_scenario, harness._chunk_packets
    real_draws = harness.exact_draws
    made = {"chunks": [], "scenarios": [], "draws": []}
    packets = []

    def draw(*args, **kwargs):
        scn = real_draw(*args, **kwargs)
        made["scenarios"].append(trial_of(args[4]))
        if made["scenarios"][-1] == poisoned_trial:
            poison(scn, np.random.default_rng(7))
        return scn

    def draws(dims, rng_data, rng_noise):
        made["draws"].append(trial_of(rng_data))
        return real_draws(dims, rng_data, rng_noise)

    def chunk(cfg, dims, codes, trials, levels):
        made["chunks"].append(list(trials))
        pairs = [(level, t) for t in trials for level in levels]
        for pair, res in zip(pairs, real_chunk(cfg, dims, codes, trials,
                                               levels)):
            packets.append((pair, res, outputs.pop(id(res))))
            yield res

    with monkeypatch.context() as patch:
        outputs = record_soft_outputs(patch)
        patch.setattr(harness, "draw_scenario", draw)
        patch.setattr(harness, "exact_draws", draws)
        patch.setattr(harness, "_chunk_packets", chunk)
        curve = run_experiment(cfg)
    return curve, made, packets


def record_soft_outputs(patch) -> dict:
    """The soft outputs of every packet run while patch is applied, by the
    id of its PacketResult: an exact trial's (simulate_packet_exact, whose
    outputs exact_soft_blocks forms), an adaptive or a failed packet's
    (_packet_result)."""
    from coopcdma import harness
    real_simulate, real_result = (harness.simulate_packet_exact,
                                  harness._packet_result)
    outputs = {}

    def simulate(scns, cfg, draws):
        results = real_simulate(scns, cfg, draws)
        outputs.update(zip(map(id, results),
                           trial_soft_outputs(scns, cfg, draws)))
        return results

    def result(soft, *args, **kwargs):
        res = real_result(soft, *args, **kwargs)
        outputs[id(res)] = soft
        return res

    patch.setattr(harness, "simulate_packet_exact", simulate)
    patch.setattr(harness, "_packet_result", result)
    return outputs


def assert_lone_packets(monkeypatch, cfg, packets):
    """Every packet of sweep_packets has the soft-output bytes and
    per-symbol errors of run_packet on fresh trial_rngs streams, and the
    sweep's packets run trial by trial, every point of a trial in turn."""
    from coopcdma import harness
    dims = cfg.dims()
    levels = [snr_db_to_sigma2(snr) for snr in cfg.snr_grid]
    assert [pair for pair, *_ in packets] == [
        (level, t) for t in range(cfg.trials) for level in levels]
    for (sigma2, t), res, soft in packets:
        rng_ch, *rngs = trial_rngs(cfg.seed, t)
        scn = draw_scenario(dims, codes_for(cfg, dims.K), sigma2,
                            cfg.shadowing_std_db, rng_ch,
                            isi_enabled=cfg.isi)
        with monkeypatch.context() as patch:
            outputs = record_soft_outputs(patch)
            lone = run_packet(cfg, scn, *rngs)
        assert not res.diverged and not lone.diverged
        assert soft.tobytes() == outputs.pop(id(lone)).tobytes()
        assert (res.per_symbol_errors.tobytes()
                == lone.per_symbol_errors.tobytes())


class TestTrialByTrialSweep:
    """A sweep takes its trials in chunks of whole trials, each trial at
    every point, and each trial's channel, bits and noise, drawn once per
    sweep, serve all of its points."""

    @staticmethod
    def config(scheme, variant="exact"):
        return small_cfg(scheme=scheme, variant=variant, trials=4,
                         snr_grid=(0.0, 9.0, 18.0), packet_len=60,
                         training_len=20)

    @pytest.mark.parametrize("scheme,variant", [
        ("ncis", "exact"), ("cis", "exact"), ("jpais-gpc", "exact"),
        ("jpais-ipc", "exact"), ("cis", "adaptive"),
        ("jpais-gpc", "adaptive")])
    def test_every_packet_is_its_lone_packet(self, scheme, variant,
                                             monkeypatch):
        """A chunk of up to 7 packets holds two whole trials of 3 points (6
        packets): no trial's scenario or exact_draws is made twice in the
        sweep, and an adaptive sweep makes no exact_draws. Every packet has
        the soft-output bytes and per-symbol errors of run_packet on fresh
        trial_rngs streams: no packet continues a generator that another
        packet of its trial consumed."""
        from coopcdma import harness
        cfg = self.config(scheme, variant)
        monkeypatch.setattr(harness, "_DESIGN_CHUNK", 7)
        curve, made, packets = sweep_packets(monkeypatch, cfg)
        assert made == {"chunks": [[0, 1], [2, 3]],
                        "scenarios": [0, 1, 2, 3],
                        "draws": [0, 1, 2, 3] if variant == "exact" else []}
        assert_lone_packets(monkeypatch, cfg, packets)
        assert curve.point_divergences == [0, 0, 0]

    @pytest.mark.parametrize("scheme", ["ncis", "cis", "jpais-gpc",
                                        "jpais-ipc"])
    def test_a_grid_wider_than_a_chunk_takes_one_trial_per_chunk(
            self, scheme, monkeypatch):
        """With more points than _DESIGN_CHUNK, a chunk holds one whole
        trial, designed as one stack of all its points, larger than
        _DESIGN_CHUNK; every packet keeps the bytes of run_packet alone."""
        from coopcdma import harness
        cfg = self.config(scheme)
        real, stacks = harness._design_stack, []

        def design_stack(scenarios, *args):
            stacks.append(len(scenarios))
            return real(scenarios, *args)

        monkeypatch.setattr(harness, "_DESIGN_CHUNK", 2)
        monkeypatch.setattr(harness, "_design_stack", design_stack)
        curve, made, packets = sweep_packets(monkeypatch, cfg)
        assert made == {"chunks": [[0], [1], [2], [3]],
                        "scenarios": [0, 1, 2, 3], "draws": [0, 1, 2, 3]}
        assert stacks == [3, 3, 3, 3]
        assert_lone_packets(monkeypatch, cfg, packets)
        assert curve.point_divergences == [0, 0, 0]

    @pytest.mark.parametrize("scheme,poison", [
        ("cis", dead_relay), ("jpais-gpc", dead_relay),
        ("jpais-ipc", nan_waveform), ("jpais-gpc", zero_waveforms)])
    def test_a_trial_poisoned_on_its_scenario_diverges_at_every_point(
            self, scheme, poison, monkeypatch):
        """Trial 1's scenario, poisoned as drawn, once for all of its
        points, fails its design at every point, and nowhere else: every
        other packet keeps its clean per-symbol errors."""
        from coopcdma import harness
        cfg = self.config(scheme)
        monkeypatch.setattr(harness, "_DESIGN_CHUNK", 7)
        _, _, clean = sweep_packets(monkeypatch, cfg)
        curve, made, packets = sweep_packets(monkeypatch, cfg, poison,
                                             poisoned_trial=1)
        assert made["scenarios"] == made["draws"] == [0, 1, 2, 3]
        assert curve.point_divergences == [1, 1, 1]
        for (pair, res, _), (clean_pair, want, _) in zip(packets, clean):
            assert pair == clean_pair
            if pair[1] == 1:
                assert res.diverged
                assert res.extras["divergence"][:2] == ("design", None)
                continue
            assert not res.diverged
            assert (res.per_symbol_errors.tobytes()
                    == want.per_symbol_errors.tobytes())


class TestPointDivergences:
    def test_a_poisoned_trial_is_counted_at_its_point(self, monkeypatch):
        """One trial whose design fails at the second of two SNRs: the
        curve's per-point list reads [0, 1] beside its rows, the JSON rows
        carry it, and the curve total and the CSV header stay as they were."""
        cfg = small_cfg(scheme="cis", variant="exact", trials=3,
                        snr_grid=(3.0, 12.0), packet_len=60, training_len=20)
        curve, _ = exact_point(monkeypatch, cfg, dead_relay, poisoned_trial=1,
                               poisoned_points=(1,))
        assert curve.point_divergences == [0, 1]
        assert curve.divergences == 1
        assert [row[3] for row in curve.rows] == [
            2 * (cfg.packet_len - cfg.training_len) * cfg.users * n
            for n in (3, 2)]
        manifest = cli.RunManifest(config={}, version="0", wall_time_s=0.0,
                                   divergences=curve.divergences)
        payload = json.loads(cli.curves_to_json([curve], manifest))
        (written,) = payload["curves"]
        assert written["divergences"] == 1
        assert [row["divergences"] for row in written["rows"]] == [0, 1]
        lines = cli.curves_to_csv([curve]).splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert [len(line.split(",")) for line in lines[1:]] == [7, 7]

    def test_learning_curve_rows_carry_no_point_count(self):
        """A learning curve's rows are the symbols of one point: its
        divergences are the curve total alone."""
        cfg = small_cfg(scheme="cis", variant="exact", trials=2,
                        packet_len=60, training_len=20)
        curve = learning_curve(cfg)
        assert curve.point_divergences == [] and curve.divergences == 0
        manifest = cli.RunManifest(config={}, version="0", wall_time_s=0.0,
                                   divergences=0)
        rows = json.loads(cli.curves_to_json([curve], manifest))[
            "curves"][0]["rows"]
        assert len(rows) == cfg.packet_len
        assert all("divergences" not in row for row in rows)
