"""End-to-end packet simulation: scheme parity, determinism, aggregation."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import poisoned, stacked_signature
from coopcdma import cli, gpc, mmse
from coopcdma.errors import ConfigError, DegenerateStateError
from coopcdma.harness import (BerCurve, ExperimentConfig, PointDesigns,
                              _noise_matrix, _packet_result, _run_point,
                              capacity_at_target, codes_for, design_exact,
                              draw_scenario, learning_curve, run_experiment,
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
        as 2, nor [] as an empty curve."""
        from coopcdma import harness
        monkeypatch.setattr(harness, "run_packet",
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

    def test_noise_matrix_bitwise_matches_complex_expression(self):
        """In-place fill equals scale*(a + 1j*b) drawn from the same state."""
        sigma2 = 0.37
        scale = np.sqrt(sigma2 / 2.0)
        shape = (54, 150)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        ref = scale * (rng_a.standard_normal(shape)
                       + 1j * rng_a.standard_normal(shape))
        out = _noise_matrix(shape, sigma2, rng_b)
        assert out.dtype == np.complex128 and out.shape == shape
        assert np.array_equal(out, ref)
        # both generators consumed the same draws
        assert rng_a.random() == rng_b.random()

    def test_noise_matrix_noise_free_draws_nothing(self):
        rng = np.random.default_rng(7)
        out = _noise_matrix((3, 4), 0.0, rng)
        assert np.array_equal(out, np.zeros((3, 4), dtype=complex))
        assert rng.random() == np.random.default_rng(7).random()


class TestPacketResult:
    @pytest.mark.parametrize("n", [1500, 731, 1, 0])
    def test_per_symbol_errors_match_the_axis_sum(self, rng, n):
        """The per-symbol error counts are the integers of summing the
        K x n x 2 error array over users and bit pairs, for a whole packet
        and for a short (diverged) one, whose later symbols count none."""
        K, P, T = 4, 1500, 200
        bits = rng.integers(0, 2, size=(K, P, 2))
        soft = rng.standard_normal((K, n)) + 1j * rng.standard_normal((K, n))
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
            res = simulate_packet_exact(scn, W, amps, cfg, rng_data, rng_noise)
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
        """A degenerate relay draw skips that trial, not the whole sweep."""
        from coopcdma import harness
        real, calls = harness.mmse_relay_bank, []

        def first_call_degenerate(*args):
            calls.append(1)
            if len(calls) == 1:
                raise DegenerateStateError("relay filter output power is zero")
            return real(*args)

        monkeypatch.setattr(harness, "mmse_relay_bank", first_call_degenerate)
        cfg = small_cfg(scheme="cis", variant="exact", trials=2)
        curve = run_experiment(cfg)
        assert curve.divergences == 1
        _, mean, _, bits = curve.rows[0]
        assert np.isfinite(mean)
        assert bits == 2 * (cfg.packet_len - cfg.training_len) * cfg.users

    def test_fixed_snr_runs_refuse_an_snr_grid(self, monkeypatch):
        """A user sweep or learning curve over two SNRs raises before any
        packet runs, instead of running only the first SNR."""
        from coopcdma import harness

        def no_packet(*args, **kwargs):
            raise AssertionError("a packet ran")

        monkeypatch.setattr(harness, "run_packet", no_packet)
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

        def diverge(*args, **kwargs):
            raise DegenerateStateError("zero-norm amplitude vector")

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
        clean, clean_div, _ = _run_point(cfg, 9.0)
        monkeypatch.setattr(harness, "draw_scenario", draw)
        bers, divergences, _ = _run_point(cfg, 9.0)
        assert clean_div == 0 and divergences == 1
        assert bers == clean[1:]

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
        waveforms: the scenario's padded U and relay banks stay unformed."""
        cfg = small_cfg(scheme=scheme, variant="adaptive", packet_len=60,
                        training_len=20)
        dims = cfg.dims()
        rng_ch, rng_data, rng_noise, rng_init = trial_rngs(cfg.seed, 0)
        scn = draw_scenario(dims, codes_for(cfg, dims.K), snr_db_to_sigma2(9.0),
                            cfg.shadowing_std_db, rng_ch, isi_enabled=cfg.isi)
        assert not run_packet(cfg, scn, rng_data, rng_noise,
                              rng_init).diverged
        assert "U" not in vars(scn) and "relay_banks" not in vars(scn)

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
    """The first relay hears nothing from user 0: its MMSE bank fails."""
    scn.x_sr[0][:, 0] = 0.0


def nan_waveform(scn, rng):
    scn.x_dest = poisoned(scn.x_dest, np.nan, rng)


def zero_waveforms(scn, rng):
    """No link reaches the destination: the power solution is zero."""
    scn.x_dest = np.zeros_like(scn.x_dest)


def exact_point(monkeypatch, cfg, poison=None, poisoned_trial=3):
    """run_experiment of an exact cfg, with poison applied to the scenario
    of one trial, and the PacketResult of each trial that reached its packet
    simulation, by trial index."""
    from coopcdma import harness
    draws, packets = [], {}
    real_draw, real_simulate = harness.draw_scenario, harness.simulate_packet_exact

    def draw(*args, **kwargs):
        scn = real_draw(*args, **kwargs)
        if poison is not None and len(draws) == poisoned_trial:
            poison(scn, np.random.default_rng(7))
        draws.append(scn)
        return scn

    def simulate(scn, *args, **kwargs):
        res = real_simulate(scn, *args, **kwargs)
        packets[next(i for i, d in enumerate(draws) if d is scn)] = res
        return res

    with monkeypatch.context() as patch:
        patch.setattr(harness, "draw_scenario", draw)
        patch.setattr(harness, "simulate_packet_exact", simulate)
        curve = run_experiment(cfg)
    return curve, packets


class TestPointDesigns:
    @pytest.mark.parametrize("scheme,poison", [
        ("cis", nan_waveform), ("jpais-gpc", nan_waveform),
        ("jpais-ipc", nan_waveform), ("cis", dead_relay),
        ("jpais-gpc", dead_relay), ("jpais-ipc", dead_relay),
        ("jpais-gpc", zero_waveforms), ("jpais-ipc", zero_waveforms)])
    def test_failed_design_diverges_alone(self, scheme, poison, monkeypatch):
        """One poisoned scenario in a point's stack of 8 counts as one
        divergence, whether its relay bank, its link factors or its power
        projection fails; the other 7 packets keep the bit errors they have
        without the poison."""
        cfg = small_cfg(scheme=scheme, variant="exact", trials=8)
        clean, clean_packets = exact_point(monkeypatch, cfg)
        curve, packets = exact_point(monkeypatch, cfg, poison)
        assert clean.divergences == 0 and curve.divergences == 1
        assert sorted(packets) == [0, 1, 2, 4, 5, 6, 7]
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
        that packet's own scenario, and the packet runs with the filters and
        amplitudes the call returned."""
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

        def simulate(scn, W, amps, *args):
            ran.append((scn, W, amps))
            return real_simulate(scn, W, amps, *args)

        monkeypatch.setattr(harness, "design_exact", record)
        monkeypatch.setattr(harness, "draw_scenario", draw)
        monkeypatch.setattr(harness, "simulate_packet_exact", simulate)
        cfg = small_cfg(scheme=scheme, variant="exact", trials=3,
                        snr_grid=(0.0, 9.0))
        assert run_experiment(cfg).divergences == 0
        assert len(draws) == len(designs) == len(ran) == 6
        for drawn, (scn, W, amps), (p_scn, p_W, p_amps) in zip(draws, designs,
                                                              ran):
            assert scn is drawn and p_scn is drawn
            assert p_W is W and p_amps is amps
            assert amps.tobytes() == real_design(scn, scheme, cfg)[1].tobytes()

    def test_foreign_scenario_is_refused(self):
        """A scenario that is not one of the point's raises a ValueError
        that says so, not a bare StopIteration."""
        cfg = small_cfg(variant="exact")
        dims = cfg.dims()
        scns = [draw_scenario(dims, codes_for(cfg, dims.K),
                              snr_db_to_sigma2(9.0), cfg.shadowing_std_db,
                              trial_rngs(cfg.seed, t)[0]) for t in range(2)]
        with pytest.raises(ValueError, match="not one of the point's"):
            design_exact(scns[1], cfg.scheme, cfg, PointDesigns(scns[:1]))

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
