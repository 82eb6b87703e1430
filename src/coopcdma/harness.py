"""Monte Carlo experiment engine for the cooperative DS-CDMA uplink.

Simulates packets of QPSK symbols through the two-phase relay chain for four
schemes (NCIS, CIS, JPAIS-GPC, JPAIS-IPC) in exact-MMSE and adaptive (RLS)
variants, and aggregates bit error ratios over independently seeded trials.
Every random stream is derived from (seed, stream-tag, trial-index), so
results are bit-reproducible and independent of execution order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import gpc, ipc, mmse
from .errors import (ConfigError, DegenerateStateError, IllConditionedError,
                     NumericalDivergenceError)
from .model import (SystemDims, build_convolution_matrix, demodulate_qpsk,
                    draw_spreading_codes, generate_multipath_channel,
                    hard_decision, modulate_qpsk)
from .relays import AdaptiveRelay, mmse_relay_bank, relay_statistics

SCHEMES = ("ncis", "cis", "jpais-gpc", "jpais-ipc")
VARIANTS = ("exact", "adaptive")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters; defaults reproduce the desk-scale setup."""

    users: int = 4
    chips: int = 16
    paths: int = 3
    relays: int = 2
    packet_len: int = 1500
    training_len: int = 200
    trials: int = 100
    snr_grid: tuple = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0)
    scheme: str = "jpais-ipc"
    variant: str = "exact"
    alpha: float = 0.998
    lam: float = 0.025
    lam_t: float = 0.025
    seed: int = 1
    shadowing_std_db: float = 3.0
    isi: bool = True
    delta: float = 0.01
    mmse_iters: int = 50
    mmse_tol: float = 1e-6

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme: unknown value {self.scheme!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant: unknown value {self.variant!r}")
        if self.training_len >= self.packet_len:
            raise ConfigError("training_len: must be smaller than packet_len")
        if self.training_len < 1 or self.trials < 1:
            raise ConfigError("training_len and trials must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha: must be in (0, 1]")
        if self.users < 1:
            raise ConfigError("users: must be >= 1")
        for name in ("lam", "lam_t"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"{name}: must be >= 0")
        for name in ("chips", "paths", "mmse_iters"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be >= 1")
        if self.relays < 0:
            raise ConfigError("relays: must be >= 0")
        for name in ("delta", "mmse_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name}: must be finite and > 0, got {value!r}")
        if not (np.isfinite(self.shadowing_std_db) and self.shadowing_std_db >= 0.0):
            raise ConfigError("shadowing_std_db: must be finite and >= 0, "
                              f"got {self.shadowing_std_db!r}")
        if not np.all(np.isfinite(self.snr_grid)):
            raise ConfigError(f"snr_grid: entries must be finite, got {self.snr_grid!r}")
        if self.scheme == "ncis" and self.relays != 0:
            object.__setattr__(self, "relays", 0)

    def dims(self, users: int | None = None) -> SystemDims:
        K = self.users if users is None else users
        if K < 1:
            raise ConfigError(f"users: must be >= 1, got {K}")
        n_r = 0 if self.scheme == "ncis" else self.relays
        return SystemDims(K=K, N=self.chips, L=self.paths,
                          n_r=n_r, P=self.packet_len)

    def mmse_config(self) -> mmse.MmseConfig:
        return mmse.MmseConfig(lam_global=self.lam_t, lam_individual=self.lam,
                               max_iters=self.mmse_iters, tol=self.mmse_tol)


def snr_db_to_sigma2(snr_db: float, P_A: float = 1.0) -> float:
    """SNR = P_A / sigma^2 with the per-user budget fixed at P_A."""
    return P_A / (10.0 ** (snr_db / 10.0))


@dataclass
class Scenario:
    """One packet's ground truth: codes, per-link channels, noise level."""

    dims: SystemDims
    sigma2: float
    codes: np.ndarray
    conv: list  # per-user M x L convolution matrices
    x_sd: np.ndarray  # M x K direct-link waveforms (shadowing included)
    x_sr: list  # per relay, M x K source-to-relay waveforms
    x_rd: list  # per relay, M x K relay-to-destination waveforms
    U: np.ndarray  # stack x K*hops true per-link waveform matrix
    C_all: np.ndarray  # stack x K*hops*L stacked block signatures
    h_true: np.ndarray  # stacked effective destination-facing channels
    isi_enabled: bool = True


def draw_scenario(dims: SystemDims, codes: np.ndarray, sigma2: float,
                  shadowing_std_db: float, rng: np.random.Generator,
                  isi_enabled: bool = True) -> Scenario:
    K, L, n_r, M = dims.K, dims.L, dims.n_r, dims.M
    hops = dims.hops
    conv = [build_convolution_matrix(codes[k], L) for k in range(K)]

    h_sd = np.stack([generate_multipath_channel(L, rng) for _ in range(K)])
    h_sr = np.stack([[generate_multipath_channel(L, rng) for _ in range(K)]
                     for _ in range(n_r)]) if n_r else np.zeros((0, K, L), complex)
    h_rd = np.stack([[generate_multipath_channel(L, rng) for _ in range(K)]
                     for _ in range(n_r)]) if n_r else np.zeros((0, K, L), complex)

    def shadow(size):
        if shadowing_std_db == 0.0:
            return np.ones(size)
        return 10.0 ** (shadowing_std_db * rng.standard_normal(size) / 20.0)

    s_sd = shadow(K)
    s_sr = shadow((n_r, K))
    s_rd = shadow((n_r, K))

    x_sd = np.stack([conv[k] @ (s_sd[k] * h_sd[k]) for k in range(K)], axis=1)
    x_sr = [np.stack([conv[k] @ (s_sr[j, k] * h_sr[j, k]) for k in range(K)], axis=1)
            for j in range(n_r)]
    x_rd = [np.stack([conv[k] @ (s_rd[j, k] * h_rd[j, k]) for k in range(K)], axis=1)
            for j in range(n_r)]

    U = np.zeros((dims.stack, K * hops), dtype=complex)
    h_true = np.zeros(K * hops * L, dtype=complex)
    for k in range(K):
        U[0:M, k * hops] = x_sd[:, k]
        h_true[(k * hops) * L:(k * hops) * L + L] = s_sd[k] * h_sd[k]
        for j in range(n_r):
            col = k * hops + j + 1
            U[(j + 1) * M:(j + 2) * M, col] = x_rd[j][:, k]
            h_true[col * L:col * L + L] = s_rd[j, k] * h_rd[j, k]
    C_all = np.hstack([np.kron(np.eye(hops), conv[k]) for k in range(K)])
    return Scenario(dims=dims, sigma2=sigma2, codes=codes, conv=conv,
                    x_sd=x_sd, x_sr=x_sr, x_rd=x_rd, U=U, C_all=C_all,
                    h_true=h_true, isi_enabled=isi_enabled)


def _isi_mats(x: np.ndarray, N: int, L: int):
    """Tail/head matrices mapping adjacent symbols to their window spill-over."""
    tails = np.zeros_like(x)
    heads = np.zeros_like(x)
    if L > 1:
        tails[:L - 1] = x[N:]
        heads[N:] = x[:L - 1]
    return tails, heads


def _noise_matrix(shape, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    if sigma2 == 0.0:
        return np.zeros(shape, dtype=complex)
    # real and imaginary parts written in place, drawn in that order: the
    # same values as scale * (a + 1j * b) without the complex temporaries
    scale = np.sqrt(sigma2 / 2.0)
    out = np.empty(shape, dtype=complex)
    np.multiply(rng.standard_normal(shape), scale, out=out.real)
    np.multiply(rng.standard_normal(shape), scale, out=out.imag)
    return out


@dataclass
class PacketResult:
    bit_errors: int
    payload_bits: int
    diverged: bool = False
    per_symbol_errors: np.ndarray | None = None
    extras: dict = field(default_factory=dict)


def equal_power_amps(dims: SystemDims, P_A: float = 1.0) -> np.ndarray:
    return mmse.equal_power_amps(dims.K, dims.hops, np.full(dims.K, P_A))


def broadcast_amps(dims: SystemDims, P_A: float = 1.0) -> np.ndarray:
    """Source amplitudes toward the relays' receivers.

    The relays listen to a separate source transmission slot whose amplitude
    is not part of the optimized destination-link vector; it is held at the
    full per-user budget so relay-side quality is identical across schemes.
    """
    return np.sqrt(np.full(dims.K, P_A))


def scenario_omega(scn: Scenario, relay_mode: str = "exact") -> np.ndarray:
    """Link-symbol correlation matrix for the scenario's relay chain.

    "exact" models the relays' MMSE filtering (their soft symbols carry
    residual interference and noise); "perfect" treats relayed symbols as
    clean copies of the source symbols.
    """
    dims = scn.dims
    if relay_mode == "perfect" or dims.n_r == 0:
        return mmse.perfect_relay_omega(dims.K, dims.hops)
    a_b = broadcast_amps(dims)
    stats = [relay_statistics(scn.x_sr[j] * a_b[None, :], scn.sigma2)
             for j in range(dims.n_r)]
    return mmse.relay_omega(dims.K, dims.hops, stats)


def design_exact(scn: Scenario, scheme: str, cfg: ExperimentConfig,
                 relay_mode: str = "exact"):
    """Exact-statistics receiver matrix and amplitude allocation for a packet."""
    dims = scn.dims
    budgets = np.ones(dims.K)
    omega = scenario_omega(scn, relay_mode)
    if scheme in ("ncis", "cis"):
        amps = equal_power_amps(dims).astype(complex)
        stats = mmse.build_statistics(scn.U, dims.hops, scn.sigma2, amps,
                                      omega=omega)
        W = mmse.receiver_global(stats, scn.sigma2)
        return W, amps
    mode = "gpc" if scheme == "jpais-gpc" else "ipc"
    res = mmse.alternate(scn.U, dims.hops, scn.sigma2, mode,
                         cfg.mmse_config(), budgets, omega=omega)
    return res.W, res.amps


def _shifted(B: np.ndarray):
    """Previous/next symbol matrices with zeros at the packet edges."""
    prev = np.zeros_like(B)
    nxt = np.zeros_like(B)
    prev[:, 1:] = B[:, :-1]
    nxt[:, :-1] = B[:, 1:]
    return prev, nxt


def simulate_packet_exact(scn: Scenario, W: np.ndarray, amps: np.ndarray,
                          cfg: ExperimentConfig, rng_data: np.random.Generator,
                          rng_noise: np.random.Generator,
                          relay_mode: str = "exact",
                          collect_per_symbol: bool = False) -> PacketResult:
    """Vectorized packet simulation with fixed filters and amplitudes.

    relay_mode "exact" runs MMSE relays; "perfect" forwards the true symbols
    (used by oracle tests that need the idealized statistics model).
    """
    dims = scn.dims
    K, N, L, P, M = dims.K, dims.N, dims.L, dims.P, dims.M
    bits = rng_data.integers(0, 2, size=(K, P, 2))
    B = modulate_qpsk(bits)
    Bp, Bn = _shifted(B)

    a_b = broadcast_amps(dims)
    btilde = []
    for j in range(dims.n_r):
        noise = _noise_matrix((M, P), scn.sigma2, rng_noise)
        if relay_mode == "perfect":
            btilde.append(B.copy())
            continue
        Xs = scn.x_sr[j] * a_b[None, :]
        frames = Xs @ B + noise
        if scn.isi_enabled:
            tails, heads = _isi_mats(Xs, N, L)
            frames += tails @ Bp + heads @ Bn
        Wr, g = mmse_relay_bank(Xs, scn.sigma2)
        btilde.append((Wr.conj().T @ frames) * g[:, None])

    frames = _noise_matrix((dims.stack, P), scn.sigma2, rng_noise)
    X0 = scn.x_sd * amps[:, 0][None, :]
    frames[0:M] += X0 @ B
    if scn.isi_enabled:
        tails, heads = _isi_mats(X0, N, L)
        frames[0:M] += tails @ Bp + heads @ Bn
    for j in range(dims.n_r):
        Xj = scn.x_rd[j] * amps[:, j + 1][None, :]
        Bj = btilde[j]
        blk = slice((j + 1) * M, (j + 2) * M)
        frames[blk] += Xj @ Bj
        if scn.isi_enabled:
            tails, heads = _isi_mats(Xj, N, L)
            Bjp, Bjn = _shifted(Bj)
            frames[blk] += tails @ Bjp + heads @ Bjn

    soft = W.conj().T @ frames
    bits_hat = demodulate_qpsk(soft)
    err_symbol = (bits_hat != bits).sum(axis=(0, 2))
    payload = slice(cfg.training_len, P)
    return PacketResult(bit_errors=int(err_symbol[payload].sum()),
                        payload_bits=2 * (P - cfg.training_len) * K,
                        per_symbol_errors=err_symbol if collect_per_symbol else None)


def simulate_packet_adaptive(scn: Scenario, scheme: str, cfg: ExperimentConfig,
                             rng_data: np.random.Generator,
                             rng_noise: np.random.Generator,
                             rng_init: np.random.Generator,
                             collect: tuple = (),
                             collect_per_symbol: bool = False) -> PacketResult:
    """Sequential packet simulation with RLS receivers, power, and channels.

    Per symbol the update order is channel -> receiver -> power; relays run one
    symbol ahead of the destination so the adjacent-symbol spill-over of the
    relayed links is available when the destination frame is assembled.
    Transmit amplitudes follow the destination's latest power estimate.
    """
    dims = scn.dims
    K, N, L, P, M = dims.K, dims.N, dims.L, dims.P, dims.M
    hops, stack, n_r = dims.hops, dims.stack, dims.n_r
    T = cfg.training_len
    isi_on = scn.isi_enabled

    bits = rng_data.integers(0, 2, size=(K, P, 2))
    B = modulate_qpsk(bits)
    noise_rel = [_noise_matrix((M, P), scn.sigma2, rng_noise) for _ in range(n_r)]
    noise_dest = _noise_matrix((stack, P), scn.sigma2, rng_noise)

    # common initialization draws, identical across schemes for stream parity
    h0 = 0.01 * (rng_init.standard_normal(K * hops * L)
                 + 1j * rng_init.standard_normal(K * hops * L))
    U0 = gpc.waveforms_from_channel(scn.conv, h0, hops)
    amps = equal_power_amps(dims).astype(complex)
    W0 = np.zeros((stack, K), dtype=complex)
    for k in range(K):
        col = U0[:, k * hops:(k + 1) * hops] @ amps[k]
        nrm = np.linalg.norm(col)
        W0[:, k] = col / nrm if nrm > 0 else col
    rx = gpc.init_receiver(stack, K, cfg.alpha, cfg.delta, W0)

    joint_power = joint_channel = None
    user_power = user_channel = None
    C_users = None
    if scheme == "jpais-gpc":
        joint_power = gpc.init_power(amps.reshape(-1), float(K), cfg.alpha,
                                     cfg.delta, lam=cfg.lam_t, start=T)
        joint_channel = gpc.init_channel(K * hops * L, cfg.alpha, cfg.delta, h0)
    elif scheme == "jpais-ipc":
        if hops > 1:
            user_power = [ipc.init_user_power(amps[k], 1.0, cfg.alpha,
                                              cfg.delta, lam=cfg.lam,
                                              start=T)
                          for k in range(K)]
        user_channel = [ipc.init_user_channel(hops, L, cfg.alpha, cfg.delta,
                                              h0[k * hops * L:(k + 1) * hops * L])
                        for k in range(K)]
        C_users = [np.kron(np.eye(hops), scn.conv[k]) for k in range(K)]

    relays = [AdaptiveRelay(M, K, cfg.alpha, cfg.delta) for _ in range(n_r)]
    btilde = np.zeros((n_r, K, P), dtype=complex)

    tails_sd, heads_sd = _isi_mats(scn.x_sd, N, L)
    tails_sr = [_isi_mats(x, N, L) for x in scn.x_sr]
    tails_rd = [_isi_mats(x, N, L) for x in scn.x_rd]

    def col(Bm, t):
        if 0 <= t < P:
            return Bm[:, t]
        return np.zeros(Bm.shape[0], dtype=complex)

    a_b = broadcast_amps(dims)

    def relay_step(i):
        for j in range(n_r):
            r = scn.x_sr[j] @ (B[:, i] * a_b) + noise_rel[j][:, i]
            if isi_on:
                tl, hd = tails_sr[j]
                r = r + tl @ (col(B, i - 1) * a_b) + hd @ (col(B, i + 1) * a_b)
            btilde[j, :, i] = relays[j].step(r, B[:, i] if i < T else None)

    def bt_col(j, t):
        if 0 <= t < P:
            return btilde[j, :, t]
        return np.zeros(K, dtype=complex)

    def dest_frame(t):
        r = noise_dest[:, t].copy()
        a0 = amps[:, 0]
        r[0:M] += scn.x_sd @ (B[:, t] * a0)
        if isi_on:
            r[0:M] += tails_sd @ (col(B, t - 1) * a0) + heads_sd @ (col(B, t + 1) * a0)
        for j in range(n_r):
            aj = amps[:, j + 1]
            blk = slice((j + 1) * M, (j + 2) * M)
            r[blk] += scn.x_rd[j] @ (bt_col(j, t) * aj)
            if isi_on:
                tl, hd = tails_rd[j]
                r[blk] += tl @ (bt_col(j, t - 1) * aj) + hd @ (bt_col(j, t + 1) * aj)
        return r

    err_symbol = np.zeros(P, dtype=int)
    a_sq_norms = [] if "a_norm" in collect else None
    ch_errs = [] if "channel_error" in collect else None
    diverged = False
    try:
        for i in range(P + 1):
            if i < P and n_r > 0:
                relay_step(i)
            t = i - 1
            if t < 0:
                continue
            r = dest_frame(t)
            soft = rx.W.conj().T @ r
            decisions = hard_decision(soft)
            ref = B[:, t] if t < T else decisions
            err_symbol[t] = int((demodulate_qpsk(soft) != bits[:, t]).sum())

            # per-link symbol matrix (K x hops): direct hop carries the
            # training/decision symbol, relay hops carry the soft symbols the
            # relays actually forwarded
            link_syms = np.empty((K, hops), dtype=complex)
            link_syms[:, 0] = ref
            for j in range(n_r):
                link_syms[:, j + 1] = btilde[j, :, t]

            if scheme == "jpais-gpc":
                gpc.channel_update(joint_channel, r, scn.C_all,
                                   link_syms.reshape(-1), joint_power.a, L)
                gpc.receiver_update(rx, r, ref)
                U_hat = gpc.waveforms_from_channel(scn.conv, joint_channel.h, hops)
                gpc.power_update(joint_power, rx.W, U_hat,
                                 link_syms.reshape(-1), ref)
                amps = joint_power.a.reshape(K, hops)
                if a_sq_norms is not None:
                    a_sq_norms.append(float(np.linalg.norm(joint_power.a) ** 2))
                if ch_errs is not None:
                    ch_errs.append(float(np.linalg.norm(joint_channel.h - scn.h_true)
                                         / np.linalg.norm(scn.h_true)))
            elif scheme == "jpais-ipc":
                for k in range(K):
                    ipc.user_channel_update(user_channel[k], r, C_users[k],
                                            link_syms[k], amps[k], L)
                gpc.receiver_update(rx, r, ref)
                if user_power is not None:
                    for k in range(K):
                        U_hat_k = ipc.user_waveforms_from_channel(
                            scn.conv[k], user_channel[k].h, hops)
                        amps[k] = ipc.user_power_update(
                            user_power[k], rx.W[:, k], U_hat_k,
                            link_syms[k], ref[k])
                        if a_sq_norms is not None:
                            a_sq_norms.append(float(np.linalg.norm(amps[k]) ** 2))
                if ch_errs is not None:
                    h_cat = np.concatenate([st.h for st in user_channel])
                    ch_errs.append(float(np.linalg.norm(h_cat - scn.h_true)
                                         / np.linalg.norm(scn.h_true)))
            else:
                gpc.receiver_update(rx, r, ref)
    except (NumericalDivergenceError, DegenerateStateError):
        diverged = True

    payload = slice(T, P)
    extras = {}
    if a_sq_norms is not None:
        extras["a_sq_norms"] = np.asarray(a_sq_norms)
    if ch_errs is not None:
        extras["channel_error"] = np.asarray(ch_errs)
    return PacketResult(bit_errors=int(err_symbol[payload].sum()),
                        payload_bits=2 * (P - T) * K, diverged=diverged,
                        per_symbol_errors=err_symbol if collect_per_symbol else None,
                        extras=extras)


def run_packet(cfg: ExperimentConfig, scn: Scenario,
               rng_data: np.random.Generator, rng_noise: np.random.Generator,
               rng_init: np.random.Generator,
               collect_per_symbol: bool = False) -> PacketResult:
    """Simulate one packet under the configured scheme and variant."""
    if cfg.variant == "exact":
        W, amps = design_exact(scn, cfg.scheme, cfg)
        return simulate_packet_exact(scn, W, amps, cfg, rng_data, rng_noise,
                                     collect_per_symbol=collect_per_symbol)
    return simulate_packet_adaptive(scn, cfg.scheme, cfg, rng_data, rng_noise,
                                    rng_init, collect_per_symbol=collect_per_symbol)


@dataclass
class BerCurve:
    """Aggregated experiment output: one row per grid point."""

    x_name: str
    rows: list  # (x_value, ber_mean, ber_stderr, bit_count)
    scheme: str
    variant: str
    metadata: dict = field(default_factory=dict)
    divergences: int = 0

    def ber_at(self, x) -> float:
        for row in self.rows:
            if row[0] == x:
                return row[1]
        raise KeyError(x)


def trial_rngs(seed: int, trial: int):
    """Independent per-trial streams for channels, data, noise, and init."""
    return (np.random.default_rng([seed, 1, trial]),
            np.random.default_rng([seed, 2, trial]),
            np.random.default_rng([seed, 3, trial]),
            np.random.default_rng([seed, 4, trial]))


def codes_for(cfg: ExperimentConfig, users: int) -> np.ndarray:
    """Spreading codes fixed for the whole run, one draw per user count."""
    return draw_spreading_codes(users, cfg.chips, np.random.default_rng([cfg.seed, 0, users]))


def _run_point(cfg: ExperimentConfig, dims: SystemDims, sigma2: float,
               codes: np.ndarray, collect_per_symbol: bool = False):
    bers, divergences = [], 0
    per_symbol = np.zeros(dims.P, dtype=np.int64) if collect_per_symbol else None
    used_trials = 0
    for t in range(cfg.trials):
        rng_ch, rng_data, rng_noise, rng_init = trial_rngs(cfg.seed, t)
        scn = draw_scenario(dims, codes, sigma2, cfg.shadowing_std_db, rng_ch,
                            isi_enabled=cfg.isi)
        try:
            res = run_packet(cfg, scn, rng_data, rng_noise, rng_init,
                             collect_per_symbol=collect_per_symbol)
        except (IllConditionedError, DegenerateStateError):
            divergences += 1
            continue
        if res.diverged:
            divergences += 1
            continue
        bers.append(res.bit_errors / res.payload_bits)
        used_trials += 1
        if collect_per_symbol and res.per_symbol_errors is not None:
            per_symbol += res.per_symbol_errors
    bers = np.asarray(bers)
    mean = float(bers.mean()) if bers.size else float("nan")
    stderr = float(bers.std(ddof=1) / np.sqrt(bers.size)) if bers.size > 1 else 0.0
    bit_count = 2 * (dims.P - cfg.training_len) * used_trials * dims.K
    return mean, stderr, bit_count, divergences, per_symbol, used_trials


def run_experiment(cfg: ExperimentConfig) -> BerCurve:
    """BER versus SNR over the configured grid; deterministic given the seed."""
    dims = cfg.dims()
    codes = codes_for(cfg, dims.K)
    rows, total_div = [], 0
    for snr in cfg.snr_grid:
        sigma2 = snr_db_to_sigma2(snr)
        mean, stderr, bits, div, _, _ = _run_point(cfg, dims, sigma2, codes)
        rows.append((float(snr), mean, stderr, bits))
        total_div += div
    return BerCurve(x_name="snr_db", rows=rows, scheme=cfg.scheme,
                    variant=cfg.variant, metadata=dataclasses.asdict(cfg),
                    divergences=total_div)


def run_user_sweep(cfg: ExperimentConfig, users_grid, snr_db: float) -> BerCurve:
    """BER versus user count at a fixed SNR."""
    sigma2 = snr_db_to_sigma2(snr_db)
    rows, total_div = [], 0
    for K in users_grid:
        dims = cfg.dims(users=int(K))
        codes = codes_for(cfg, dims.K)
        mean, stderr, bits, div, _, _ = _run_point(cfg, dims, sigma2, codes)
        rows.append((int(K), mean, stderr, bits))
        total_div += div
    return BerCurve(x_name="users", rows=rows, scheme=cfg.scheme,
                    variant=cfg.variant, metadata=dataclasses.asdict(cfg),
                    divergences=total_div)


def learning_curve(cfg: ExperimentConfig, snr_db: float | None = None) -> BerCurve:
    """Per-symbol-index BER averaged over trials (convergence view)."""
    snr = cfg.snr_grid[0] if snr_db is None else snr_db
    dims = cfg.dims()
    codes = codes_for(cfg, dims.K)
    _, _, _, div, per_symbol, used = _run_point(
        cfg, dims, snr_db_to_sigma2(snr), codes, collect_per_symbol=True)
    denom = max(2 * dims.K * used, 1)
    rows = [(int(i), float(per_symbol[i]) / denom, 0.0, denom)
            for i in range(dims.P)]
    return BerCurve(x_name="symbol", rows=rows, scheme=cfg.scheme,
                    variant=cfg.variant, metadata=dataclasses.asdict(cfg),
                    divergences=div)


def run_baseline_cis(cfg: ExperimentConfig) -> BerCurve:
    """The equal-power cooperative baseline under the same pipeline."""
    return run_experiment(dataclasses.replace(cfg, scheme="cis"))


def capacity_at_target(curves, target_ber: float):
    """Largest grid point whose BER stays at or below the target.

    Accepts one BerCurve (returns int or None) or a mapping of scheme name to
    BerCurve (returns a dict of the same shape).
    """
    if isinstance(curves, dict):
        return {name: capacity_at_target(c, target_ber) for name, c in curves.items()}
    feasible = [row[0] for row in curves.rows if row[1] <= target_ber]
    return max(feasible) if feasible else None
