"""Monte Carlo experiment engine for the cooperative DS-CDMA uplink.

Simulates packets of QPSK symbols through the two-phase relay chain for four
schemes (NCIS, CIS, JPAIS-GPC, JPAIS-IPC) in exact-MMSE and adaptive (RLS)
variants, and aggregates bit error ratios over independently seeded trials.
Every random stream is derived from (seed, stream-tag, trial-index), so
results are bit-reproducible and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gpc, ipc, mmse
from .errors import (ConfigError, DegenerateStateError, IllConditionedError,
                     NumericalDivergenceError)
from .model import (SystemDims, add_hop_frames, build_convolution_matrix,
                    demodulate_qpsk, draw_spreading_codes,
                    generate_multipath_channel, hard_decision, modulate_qpsk)
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
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        for name in ("lam", "lam_t"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name}: must be finite and >= 0, got {value!r}")
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
        if len(self.snr_grid) == 0:
            raise ConfigError("snr_grid: must hold at least one SNR")
        for snr in self.snr_grid:
            try:
                sigma2 = snr_db_to_sigma2(snr)
            except (OverflowError, ZeroDivisionError):  # |snr| >~ 3083 dB
                sigma2 = 0.0
            if not 0.0 < sigma2 < np.inf:  # also rejects nan and +-inf dB
                raise ConfigError(f"snr_grid: {snr!r} dB gives no finite, "
                                  "positive noise variance")
        if self.scheme == "ncis" and self.relays != 0:
            object.__setattr__(self, "relays", 0)

    def dims(self, users: int | None = None) -> SystemDims:
        K = self.users if users is None else users
        if K < 1:
            raise ConfigError(f"users: must be >= 1, got {K}")
        return SystemDims(K=K, N=self.chips, L=self.paths,
                          n_r=self.relays, P=self.packet_len)

    def mmse_config(self, lam: float) -> mmse.MmseConfig:
        return mmse.MmseConfig(lam=lam, max_iters=self.mmse_iters,
                               tol=self.mmse_tol)


def power_blocks(scheme: str, cfg: ExperimentConfig, K: int):
    """Users per power block and the power step's loading: one block of all
    K users (jpais-gpc, lam_t) or one per user (jpais-ipc, lam), each under
    its users' unit budgets. None without a power step: for the equal-power
    schemes, and for blocks of one link, whose power the budget pins
    (jpais-ipc, or one-user jpais-gpc, without relays), which run as ncis.
    """
    if scheme not in ("jpais-gpc", "jpais-ipc"):
        return None
    n_u, lam = (K, cfg.lam_t) if scheme == "jpais-gpc" else (1, cfg.lam)
    return (n_u, lam) if n_u * (cfg.relays + 1) > 1 else None


def snr_db_to_sigma2(snr_db: float) -> float:
    """SNR = P_A / sigma^2 with the per-user budget P_A = 1."""
    return 1.0 / (10.0 ** (snr_db / 10.0))


@dataclass
class Scenario:
    """One packet's ground truth: codes, per-link channels, noise level."""

    dims: SystemDims
    sigma2: float
    codes: np.ndarray
    x_sr: list  # per relay, M x K source-to-relay waveforms
    U: np.ndarray  # stack x K*hops true per-link waveform matrix
    C_all: np.ndarray  # stack x K*hops*L stacked block signatures
    h_true: np.ndarray  # stacked effective destination-facing channels
    isi_enabled: bool = True

    @property
    def spill(self) -> int:
        """Chips a symbol spills into its neighbours' windows: L - 1 with ISI."""
        return self.dims.L - 1 if self.isi_enabled else 0

    @cached_property
    def relay_banks(self) -> list:
        """Each relay's exact MMSE filters and gains, solved on first use:
        the exact design and the exact packet share them, and adaptive
        packets never solve them."""
        return [mmse_relay_bank(X, self.sigma2) for X in self.x_sr]


def draw_scenario(dims: SystemDims, codes: np.ndarray, sigma2: float,
                  shadowing_std_db: float, rng: np.random.Generator,
                  isi_enabled: bool = True) -> Scenario:
    K, L, n_r, hops = dims.K, dims.L, dims.n_r, dims.hops
    conv = [build_convolution_matrix(codes[k], L) for k in range(K)]
    # one channel per link and user, drawn in the order source-destination,
    # source-relay, relay-destination, each shadowed by a log-normal gain
    g = np.array([generate_multipath_channel(L, rng)
                  for _ in range((1 + 2 * n_r) * K)]).reshape(1 + 2 * n_r, K, L)
    if shadowing_std_db != 0.0:
        g = g * 10.0 ** (shadowing_std_db
                         * rng.standard_normal((1 + 2 * n_r, K, 1)) / 20.0)
    x_sr = [gpc.waveforms_from_channel(np.hstack(conv), g_j.reshape(-1), L)
            for g_j in g[1:1 + n_r]]
    # destination-facing links, user-major, hop-major, L taps per link
    h_true = np.concatenate([g[:1], g[1 + n_r:]]).transpose(1, 0, 2).reshape(-1)
    C_all = np.hstack([np.kron(np.eye(hops), conv[k]) for k in range(K)])
    U = gpc.waveforms_from_channel(C_all, h_true, L)
    return Scenario(dims=dims, sigma2=sigma2, codes=codes, x_sr=x_sr, U=U,
                    C_all=C_all, h_true=h_true, isi_enabled=isi_enabled)


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


def _packet_result(soft: np.ndarray, bits: np.ndarray, T: int,
                   **fields) -> PacketResult:
    """Bit errors of the K x n soft outputs against the sent K x P x 2 bits,
    per symbol and over the payload after T training symbols. A diverged
    packet passes the n symbols it detected; later ones count no errors."""
    K, P = bits.shape[:2]
    n = soft.shape[1]
    err_symbol = np.zeros(P, dtype=np.int64)
    err_symbol[:n] = (demodulate_qpsk(soft) != bits[:, :n]).sum(axis=(0, 2))
    return PacketResult(bit_errors=int(err_symbol[T:].sum()),
                        payload_bits=2 * (P - T) * K,
                        per_symbol_errors=err_symbol, **fields)


def scenario_omega(scn: Scenario) -> np.ndarray:
    """Link-symbol correlation matrix for the scenario's relay chain.

    Models the relays' MMSE filtering: their soft symbols carry residual
    interference and noise. The relays listen to a separate source slot sent
    at the full per-user budget P_A = 1, so their source-to-relay waveforms
    enter unscaled and relay-side quality is identical across schemes.
    """
    dims = scn.dims
    stats = [relay_statistics(X, scn.sigma2, bank)
             for X, bank in zip(scn.x_sr, scn.relay_banks)]
    return mmse.relay_omega(dims.K, dims.hops, stats)


def design_exact(scn: Scenario, scheme: str, cfg: ExperimentConfig):
    """Exact-statistics receiver matrix and amplitude allocation for a packet."""
    dims = scn.dims
    omega = scenario_omega(scn)
    plan = power_blocks(scheme, cfg, dims.K)
    if plan is None:
        amps = mmse.equal_power_amps(dims.K, dims.hops).astype(complex)
        return mmse.receiver(scn.U, dims.hops, scn.sigma2, amps, omega), amps
    users_per_block, lam = plan
    res = mmse.alternate(scn.U, dims.hops, scn.sigma2,
                         dims.K // users_per_block, cfg.mmse_config(lam), omega)
    return res.W, res.amps


def _packet_symbols(scn: Scenario, rng_data: np.random.Generator):
    """Payload bits and the hops x K x (P + 2) per-hop symbol array.

    Hop 0 carries the source symbols; the relay hops are filled in by the
    caller. Column 0 and column P + 1 stay zero: the neighbours of the first
    and last symbol.
    """
    dims = scn.dims
    bits = rng_data.integers(0, 2, size=(dims.K, dims.P, 2))
    S = np.zeros((dims.hops, dims.K, dims.P + 2), dtype=complex)
    S[0, :, 1:-1] = modulate_qpsk(bits)
    return bits, S


def _relay_frames(scn: Scenario, S0: np.ndarray,
                  rng_noise: np.random.Generator) -> list:
    """Each relay's whole-packet chip observation of the source broadcast,
    sent at the full per-user budget, for the adaptive relays."""
    dims = scn.dims
    frames = []
    for X in scn.x_sr:
        R = _noise_matrix((dims.M, dims.P), scn.sigma2, rng_noise)
        add_hop_frames(R, X, S0, 1.0, scn.spill)
        frames.append(R)
    return frames


def _filtered_noise(W: np.ndarray, sigma2: float, P: int,
                    rng: np.random.Generator) -> np.ndarray:
    """W^H n over P symbols, n white chip noise of variance sigma2, drawn in
    W's K columns: W^H n ~ CN(0, sigma2 W^H W), coloured by R^H of W = QR.
    Unlike a Cholesky factor of W^H W, the QR factor exists for a
    rank-deficient W."""
    R = np.linalg.qr(W, mode="r")
    return R.conj().T @ _noise_matrix((R.shape[0], P), sigma2, rng)


def _add_destination_frames(out: np.ndarray, scn: Scenario, S: np.ndarray,
                            amps: np.ndarray,
                            left: np.ndarray | None = None) -> None:
    """Add every hop's frames to the stacked destination windows out, or,
    with a left factor (J x stack), to out = left times those windows.

    S holds the hops x K per-hop symbols of out's columns plus one neighbour
    column on each side; amps is the K x hops amplitude matrix.
    """
    M, hops = scn.dims.M, scn.dims.hops
    for j in range(hops):
        rows = slice(j * M, (j + 1) * M)
        X = scn.U[rows, j::hops]
        if left is None:
            add_hop_frames(out[rows], X, S[j], amps[:, j:j + 1], scn.spill)
        else:
            add_hop_frames(out, X, S[j], amps[:, j:j + 1], scn.spill,
                           left[:, rows])


def exact_soft_outputs(scn: Scenario, W: np.ndarray, amps: np.ndarray,
                       S: np.ndarray,
                       rng_noise: np.random.Generator) -> np.ndarray:
    """Destination soft outputs W^H r (K x P) of a whole packet under fixed
    filters and amplitudes; fills in S's relay hops with the symbols
    g * Wr^H r_j the relays forward. Every output is formed from filtered
    frames and filtered noise, without a chip window."""
    P = scn.dims.P
    for j, (X, (Wr, g)) in enumerate(zip(scn.x_sr, scn.relay_banks)):
        y = _filtered_noise(Wr, scn.sigma2, P, rng_noise)
        add_hop_frames(y, X, S[0], 1.0, scn.spill, Wr.conj().T)
        S[j + 1, :, 1:-1] = y * g[:, None]
    soft = _filtered_noise(W, scn.sigma2, P, rng_noise)
    _add_destination_frames(soft, scn, S, amps, W.conj().T)
    return soft


def simulate_packet_exact(scn: Scenario, W: np.ndarray, amps: np.ndarray,
                          cfg: ExperimentConfig, rng_data: np.random.Generator,
                          rng_noise: np.random.Generator) -> PacketResult:
    """Vectorized packet simulation with fixed filters and amplitudes.

    The data come from rng_data. The noise comes from rng_noise, drawn
    filtered, K x P per filter bank, in the order relay 1, ..., relay n_r,
    destination.
    """
    bits, S = _packet_symbols(scn, rng_data)
    return _packet_result(exact_soft_outputs(scn, W, amps, S, rng_noise),
                          bits, cfg.training_len)


@dataclass
class _UserBlock:
    """Channel and power recursions of a contiguous span of users."""

    users: slice
    C: np.ndarray  # the span's columns of the stacked block signatures
    channel: gpc.ChannelRlsState
    power: gpc.PowerRlsState


def simulate_packet_adaptive(scn: Scenario, scheme: str, cfg: ExperimentConfig,
                             rng_data: np.random.Generator,
                             rng_noise: np.random.Generator,
                             rng_init: np.random.Generator,
                             collect: tuple = ()) -> PacketResult:
    """Sequential packet simulation with RLS receivers, power, and channels.

    The relays never see destination feedback, so each relay's RLS filter
    first runs over its whole-packet observation. The destination then steps
    per symbol: channel -> receiver -> power, the channel and power recursions
    running over the blocks of users that power_blocks gives the scheme, each
    under its users' total budget; without a power step there are no blocks.
    Transmit amplitudes follow the latest power estimates. The soft outputs
    are demodulated once, after the packet.
    """
    dims = scn.dims
    K, L, P, M = dims.K, dims.L, dims.P, dims.M
    hops, stack = dims.hops, dims.stack
    T = cfg.training_len

    bits, S = _packet_symbols(scn, rng_data)
    B = S[0, :, 1:-1]
    relay_obs = _relay_frames(scn, S[0], rng_noise)
    noise_dest = _noise_matrix((stack, P), scn.sigma2, rng_noise)

    # common initialization draws, identical across schemes for stream parity
    h0 = 0.01 * (rng_init.standard_normal(K * hops * L)
                 + 1j * rng_init.standard_normal(K * hops * L))
    U0 = gpc.waveforms_from_channel(scn.C_all, h0, L)
    amps = mmse.equal_power_amps(K, hops).astype(complex)
    W0 = np.zeros((stack, K), dtype=complex)
    for k in range(K):
        col = U0[:, k * hops:(k + 1) * hops] @ amps[k]
        nrm = np.linalg.norm(col)
        W0[:, k] = col / nrm if nrm > 0 else col
    rx = gpc.init_receiver(stack, K, cfg.alpha, cfg.delta, W0)

    plan = power_blocks(scheme, cfg, K)
    n_u, lam = plan if plan is not None else (K, 0.0)
    # one-user blocks call gpc's recursions through ipc's names, which the
    # benchmark's tracer times apart from the joint ones
    channel_step, waveforms, power_step = (
        (ipc.user_channel_update, ipc.user_waveforms_from_channel,
         ipc.user_power_update) if n_u == 1 else
        (gpc.channel_update, gpc.waveforms_from_channel, gpc.power_update))
    blocks = []
    for k0 in range(0, K, n_u) if plan is not None else ():
        k1 = k0 + n_u
        links = slice(k0 * hops * L, k1 * hops * L)
        power = gpc.init_power(amps[k0:k1].reshape(-1), float(n_u), cfg.alpha,
                               cfg.delta, lam=lam, start=T)
        channel = gpc.init_channel(n_u * hops * L, cfg.alpha, cfg.delta,
                                   h0[links])
        blocks.append(_UserBlock(slice(k0, k1), scn.C_all[:, links], channel,
                                 power))

    soft = np.empty((K, P), dtype=complex)
    detected = 0  # symbols whose soft output is in soft
    a_sq_norms = [] if "a_norm" in collect else None
    ch_errs = [] if "channel_error" in collect else None
    diverged = False
    try:
        for j, R in enumerate(relay_obs):
            relay = AdaptiveRelay(M, K, cfg.alpha, cfg.delta)
            for i in range(P):
                S[j + 1, :, i + 1] = relay.step(R[:, i], B[:, i] if i < T else None)

        for t in range(P):
            r = noise_dest[:, t:t + 1].copy()
            _add_destination_frames(r, scn, S[:, :, t:t + 3], amps)
            r = r[:, 0]
            soft[:, t] = rx.W.conj().T @ r
            detected = t + 1
            ref = B[:, t] if t < T else hard_decision(soft[:, t])

            # per-link symbols (K x hops): the direct hop carries the
            # training/decision symbol, the relay hops the soft symbols the
            # relays actually forwarded
            link_syms = S[:, :, t + 1].T.copy()
            link_syms[:, 0] = ref

            for blk in blocks:
                channel_step(blk.channel, r, blk.C,
                             link_syms[blk.users].reshape(-1),
                             amps[blk.users].reshape(-1), L)
            gpc.receiver_update(rx, r, ref)
            for blk in blocks:
                U_hat = waveforms(blk.C, blk.channel.h, L)
                a = power_step(blk.power, rx.W[:, blk.users], U_hat,
                               link_syms[blk.users].reshape(-1), ref[blk.users])
                amps[blk.users] = a.reshape(-1, hops)
                if a_sq_norms is not None:
                    a_sq_norms.append(float(np.linalg.norm(a) ** 2))
            if ch_errs is not None and blocks:
                h_cat = np.concatenate([blk.channel.h for blk in blocks])
                ch_errs.append(float(np.linalg.norm(h_cat - scn.h_true)
                                     / np.linalg.norm(scn.h_true)))
    except (NumericalDivergenceError, DegenerateStateError):
        diverged = True

    extras = {}
    if a_sq_norms is not None:
        extras["a_sq_norms"] = np.asarray(a_sq_norms)
    if ch_errs is not None:
        extras["channel_error"] = np.asarray(ch_errs)
    return _packet_result(soft[:, :detected], bits, T, diverged=diverged,
                          extras=extras)


def run_packet(cfg: ExperimentConfig, scn: Scenario,
               rng_data: np.random.Generator, rng_noise: np.random.Generator,
               rng_init: np.random.Generator) -> PacketResult:
    """Simulate one packet under the configured scheme and variant."""
    if cfg.variant == "exact":
        W, amps = design_exact(scn, cfg.scheme, cfg)
        return simulate_packet_exact(scn, W, amps, cfg, rng_data, rng_noise)
    return simulate_packet_adaptive(scn, cfg.scheme, cfg, rng_data, rng_noise,
                                    rng_init)


@dataclass
class BerCurve:
    """Aggregated experiment output: one row per grid point."""

    x_name: str
    rows: list  # (x_value, ber_mean, ber_stderr, bit_count)
    scheme: str
    variant: str
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


def _run_point(cfg: ExperimentConfig, users: int, snr_db: float):
    """Every trial at one (users, SNR) point: the BERs of the packets that
    kept going, the number that diverged, and the kept packets' summed
    per-symbol errors."""
    dims = cfg.dims(users)
    codes = codes_for(cfg, dims.K)
    sigma2 = snr_db_to_sigma2(snr_db)
    bers, divergences = [], 0
    per_symbol = np.zeros(dims.P, dtype=np.int64)
    for t in range(cfg.trials):
        rng_ch, rng_data, rng_noise, rng_init = trial_rngs(cfg.seed, t)
        scn = draw_scenario(dims, codes, sigma2, cfg.shadowing_std_db, rng_ch,
                            isi_enabled=cfg.isi)
        try:
            res = run_packet(cfg, scn, rng_data, rng_noise, rng_init)
        except (IllConditionedError, DegenerateStateError):
            divergences += 1
            continue
        if res.diverged:
            divergences += 1
            continue
        bers.append(res.bit_errors / res.payload_bits)
        per_symbol += res.per_symbol_errors
    return bers, divergences, per_symbol


def _fixed_snr(cfg: ExperimentConfig) -> float:
    """The one SNR of a fixed-SNR run: several are refused, not cut to one."""
    if len(cfg.snr_grid) != 1:
        raise ConfigError("snr_grid: a fixed-SNR run takes one SNR, "
                          f"got {cfg.snr_grid!r}")
    return cfg.snr_grid[0]


def _sweep(cfg: ExperimentConfig, x_name: str, points) -> BerCurve:
    """One row (x, mean BER, its standard error, payload bits) per
    (x, users, SNR) point, over the packets that did not diverge; with none
    left, nan over 0 bits."""
    rows, total_div = [], 0
    for x, users, snr_db in points:
        bers, div, _ = _run_point(cfg, users, snr_db)
        bers = np.asarray(bers)
        mean = float(bers.mean()) if bers.size else float("nan")
        stderr = float(bers.std(ddof=1) / np.sqrt(bers.size)) if bers.size > 1 else 0.0
        bits = 2 * (cfg.packet_len - cfg.training_len) * bers.size * users
        rows.append((x, mean, stderr, bits))
        total_div += div
    return BerCurve(x_name=x_name, rows=rows, scheme=cfg.scheme,
                    variant=cfg.variant, divergences=total_div)


def run_experiment(cfg: ExperimentConfig) -> BerCurve:
    """BER versus SNR over the configured grid; deterministic given the seed."""
    return _sweep(cfg, "snr_db",
                  [(float(snr), cfg.users, snr) for snr in cfg.snr_grid])


def run_user_sweep(cfg: ExperimentConfig, users_grid) -> BerCurve:
    """BER versus user count at the configured single SNR."""
    snr = _fixed_snr(cfg)
    return _sweep(cfg, "users", [(int(K), int(K), snr) for K in users_grid])


def learning_curve(cfg: ExperimentConfig) -> BerCurve:
    """Per-symbol-index BER averaged over trials (convergence view), at the
    configured single SNR."""
    bers, div, per_symbol = _run_point(cfg, cfg.users, _fixed_snr(cfg))
    # with every trial diverged: nan over 0 bits, as run_experiment reports
    bits = 2 * cfg.users * len(bers)
    rows = [(i, float(n) / bits if bits else float("nan"), 0.0, bits)
            for i, n in enumerate(per_symbol.tolist())]
    return BerCurve(x_name="symbol", rows=rows, scheme=cfg.scheme,
                    variant=cfg.variant, divergences=div)


def capacity_at_target(curve: BerCurve, target_ber: float):
    """Largest grid point whose BER stays at or below the target, or None."""
    feasible = [row[0] for row in curve.rows if row[1] <= target_ber]
    return max(feasible) if feasible else None
