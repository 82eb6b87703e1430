"""Monte Carlo experiment engine for the cooperative DS-CDMA uplink.

Simulates packets of QPSK symbols through the two-phase relay chain for four
schemes (NCIS, CIS, JPAIS-GPC, JPAIS-IPC) in exact-MMSE and adaptive (RLS)
variants, and aggregates bit error ratios over independently seeded trials.
Every random stream is derived from (seed, stream-tag, trial-index), so
results are bit-reproducible and independent of execution order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import gpc, ipc, mmse
from .errors import ConfigError, TrialFailure
from .model import (SystemDims, add_hop_frames, build_convolution_matrix,
                    demodulate_qpsk, draw_spreading_codes,
                    generate_multipath_channel, hard_decision, modulate_qpsk)
from .relays import AdaptiveRelay, mmse_relay_bank, relay_statistics

SCHEMES = ("ncis", "cis", "jpais-gpc", "jpais-ipc")
VARIANTS = ("exact", "adaptive")
# adaptive destination symbols whose link frames are built at once: at the
# desk configuration 25 x 54 x 12 complex values, 253 KiB
_FRAME_CHUNK = 25
# the most packets a sweep draws and designs at once, in whole trials of
# every point: max(1, _DESIGN_CHUNK // points) trials per chunk, 100 for a
# one-point run, 14 (98 packets) for the 7-point desk grid, and one chunk of
# 8 trials (32 packets) for the benchmark's 4-point exact-sweep. A sweep
# holds one chunk's scenarios and designs and one trial's draws at a time: a
# desk jpais-gpc sweep of 7 points peaks at about 4.6 MB more RSS than one
# trial per chunk, the same at 100 and at 1000 trials per point; the 4
# points of 8 trials, about 0.8 MB more
_DESIGN_CHUNK = 100


_ACCEPTS = {bool: (bool, np.bool_), int: numbers.Integral, float: numbers.Real,
            str: str}


def _as_kind(kind: type, value):
    """value as the Python type kind: an integer (not a bool) for int, a real
    number (not a bool) for float, a sequence of real numbers for tuple."""
    if kind is tuple:
        return tuple(_as_kind(float, v) for v in value)
    if (isinstance(value, bool) and kind is not bool
            or not isinstance(value, _ACCEPTS[kind])):
        raise TypeError(value)
    return kind(value)


# the largest count a field takes: the 32-bit index limit of LAPACK and BLAS.
# A count within it can still ask for more memory than the host has.
_COUNT_MAX = 2**31 - 1


def _count(default: int, low: int):
    """A count field: an int in [low, _COUNT_MAX]."""
    return field(default=default, metadata={"low": low, "high": _COUNT_MAX})


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment parameters; defaults reproduce the desk-scale setup.
    A field takes its default's type (_as_kind) and its metadata's bounds."""

    users: int = _count(4, low=1)
    chips: int = _count(16, low=1)
    paths: int = _count(3, low=1)
    relays: int = _count(2, low=0)
    packet_len: int = _count(1500, low=2)
    training_len: int = _count(200, low=1)
    trials: int = _count(100, low=1)
    snr_grid: tuple = (0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 18.0)
    scheme: str = "jpais-ipc"
    variant: str = "exact"
    alpha: float = field(default=0.998,
                         metadata={"low": 0.0, "strict": True, "high": 1.0})
    lam: float = field(default=0.025, metadata={"low": 0.0})
    lam_t: float = field(default=0.025, metadata={"low": 0.0})
    seed: int = field(default=1, metadata={"low": 0})
    shadowing_std_db: float = field(default=3.0, metadata={"low": 0.0})
    isi: bool = True
    delta: float = field(default=0.01, metadata={"low": 0.0, "strict": True})
    # the exact alternation's cap on steps, and the relative MSE decrease
    # below which it stops (mmse.MmseConfig)
    mmse_iters: int = _count(50, low=1)
    mmse_tol: float = field(default=1e-6, metadata={"low": 0.0, "strict": True})

    def __post_init__(self):
        # each value stored as its field's type, so that configs compare and
        # hash by value (a scenario keeps its exact designs by scheme and
        # config, Scenario.designs)
        for f in fields(self):
            kind, value = type(f.default), getattr(self, f.name)
            try:
                value = _as_kind(kind, value)
            except (TypeError, OverflowError):
                what = "a sequence of reals" if kind is tuple else kind.__name__
                raise ConfigError(f"{f.name}: expected {what}, "
                                  f"got {value!r}") from None
            low, high = f.metadata.get("low"), f.metadata.get("high")
            strict = f.metadata.get("strict")
            # nan fails both comparisons; an int is compared exactly
            if low is not None and not ((low < value if strict else
                                         low <= value) and value < np.inf):
                op = ">" if strict else ">="
                raise ConfigError(f"{f.name}: must be a finite number {op} "
                                  f"{low}, got {value!r}")
            if high is not None and value > high:
                raise ConfigError(f"{f.name}: must be at most {high}, "
                                  f"got {value!r}")
            object.__setattr__(self, f.name, value)
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme: unknown value {self.scheme!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant: unknown value {self.variant!r}")
        if self.training_len >= self.packet_len:
            raise ConfigError("training_len: must be smaller than packet_len")
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

    def dims(self) -> SystemDims:
        return SystemDims(K=self.users, N=self.chips, L=self.paths,
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
    """One packet's ground truth: codes, per-link channels, noise level.

    relay_banks holds the relays' exact MMSE filters (n_r x M x K), gains
    (n_r x K) and the R factors of their filters (n_r x min(M, K) x K), set
    by the exact design's relay chain (_relay_chains), and designs each exact
    design (W, amps) with the R factor of W, or the TrialFailure that failed
    it, by (scheme, config) (design_exact); the R factors colour the packet's
    filtered noise (_filtered_noise). Neither is an init field, so a
    scenario made by replace starts with neither. A scenario's arrays must
    not change after its first design."""

    dims: SystemDims
    sigma2: float
    codes: np.ndarray
    x_sr: np.ndarray  # n_r x M x K source-to-relay waveforms
    x_dest: np.ndarray  # hops x M x K destination-facing waveforms
    h_true: np.ndarray  # stacked effective destination-facing channels
    isi_enabled: bool = True
    relay_banks: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)
    designs: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @property
    def spill(self) -> int:
        """Chips a symbol spills into its neighbours' windows: L - 1 with ISI."""
        return self.dims.L - 1 if self.isi_enabled else 0


def _signatures(codes: np.ndarray, L: int) -> np.ndarray:
    """M x K*L: each user's M x L convolution matrix, user-major."""
    return np.hstack([build_convolution_matrix(code, L) for code in codes])


def draw_scenario(dims: SystemDims, codes: np.ndarray, sigma2: float,
                  shadowing_std_db: float, rng: np.random.Generator,
                  isi_enabled: bool = True) -> Scenario:
    K, L, n_r = dims.K, dims.L, dims.n_r
    conv = _signatures(codes, L)
    # one channel per link and user, drawn in the order source-destination,
    # source-relay, relay-destination, each shadowed by a log-normal gain
    g = generate_multipath_channel(L, rng, (1 + 2 * n_r, K))
    if shadowing_std_db != 0.0:
        g = g * 10.0 ** (shadowing_std_db
                         * rng.standard_normal((1 + 2 * n_r, K, 1)) / 20.0)
    # every draw's M x K waveforms in one map
    X = gpc.waveforms_from_channel(conv, g.reshape(1 + 2 * n_r, K * L), L)
    # destination-facing links, user-major, hop-major, L taps per link
    h_true = np.concatenate([g[:1], g[1 + n_r:]]).transpose(1, 0, 2).reshape(-1)
    return Scenario(dims=dims, sigma2=sigma2, codes=codes, x_sr=X[1:1 + n_r],
                    x_dest=np.concatenate([X[:1], X[1 + n_r:]]),
                    h_true=h_true, isi_enabled=isi_enabled)


def _noise_matrix(normals, sigma2: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """White complex noise of variance sigma2 from the unit normals of its
    real parts, then of its imaginary parts, that normals holds (a (2, ...)
    array) or yields (drawn one part at a time, so that one part is held at
    a time); written into out if given."""
    scale = np.sqrt(sigma2 / 2.0)
    normals = iter(normals)
    part = next(normals)
    out = np.empty(part.shape, dtype=complex) if out is None else out
    # written in place: the same values as scale * (a + 1j * b) without the
    # complex temporaries
    np.multiply(part, scale, out=out.real)
    del part  # freed before the imaginary parts are drawn
    np.multiply(next(normals), scale, out=out.imag)
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
    # each symbol's two bit errors counted from its pair of error flags,
    # viewed as one 16-bit word, then summed over the users: the same
    # integers as .sum(axis=(0, 2)), without a reduction over pairs
    errors = demodulate_qpsk(soft) != bits[:, :n]
    np.add.reduce(np.bitwise_count(errors.view(np.uint16)[..., 0]), axis=0,
                  out=err_symbol[:n])
    return PacketResult(bit_errors=int(err_symbol[T:].sum()),
                        payload_bits=2 * (P - T) * K,
                        per_symbol_errors=err_symbol, **fields)


def _relay_chains(scenarios: list) -> np.ndarray:
    """Each scenario's link-symbol correlation matrix, (T x K*hops x
    K*hops), with each scenario's relay_banks set to its slice of the
    stacked bank.

    Models the relays' MMSE filtering: their soft symbols carry residual
    interference and noise. The relays listen to a separate source slot sent
    at the full per-user budget P_A = 1, so their source-to-relay waveforms
    enter unscaled and relay-side quality is identical across schemes. The
    chains of all the scenarios are one stack: one mmse_relay_bank and one
    relay_statistics call on their (T, n_r, M, K) source-to-relay waveforms
    and their (T, 1) noise levels, and one QR call for the R factors of
    their filters, with each relay's bytes alone. A trial whose chain fails
    raises its TrialFailure for the whole stack, before any relay_banks is
    set."""
    x_sr = np.stack([scn.x_sr for scn in scenarios])
    sigma2 = np.array([[scn.sigma2] for scn in scenarios])
    bank = mmse_relay_bank(x_sr, sigma2)
    omega = mmse.relay_omega(*relay_statistics(x_sr, sigma2, bank))
    factors = np.linalg.qr(bank[0], mode="r")
    for scn, W, gains, R in zip(scenarios, *bank, factors):
        scn.relay_banks = (W, gains, R)
    return omega


def _bisect_failures(step, items: list) -> list:
    """Each item's result from step(items), which returns one per item in
    order, or the TrialFailure that fails that item, in the order of items.

    A step that raises a TrialFailure is run again on each half of its
    items, down to stacks of one, so that each failure stands alone and
    fails only its own item. With f failed items of T, step runs at most
    1 + 2 f ceil(log2 T) times: halves, where single items would run T
    small steps.
    """
    try:
        return step(items)
    except TrialFailure as exc:
        if len(items) == 1:
            return [exc]
        half = len(items) // 2
        return (_bisect_failures(step, items[:half])
                + _bisect_failures(step, items[half:]))


def _design_stack(scenarios: list, scheme: str, cfg: ExperimentConfig) -> list:
    """Each scenario's exact design (W, amps) with the R factor of W, or the
    TrialFailure that failed it alone, in the order of scenarios: its relay
    chain (_relay_chains, which sets its relay_banks) and its design in the
    stack (mmse.design), run for the whole stack and, on a failure, for its
    halves (_bisect_failures). The R factors of a stack's filters are one QR
    call, so a trial's factor comes from the stack that kept its design. A
    failed stack's trials are designed again, so a trial's pseudoinverse
    warnings repeat once per stack it is in.

    A stack of one with a power step (a lone scenario, or a leaf of the
    bisection) designs through mmse.alternate, with the same bits as
    mmse.design. The equal-power schemes get complex equal amplitudes.
    """
    K = scenarios[0].dims.K
    plan = power_blocks(scheme, cfg, K)
    blocks, config = ((None, None) if plan is None else
                      (K // plan[0], cfg.mmse_config(plan[1])))

    def step(scns: list) -> list:
        omega = _relay_chains(scns)
        if plan is not None and len(scns) == 1:
            # kept only because the benchmark's tracer counts alternation
            # iterations and convergence through mmse.alternate calls
            res = mmse.alternate(scns[0].x_dest, scns[0].sigma2, blocks,
                                 config, omega[0])
            W, amps = res.W[None], res.amps[None]
        else:
            res = mmse.design(np.stack([scn.x_dest for scn in scns]),
                              np.array([scn.sigma2 for scn in scns]), blocks,
                              config, omega)
            W, amps = res.W, (res.amps if plan is not None
                              else res.amps.astype(complex))
        return list(zip(W, amps, np.linalg.qr(W, mode="r")))

    return _bisect_failures(step, scenarios)


def design_exact(scn: Scenario, scheme: str, cfg: ExperimentConfig,
                 stack: list | None = None):
    """Exact-statistics receiver matrix and amplitude allocation for a packet,
    kept in scn.designs with the R factor of the matrix. On the first
    request for a scheme and config, the scenarios of stack, which holds scn
    (by default scn alone), are designed as one stack (_design_stack) and
    each keeps its own design; every request after reads scn's. A scenario
    whose design failed raises its TrialFailure, for its trial alone."""
    key = scheme, cfg
    if key not in scn.designs:
        stack = [scn] if stack is None else stack
        if not any(s is scn for s in stack):
            raise ValueError("the scenario is not one of the point's "
                             "scenarios")
        for s, design in zip(stack, _design_stack(stack, scheme, cfg)):
            s.designs[key] = design
    design = scn.designs[key]
    if isinstance(design, Exception):
        raise design
    W, amps, _ = design
    return W, amps


def _packet_symbols(dims: SystemDims, rng_data: np.random.Generator):
    """Payload bits and the hops x K x (P + 2) per-hop symbol array.

    Hop 0 carries the source symbols; the relay hops are filled in by the
    caller. Column 0 and column P + 1 stay zero: the neighbours of the first
    and last symbol.
    """
    bits = rng_data.integers(0, 2, size=(dims.K, dims.P, 2))
    S = np.zeros((dims.hops, dims.K, dims.P + 2), dtype=complex)
    S[0, :, 1:-1] = modulate_qpsk(bits)
    return bits, S


class TrialDraws(NamedTuple):
    """An exact trial's data and noise, drawn once per sweep (a sweep chunk
    holds whole trials, _run_points), which its packets share at every SNR
    point: the K x P x 2 payload bits, the hops x K x (P + 2) per-hop
    symbols (_packet_symbols; each packet fills in the relay hops before it
    reads them) and, per filter bank in the order relay 1, ..., relay n_r,
    destination, the (2, rows, P) unit normals of its filtered noise."""

    bits: np.ndarray
    symbols: np.ndarray
    normals: list


def exact_draws(dims: SystemDims, rng_data: np.random.Generator,
                rng_noise: np.random.Generator) -> TrialDraws:
    """The bits from rng_data and the unit normals from rng_noise of an exact
    trial. A bank's rows are those of its filters' QR factor
    (_filtered_noise): min(M, K) for a relay, min(hops*M, K) for the
    destination, K at the desk configuration."""
    bits, S = _packet_symbols(dims, rng_data)
    rows = [min(dims.M, dims.K)] * dims.n_r + [min(dims.stack, dims.K)]
    return TrialDraws(bits, S, [rng_noise.standard_normal((2, r, dims.P))
                                for r in rows])


def _relay_frames(scn: Scenario, S0: np.ndarray,
                  rng_noise: np.random.Generator) -> np.ndarray:
    """Every relay's whole-packet chip observation of the source broadcast,
    sent at the full per-user budget, for the adaptive relays (n_r x M x P)."""
    dims = scn.dims
    frames = np.empty((dims.n_r, dims.M, dims.P), dtype=complex)
    for R, X in zip(frames, scn.x_sr):
        _noise_matrix((rng_noise.standard_normal(R.shape) for _ in "ri"),
                      scn.sigma2, out=R)
        add_hop_frames(R, X, S0, 1.0, scn.spill)
    return frames


def _filtered_noise(R: np.ndarray, sigma2: float,
                    normals: np.ndarray) -> np.ndarray:
    """W^H n over P symbols, n white chip noise of variance sigma2, formed
    from R, the R factor of W = QR, and the (2, rows, P) unit normals of R's
    rows: W^H n ~ CN(0, sigma2 W^H W), coloured by R^H. Unlike a Cholesky
    factor of W^H W, the QR factor exists for a rank-deficient W. The
    factors are taken once per design stack (_relay_chains, _design_stack),
    not per packet."""
    return R.conj().T @ _noise_matrix(normals, sigma2)


def _destination_link_frames(scn: Scenario, S: np.ndarray, t0: int,
                             t1: int) -> np.ndarray:
    """Each destination-facing link's frames at unit amplitude for symbols
    t0, ..., t1 - 1, per hop: (t1 - t0, hops, M, K), column k of hop j user
    k's link on that hop, so that with the K x hops amplitudes amps symbol
    t's window is (F[t - t0] @ amps.T[..., None]).reshape(-1) plus noise. S
    is the whole packet's hops x K x (P + 2) per-hop symbol array."""
    hops, M, K = scn.x_dest.shape
    # every link as a (hops, K) stack of one-user hops, built contiguous and
    # then copied symbol-major: adding through a symbol-major view makes
    # numpy buffer its operands, twice the chunk's peak memory (344 against
    # 175 KB at the desk configuration), for the same bytes
    F = np.zeros((hops, K, M, t1 - t0), dtype=complex)
    add_hop_frames(F, scn.x_dest.swapaxes(-1, -2)[..., None],
                   S[:, :, None, t0:t1 + 2], 1.0, scn.spill)
    return np.ascontiguousarray(F.transpose(3, 0, 2, 1))


def exact_soft_outputs(scn: Scenario, W: np.ndarray, amps: np.ndarray,
                       S: np.ndarray, normals: list,
                       R: np.ndarray) -> np.ndarray:
    """Destination soft outputs W^H r (K x P) of a whole packet under fixed
    filters and amplitudes; fills in S's relay hops, in place, with the
    symbols g * Wr^H r_j the relays forward. Every output is formed from
    filtered frames and filtered noise, without a chip window: normals holds
    each filter bank's unit normals (TrialDraws.normals), coloured by the R
    factor of its filters, a relay's from scn.relay_banks and the
    destination's R."""
    for j, (X, Wr, g, Rr, Z) in enumerate(zip(scn.x_sr, *scn.relay_banks,
                                              normals)):
        y = _filtered_noise(Rr, scn.sigma2, Z)
        add_hop_frames(y, X, S[0], 1.0, scn.spill, Wr.conj().T)
        np.multiply(y, g[:, None], out=S[j + 1, :, 1:-1])
    soft = _filtered_noise(R, scn.sigma2, normals[-1])
    # hop j's filter rows W_j see only hop j's links
    for X, W_j, S_j, a in zip(scn.x_dest, W.reshape(scn.x_dest.shape), S,
                              amps.T):
        add_hop_frames(soft, X, S_j, a[:, None], scn.spill, W_j.conj().T)
    return soft


def simulate_packet_exact(scn: Scenario, W: np.ndarray, amps: np.ndarray,
                          cfg: ExperimentConfig,
                          draws: TrialDraws) -> PacketResult:
    """Vectorized packet simulation with fixed filters and amplitudes, on
    its trial's bits and unit-normal noise (exact_draws), which every point
    of the trial shares: only the noise scale sqrt(sigma2 / 2) is the
    packet's own. W and amps are scn's design for cfg (design_exact), whose
    R factor the scenario keeps with it."""
    R = scn.designs[cfg.scheme, cfg][2]
    return _packet_result(exact_soft_outputs(scn, W, amps, draws.symbols,
                                             draws.normals, R),
                          draws.bits, cfg.training_len)


def simulate_packet_adaptive(scn: Scenario, scheme: str, cfg: ExperimentConfig,
                             rng_data: np.random.Generator,
                             rng_noise: np.random.Generator,
                             rng_init: np.random.Generator,
                             collect: tuple = ()) -> PacketResult:
    """Sequential packet simulation with RLS receivers, power, and channels.

    The relays never see destination feedback, so their RLS filters first
    run, as one stack, over their whole-packet observations
    (AdaptiveRelay.forward). Every hop's
    symbols are then known, and only the amplitudes change from one
    destination symbol to the next: the destination builds its links'
    unit-amplitude frames for _FRAME_CHUNK symbols at a time
    (_destination_link_frames) and forms each window as noise plus those
    frames times the current amplitudes. It steps per symbol: receiver ->
    channel -> power, the channel and power recursions each one call on the
    stack of user blocks that power_blocks gives the scheme, each under its
    users' total budget; without a power step there is no such state.
    Transmit amplitudes follow the latest power estimates. The soft outputs
    are demodulated once, after the packet. A packet that diverges records
    extras["divergence"] = (stage, symbol, reason): stage "relay" or
    "destination", the index of the symbol whose step failed, and the
    exception's type and message.
    """
    dims = scn.dims
    K, L, P, M = dims.K, dims.L, dims.P, dims.M
    hops, stack = dims.hops, dims.stack
    T = cfg.training_len

    bits, S = _packet_symbols(dims, rng_data)
    B = S[0, :, 1:-1]
    relay_obs = _relay_frames(scn, S[0], rng_noise)
    noise_dest = _noise_matrix((rng_noise.standard_normal((stack, P))
                                for _ in "ri"), scn.sigma2)

    # common initialization draws, identical across schemes for stream parity,
    # of each link's taps, user-major, regrouped per hop as (hops, K*L)
    h0 = 0.01 * (rng_init.standard_normal(K * hops * L)
                 + 1j * rng_init.standard_normal(K * hops * L))
    h0 = h0.reshape(K, hops, L).swapaxes(0, 1).reshape(hops, K * L)
    conv = _signatures(scn.codes, L)
    amps = mmse.equal_power_amps(K, hops).astype(complex)
    # each user's equal-power composite waveform, normalized unless zero
    W0 = (gpc.waveforms_from_channel(conv, h0, L)
          * amps.T[:, None, :]).reshape(stack, K)
    nrm = np.linalg.norm(W0, axis=0)
    rx = gpc.init_receiver(W0 / np.where(nrm > 0, nrm, 1.0), cfg.alpha,
                           cfg.delta)

    plan = power_blocks(scheme, cfg, K)
    power = None
    if plan is not None:
        n_u, lam = plan
        n_b = K // n_u
        # one-user blocks call gpc's recursions through ipc's names, which
        # the benchmark's tracer times apart from the joint ones
        channel_step, waveforms, power_step = (
            (ipc.user_channel_update, ipc.user_waveforms_from_channel,
             ipc.user_power_update) if n_u == 1 else
            (gpc.channel_update, gpc.waveforms_from_channel, gpc.power_update))
        # block b's users' convolution matrices, the signatures of its links
        # on every hop, (n_b, 1, M, n_u*L), and h0's taps of block b's links
        # on each hop, (n_b, hops, n_u*L)
        C = conv.reshape(M, n_b, 1, -1).transpose(1, 2, 0, 3)
        channel = gpc.init_channel(h0.reshape(hops, n_b, -1).swapaxes(0, 1),
                                   cfg.alpha, cfg.delta)
        power = gpc.init_power(amps.reshape(n_b, -1), float(n_u), cfg.alpha,
                               cfg.delta, lam=lam, start=T)

    soft = np.empty((K, P), dtype=complex)
    detected = 0  # symbols whose soft output is in soft
    a_sq_norms = [] if "a_norm" in collect else None
    ch_errs = [] if "channel_error" in collect else None
    divergence = None
    relay = AdaptiveRelay(dims.n_r, M, K, cfg.alpha, cfg.delta)
    stage = "relay"
    try:
        if dims.n_r:
            S[1:, :, 1:-1] = relay.forward(relay_obs,
                                           B[:, :T]).transpose(1, 2, 0)
        stage = "destination"

        for t in range(P):
            if t % _FRAME_CHUNK == 0:
                t1 = min(t + _FRAME_CHUNK, P)
                frames = _destination_link_frames(scn, S, t, t1)
                # the chunk's per-link symbols (chunk, K, hops), a copy: the
                # direct hop's symbol is replaced by the training or decision
                # symbol, the relay hops carry what the relays forwarded
                links = S[:, :, t + 1:t1 + 1].transpose(2, 1, 0).copy()
            r = noise_dest[:, t] + (frames[t % _FRAME_CHUNK]
                                    @ amps.T[..., None]).reshape(-1)
            y = rx.W.conj().T @ r
            soft[:, t] = y
            detected = t + 1
            ref = B[:, t] if t < T else hard_decision(y)

            gpc.receiver_update(rx, r, ref, y)
            if power is None:
                continue
            link_syms = links[t % _FRAME_CHUNK]
            link_syms[:, 0] = ref
            channel_step(channel, r, C, link_syms.reshape(n_b, -1),
                         amps.reshape(n_b, -1), L)
            # block b's filters are W's columns of its users, split per hop,
            # (n_b, hops, M, n_u), as are its links' waveforms
            W_blocks = rx.W.reshape(hops, M, n_b, n_u).transpose(2, 0, 1, 3)
            a = power_step(power, W_blocks, waveforms(C, channel.h, L),
                           link_syms.reshape(n_b, -1), ref.reshape(n_b, n_u))
            amps = a.reshape(K, hops)
            if a_sq_norms is not None:
                a_sq_norms.extend(np.linalg.norm(a, axis=-1) ** 2)
            if ch_errs is not None:
                # the taps user-major, as h_true holds them
                h = channel.h.reshape(n_b, hops, n_u, L).swapaxes(1, 2)
                ch_errs.append(float(np.linalg.norm(h.reshape(-1) - scn.h_true)
                                     / np.linalg.norm(scn.h_true)))
    except TrialFailure as exc:
        # the symbol the failed step was on: the relays' completed steps, or
        # the last symbol whose destination soft output was formed
        symbol = relay.count if stage == "relay" else detected - 1
        divergence = (stage, symbol, f"{type(exc).__name__}: {exc}")

    extras = {}
    if divergence is not None:
        extras["divergence"] = divergence
    if a_sq_norms is not None:
        extras["a_sq_norms"] = np.asarray(a_sq_norms)
    if ch_errs is not None:
        extras["channel_error"] = np.asarray(ch_errs)
    return _packet_result(soft[:, :detected], bits, T,
                          diverged=divergence is not None, extras=extras)


def run_packet(cfg: ExperimentConfig, scn: Scenario,
               rng_data: np.random.Generator, rng_noise: np.random.Generator,
               rng_init: np.random.Generator) -> PacketResult:
    """Simulate one packet under the configured scheme and variant. An
    exact packet draws its trial's bits and noise (exact_draws), as a sweep
    does once for all of a trial's points, and runs as a sweep's packet
    does (_exact_packet), on scn's own design (design_exact)."""
    if cfg.variant == "exact":
        return _exact_packet(cfg, scn, exact_draws(scn.dims, rng_data,
                                                   rng_noise))
    return simulate_packet_adaptive(scn, cfg.scheme, cfg, rng_data, rng_noise,
                                    rng_init)


def _exact_packet(cfg: ExperimentConfig, scn: Scenario, draws: TrialDraws,
                  stack: list | None = None) -> PacketResult:
    """An exact packet on its trial's draws, designed through design_exact
    (in stack, which holds scn, when given). A packet whose design failed
    diverges before its first symbol, and records extras["divergence"] =
    ("design", None, reason)."""
    try:
        W, amps = design_exact(scn, cfg.scheme, cfg, stack)
    except TrialFailure as exc:  # diverged before its first symbol
        K, P = scn.dims.K, scn.dims.P
        divergence = ("design", None, f"{type(exc).__name__}: {exc}")
        return _packet_result(np.empty((K, 0)), np.zeros((K, P, 2)),
                              cfg.training_len, diverged=True,
                              extras={"divergence": divergence})
    return simulate_packet_exact(scn, W, amps, cfg, draws)


@dataclass
class BerCurve:
    """Aggregated experiment output: one row per grid point."""

    x_name: str
    rows: list  # (x_value, ber_mean, ber_stderr, bit_count)
    scheme: str
    variant: str
    divergences: int = 0  # over the whole curve
    # a sweep's diverged trials per row, in the order of rows; empty for a
    # learning curve, whose rows are the symbols of one point
    point_divergences: list = field(default_factory=list)

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


def _chunk_packets(cfg: ExperimentConfig, dims: SystemDims,
                   codes: np.ndarray, trials: range, levels: list):
    """The PacketResult of each trial of trials at each noise level of
    levels, trial by trial and, within a trial, in the order of levels.
    Each trial's scenario is drawn once, from its own trial_rngs stream,
    and serves all of its points: one Scenario per noise level, sharing the
    channel. On the exact path the chunk's scenarios are one stack,
    whatever their points, designed when the first packet asks for its
    design (design_exact); a trial whose design fails diverges alone
    (_exact_packet). The packets then run one trial at a time: an exact
    trial draws its bits and noise once (exact_draws), and each point's
    packet scales the same unit normals to its own noise level; the draws
    are freed after the trial's last packet. An adaptive packet draws its
    own from fresh streams, so that no packet continues a generator that
    another packet consumed."""
    drawn = []
    for t in trials:
        rngs = trial_rngs(cfg.seed, t)
        scn = draw_scenario(dims, codes, levels[0], cfg.shadowing_std_db,
                            rngs[0], isi_enabled=cfg.isi)
        drawn.append((t, rngs, [scn] + [replace(scn, sigma2=sigma2)
                                        for sigma2 in levels[1:]]))
    stack = [scn for *_, scns in drawn for scn in scns]
    for t, rngs, scns in drawn:
        if cfg.variant != "exact":
            for scn in scns:
                yield run_packet(cfg, scn, *trial_rngs(cfg.seed, t)[1:])
            continue
        draws = exact_draws(dims, rngs[1], rngs[2])
        for scn in scns:
            yield _exact_packet(cfg, scn, draws, stack)
        del draws


def _run_points(cfg: ExperimentConfig, snrs) -> list:
    """Every trial of cfg at each SNR of snrs: per point, the BERs of the
    packets that kept going, in trial order, the number that diverged, and
    the kept packets' summed per-symbol errors. The trials run in chunks of
    max(1, _DESIGN_CHUNK // len(snrs)) whole trials (_chunk_packets), every
    point of trial t before trial t + 1. One chunk's scenarios and designs
    and one trial's draws are held at a time; each result is counted as it
    comes. Each trial draws from its own streams and is designed at each
    point's own noise level, so its packets have the bits they get in any
    chunk and when run alone (run_packet). A chunk's scenarios keep their
    own designs (Scenario.designs) and are freed with the chunk."""
    dims = cfg.dims()
    codes = codes_for(cfg, dims.K)
    sigma2 = [snr_db_to_sigma2(snr) for snr in snrs]
    bers = [[] for _ in snrs]
    divergences = [0] * len(snrs)
    per_symbol = np.zeros((len(snrs), dims.P), dtype=np.int64)
    trials, size = range(cfg.trials), max(1, _DESIGN_CHUNK // len(snrs))
    for start in trials[::size]:
        packets = _chunk_packets(cfg, dims, codes, trials[start:start + size],
                                 sigma2)
        for i, res in enumerate(packets):
            p = i % len(snrs)  # a chunk's packets run trial by trial
            if res.diverged:
                divergences[p] += 1
                continue
            bers[p].append(res.bit_errors / res.payload_bits)
            per_symbol[p] += res.per_symbol_errors
    return list(zip(bers, divergences, per_symbol))


def _fixed_snr(cfg: ExperimentConfig) -> float:
    """The one SNR of a fixed-SNR run: several are refused, not cut to one."""
    if len(cfg.snr_grid) != 1:
        raise ConfigError("snr_grid: a fixed-SNR run takes one SNR, "
                          f"got {cfg.snr_grid!r}")
    return cfg.snr_grid[0]


def _sweep(cfg: ExperimentConfig, x_name: str, points) -> BerCurve:
    """One row (x, mean BER, its standard error, payload bits) per point,
    over the packets that did not diverge; with none left, nan over 0 bits.
    points holds each point's x, user count and _run_points result."""
    rows, divergences = [], []
    for x, users, (bers, div, _) in points:
        bers = np.asarray(bers)
        mean = float(bers.mean()) if bers.size else float("nan")
        stderr = float(bers.std(ddof=1) / np.sqrt(bers.size)) if bers.size > 1 else 0.0
        bits = 2 * (cfg.packet_len - cfg.training_len) * bers.size * users
        rows.append((x, mean, stderr, bits))
        divergences.append(div)
    return BerCurve(x_name=x_name, rows=rows, scheme=cfg.scheme,
                    variant=cfg.variant, divergences=sum(divergences),
                    point_divergences=divergences)


def run_experiment(cfg: ExperimentConfig) -> BerCurve:
    """BER versus SNR over the configured grid; deterministic given the seed."""
    results = _run_points(cfg, cfg.snr_grid)
    return _sweep(cfg, "snr_db", [(snr, cfg.users, res)
                                  for snr, res in zip(cfg.snr_grid, results)])


def run_user_sweep(cfg: ExperimentConfig, users_grid) -> BerCurve:
    """BER versus user count at the configured single SNR; each count is
    checked as cfg.users is, and an empty grid refused, before any packet.
    The user count sets the dimensions, so each count runs on its own."""
    configs = [replace(cfg, users=K) for K in users_grid]
    if not configs:
        raise ConfigError("users: the user grid holds no count")
    snr = _fixed_snr(cfg)
    return _sweep(cfg, "users", [(c.users, c.users, _run_points(c, [snr])[0])
                                 for c in configs])


def learning_curve(cfg: ExperimentConfig) -> BerCurve:
    """Per-symbol-index BER averaged over trials (convergence view), at the
    configured single SNR."""
    (bers, div, per_symbol), = _run_points(cfg, [_fixed_snr(cfg)])
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
