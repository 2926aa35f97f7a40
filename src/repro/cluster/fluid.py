"""Fluid/ODE fast path: millisecond analytic counterpart of the event engines.

The paper's lite-vs-big question is a *design-space search*: thousands of
(GPU grade, fleet size, parallelism, policy) points, each costing a full
discrete-event run.  This module replaces the event loop with a coupled
queue-mass / KV-token-mass fluid model in the style of Fluid-ODE LLM-serving
simulators: arrivals come from a binned trace profile, completion rates from
the memoized :class:`~repro.cluster.engine.AbstractServiceTimeProvider` via a
piecewise-linear batch-time fit through exact provider samples, and the
masses are integrated with a fixed-step RK2 (midpoint) scheme in pure
python/numpy.

A point costs one python loop of up to ~1000 fixed steps plus numpy report
assembly.  The loop stays lean: per step with arrivals it records six
scalars (arrival weight, base TTFT, blocked probability, residual-wait
scale, e2e base, TBT), and :func:`_ttft_atoms` expands the TTFT atoms (a
base atom plus four blocked-wait residuals per step) with numpy when the
report's latencies are read.

The output is the **same** :class:`~repro.cluster.simulator.SimReport` the
event engines produce (with ``backend="fluid"`` provenance): latency
quantiles come from the arrival-weighted waiting-time distribution along the
trajectory (plus an Erlang-C residual-wait correction for the discreteness
the fluid limit erases), counters / throughput / utilization / economics
from the integrated masses, and NaN — never 0.0 — where the fluid cannot
estimate.

What the fluid model deliberately does *not* capture:

- per-request discreteness (Poisson burst tails beyond the profile's bin
  width are smoothed, so extreme p99s are approximate);
- failures, resilience policies, and elastic controllers — composing those
  with ``backend="fluid"`` raises :class:`~repro.errors.SpecError` at
  simulator construction rather than silently mis-estimating.

Use it to *screen* large sweeps (see :mod:`repro.analysis.screening`) and
promote only the survivors to event-level truth.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..workloads.traces import Request
from .economics import EconomicsConfig, EconomicsReport, pool_economics
from .engine import AbstractServiceTimeProvider
from .policies import PolicyBundle
from .scheduler import ColocatedPool, InstanceSpec, PhasePools
from .simulator import SimConfig, SimReport, assemble_report

__all__ = [
    "TraceProfile",
    "BatchTimeFit",
    "fluid_phase_split_report",
    "fluid_colocated_report",
]

_EPS = 1e-12
#: Cap on latency atoms: time steps are compressed to ≤ this many groups and
#: output lengths to ≤ this many quantile atoms before the e2e outer product,
#: so percentile extraction stays O(atoms² log atoms) regardless of horizon.
_MAX_TIME_ATOMS = 192
_MAX_LENGTH_ATOMS = 256
#: Residual-wait quartile midpoints.  Phase-split prefill passes are
#: deterministic, so a blocked arrival waits a *uniform* residual of one
#: pass; colocated prompt service is effectively exponential (M/M/c), so
#: the blocked wait uses exponential quantiles ``-ln(1-u)``.
_UNIFORM_ATOMS = (0.2, 0.4, 0.6, 0.8)
_EXP_ATOMS = (0.13353, 0.47000, 0.98083, 2.07944)
_ARRIVAL = attrgetter("arrival")
_PROMPT = attrgetter("prompt_tokens")
_OUTPUT = attrgetter("output_tokens")


# --------------------------------------------------------------------------
# trace profile
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceProfile:
    """Binned arrival-rate profile plus length statistics of one trace.

    The fluid model only sees the trace through this: a piecewise-constant
    arrival rate ``rate_at(t)`` (requests/s per bin), mean prompt/output
    lengths for the mass dynamics, and ≤ :data:`_MAX_LENGTH_ATOMS`
    equal-weight output-length quantile atoms for the e2e distribution.
    """

    n_requests: int
    t_end: float
    bin_s: float
    rates: np.ndarray
    prompt_mean: float
    output_mean: float
    total_output_tokens: float
    output_atoms: np.ndarray

    @staticmethod
    def from_trace(trace: Sequence[Request], bin_s: Optional[float] = None) -> "TraceProfile":
        """Profile an arrival-ordered request list.

        ``bin_s`` defaults to ``max(1, t_end / 64)`` — fine enough that
        diurnal ramps and bursts survive, coarse enough that single-arrival
        Poisson noise does not masquerade as load swings.
        """
        if not trace:
            return TraceProfile(
                n_requests=0, t_end=0.0, bin_s=1.0, rates=np.zeros(1),
                prompt_mean=1.0, output_mean=1.0, total_output_tokens=0.0,
                output_atoms=np.ones(1),
            )
        n = len(trace)
        arrivals = np.fromiter(map(_ARRIVAL, trace), dtype=float, count=n)
        prompts = np.fromiter(map(_PROMPT, trace), dtype=float, count=n)
        outputs = np.maximum(np.fromiter(map(_OUTPUT, trace), dtype=float, count=n), 1.0)
        t_end = float(arrivals.max()) + _EPS
        if bin_s is None:
            bin_s = max(1.0, t_end / 64.0)
        n_bins = max(1, int(math.ceil(t_end / bin_s)))
        counts = np.bincount(
            np.minimum((arrivals / bin_s).astype(int), n_bins - 1), minlength=n_bins
        )
        n_atoms = min(_MAX_LENGTH_ATOMS, len(outputs))
        qs = (np.arange(n_atoms) + 0.5) / n_atoms * 100.0
        return TraceProfile(
            n_requests=n,
            t_end=t_end,
            bin_s=float(bin_s),
            rates=counts / bin_s,
            prompt_mean=float(prompts.mean()),
            output_mean=float(outputs.mean()),
            total_output_tokens=float(outputs.sum()),
            output_atoms=np.percentile(outputs, qs),
        )

    @property
    def total_mean(self) -> float:
        """Mean final KV footprint (prompt + full output) per request."""
        return self.prompt_mean + self.output_mean

    @property
    def span(self) -> float:
        """End of the last arrival bin — rate integrals conserve mass to here."""
        return len(self.rates) * self.bin_s

    def rate_at(self, t: float) -> float:
        """Piecewise-constant arrival rate (requests/s) at clock ``t``."""
        if t < 0.0:
            return 0.0
        idx = int(t / self.bin_s)
        if idx >= len(self.rates):
            return 0.0
        return float(self.rates[idx])


# --------------------------------------------------------------------------
# batch-time fits
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchTimeFit:
    """Batch-time fit sampled from a service-time provider.

    Where the Fluid-ODE closure fits one global affine ``d0 + d1·tokens``,
    ``time_at`` evaluates a *segmented* fit — linear interpolation between
    the exact provider samples — so the completion rate stays accurate even
    where the roofline curve bends (memory-bound plateau into compute-bound
    slope).
    """

    tokens: np.ndarray
    times: np.ndarray

    @staticmethod
    def from_samples(tokens: Sequence[float], times: Sequence[float]) -> "BatchTimeFit":
        return BatchTimeFit(
            tokens=np.asarray(tokens, dtype=float), times=np.asarray(times, dtype=float)
        )

    def time_at(self, tokens: float) -> float:
        """Segmented batch time at a (fractional) token count."""
        return float(np.interp(tokens, self.tokens, self.times))


@lru_cache(maxsize=256)
def _batch_grid(max_batch: int, samples: int = 12) -> Tuple[int, ...]:
    """Unique integer batches, geometrically spaced over [1, max_batch]."""
    grid = np.unique(
        np.rint(np.geomspace(1, max(1, max_batch), num=samples)).astype(int)
    )
    return tuple(int(b) for b in grid)


def _averaged(provider: AbstractServiceTimeProvider, n_instances: int, query) -> float:
    """Average a provider query over instances (fabric overheads differ)."""
    span = min(max(1, n_instances), 4)
    return sum(query(i) for i in range(span)) / span


def fit_decode(
    provider: AbstractServiceTimeProvider,
    max_batch: int,
    context: int,
    n_instances: int,
) -> BatchTimeFit:
    """Decode-iteration time vs batch (= tokens generated per iteration)."""
    batches = _batch_grid(max_batch)
    times = [
        _averaged(provider, n_instances, lambda i: provider.decode_time(b, context, instance=i))
        for b in batches
    ]
    return BatchTimeFit.from_samples([float(b) for b in batches], times)


def fit_prefill(
    provider: AbstractServiceTimeProvider,
    max_batch: int,
    prompt_len: int,
    n_instances: int,
) -> BatchTimeFit:
    """Prefill-pass time vs total prompt tokens in the batch."""
    batches = _batch_grid(max_batch, samples=8)
    times = [
        _averaged(
            provider, n_instances, lambda i: provider.prefill_time(b, prompt_len, instance=i)
        )
        for b in batches
    ]
    return BatchTimeFit.from_samples([float(b * prompt_len) for b in batches], times)


def fit_mixed(
    provider: AbstractServiceTimeProvider,
    max_batch: int,
    context: int,
    chunk: int,
    prompt_len: int,
    n_instances: int,
) -> BatchTimeFit:
    """SARATHI mixed-iteration time vs decode batch (the chunk's cost included)."""
    batches = _batch_grid(max_batch)
    times = [
        _averaged(
            provider,
            n_instances,
            lambda i: provider.mixed_time(b, context, chunk, prompt_len, instance=i),
        )
        for b in batches
    ]
    return BatchTimeFit.from_samples([float(b) for b in batches], times)


def _smoothed_rates(rates: Sequence[float], window: int = 5) -> List[float]:
    """Centered moving average of the bin rates (edge-padded).

    The *dynamics* integrate the exact bin rates so arrival mass conserves;
    the *queueing corrections* (Erlang-C blocked probability, wait scale)
    use this smoothed profile instead, so single-bin Poisson noise does not
    masquerade as a saturating burst while real multi-bin ramps survive.
    """
    if len(rates) <= 2:
        return [float(r) for r in rates]
    arr = np.asarray(rates, dtype=float)
    half = window // 2
    padded = np.pad(arr, (half, half), mode="edge")
    kernel = np.full(window, 1.0 / window)
    return [float(r) for r in np.convolve(padded, kernel, mode="valid")]


def _erlang_c(n: int, offered: float) -> float:
    """M/M/n probability of waiting at ``offered`` erlangs (1.0 if saturated).

    Used as the blocked-arrival probability for the residual-wait
    correction: the fluid limit has no mid-pass arrivals, the event engine
    does, and the difference is exactly the classic Erlang-C wait mass.
    """
    if offered <= 0.0:
        return 0.0
    if offered >= n:
        return 1.0
    b = 1.0
    for k in range(1, n + 1):
        b = offered * b / (k + offered * b)
    rho = offered / n
    return b / (1.0 - rho + rho * b)


# --------------------------------------------------------------------------
# weighted-percentile machinery
# --------------------------------------------------------------------------


def _weighted_percentile(
    values: np.ndarray, weights: np.ndarray, qs: Sequence[float]
) -> np.ndarray:
    """Weighted percentiles (qs in [0, 100]) with midpoint interpolation."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    cum = np.cumsum(w)
    total = cum[-1]
    positions = (cum - 0.5 * w) / total
    return np.interp(np.asarray(qs, dtype=float) / 100.0, positions, v)


def _compress_steps(
    weights: np.ndarray, columns: Sequence[np.ndarray], max_atoms: int = _MAX_TIME_ATOMS
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Collapse consecutive time steps into ≤ ``max_atoms`` weighted groups."""
    n = len(weights)
    if n <= max_atoms:
        return weights, list(columns)
    k = int(math.ceil(n / max_atoms))
    groups = int(math.ceil(n / k))
    pad = groups * k - n
    w = np.pad(weights, (0, pad)).reshape(groups, k)
    gw = w.sum(axis=1)
    safe = np.maximum(gw, _EPS)
    out = []
    for col in columns:
        c = np.pad(col, (0, pad)).reshape(groups, k)
        out.append((c * w).sum(axis=1) / safe)
    keep = gw > _EPS
    return gw[keep], [c[keep] for c in out]


# --------------------------------------------------------------------------
# trajectory accumulator + report assembly
# --------------------------------------------------------------------------


@dataclass
class _Trajectory:
    """Everything the integrators accumulate for report assembly."""

    completed_mass: float = 0.0
    emitted_tokens: float = 0.0
    duration: float = 0.0
    busy_prefill: float = 0.0  # instance-seconds (phase-split only)
    busy_decode: float = 0.0
    # Residual-wait quantiles of a blocked arrival, in units of its scale.
    residual_atoms: Tuple[float, ...] = _UNIFORM_ATOMS
    # Per arrival step: its weight, the TTFT atom inputs (see _ttft_atoms)
    # and the e2e outer product's per-step atoms.
    arrive_w: List[float] = field(default_factory=list)
    ttft_base: List[float] = field(default_factory=list)
    blocked: List[float] = field(default_factory=list)  # Erlang-C blocked probability
    wait_scale: List[float] = field(default_factory=list)
    e2e_base: List[float] = field(default_factory=list)  # mean ttft + decode wait
    tbt_at_arrival: List[float] = field(default_factory=list)
    # Completion-weighted TBT atoms.
    complete_w: List[float] = field(default_factory=list)
    tbt_at_completion: List[float] = field(default_factory=list)


@dataclass(frozen=True)
class _FluidInstanceState:
    """Synthetic engine-state ledger row for :func:`pool_economics`.

    Fluid pools are static and run at base clock, so ``energy_busy`` equals
    ``busy_time`` (power ratio 1.0) and the lifecycle spans the whole run.
    """

    busy_time: float
    energy_busy: float
    spawned_at: float = 0.0
    retired_at: float = math.inf


def _ledger_states(busy_instance_seconds: float, n: int) -> List[_FluidInstanceState]:
    per = busy_instance_seconds / max(1, n)
    return [_FluidInstanceState(busy_time=per, energy_busy=per) for _ in range(n)]


def _ttft_atoms(
    w: np.ndarray,
    base: np.ndarray,
    blocked: np.ndarray,
    scale: np.ndarray,
    residuals: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """TTFT atoms ``(values, weights)`` of the arrival steps, in step order.

    Each step contributes its base atom, weighted ``w·(1 - blocked)``, and,
    only where ``blocked > 1e-6``, one atom ``base + u·scale`` per residual
    quantile ``u``, each weighted ``w·blocked·0.25`` (the four quantiles
    share the blocked mass).  The float operations and the atom order are
    those of a per-step expansion, so the weighted percentiles over these
    atoms are bit-identical to it.
    """
    values = np.empty((len(w), 1 + len(residuals)))
    values[:, 0] = base
    values[:, 1:] = base[:, None] + np.asarray(residuals)[None, :] * scale[:, None]
    weights = np.empty_like(values)
    weights[:, 0] = w * (1.0 - blocked)
    weights[:, 1:] = (w * blocked * 0.25)[:, None]
    keep = np.ones(values.shape, dtype=bool)
    keep[:, 1:] = (blocked > 1e-6)[:, None]
    # Row-major boolean indexing keeps the step order, base atom first.
    return values[keep], weights[keep]


def _fluid_latencies(profile: TraceProfile, traj: _Trajectory) -> Tuple[float, ...]:
    """Report latencies of a trajectory that completed at least one request."""
    aw = np.array(traj.arrive_w)
    ttft_vals, ttft_w = _ttft_atoms(
        aw,
        np.array(traj.ttft_base),
        np.array(traj.blocked),
        np.array(traj.wait_scale),
        traj.residual_atoms,
    )
    ttft_p50, ttft_p99 = _weighted_percentile(ttft_vals, ttft_w, (50.0, 99.0))
    cw = np.array(traj.complete_w)
    tbt_c = np.array(traj.tbt_at_completion)
    tbt_mean = float(np.average(tbt_c, weights=cw))
    (tbt_p99,) = _weighted_percentile(tbt_c, cw, (99.0,))
    # e2e: arrival-time atoms × empirical output-length atoms.
    gw, (gbase, gtbt) = _compress_steps(
        aw, (np.array(traj.e2e_base), np.array(traj.tbt_at_arrival))
    )
    atoms = profile.output_atoms
    e2e = (gbase[:, None] + atoms[None, :] * gtbt[:, None]).ravel()
    e2e_w = np.repeat(gw / len(atoms), len(atoms))
    e2e_p50, e2e_p99 = _weighted_percentile(e2e, e2e_w, (50.0, 99.0))
    return ttft_p50, ttft_p99, tbt_mean, tbt_p99, e2e_p50, e2e_p99


def _fluid_report(
    profile: TraceProfile,
    traj: _Trajectory,
    pools: Sequence[Tuple[str, InstanceSpec, int, float]],
    economics: EconomicsConfig,
) -> Tuple[SimReport, EconomicsReport]:
    """Report and economics of an integrated trajectory.

    ``pools`` lists ``(name, instance, n_instances, busy instance-seconds)``
    with the decoding pool last, as on the simulators' pool table.
    """
    completed = max(0, int(round(min(traj.completed_mass, float(profile.n_requests)))))
    duration = max(traj.duration, _EPS)
    econ = EconomicsReport(
        pools=tuple(
            pool_economics(name, spec, _ledger_states(busy, n), duration, economics)
            for name, spec, n, busy in pools
        ),
        duration=duration,
        output_tokens=int(round(traj.emitted_tokens)),
    )
    (_, _, n_first, busy_first), (_, _, n_last, busy_last) = pools[0], pools[-1]
    report = assemble_report(
        completed=completed,
        arrivals=profile.n_requests,
        duration=duration,
        latencies=partial(_fluid_latencies, profile, traj),
        output_tokens=traj.emitted_tokens,
        prefill_busy=busy_first / (n_first * duration),
        decode_busy=busy_last / (n_last * duration),
        priced_tokens=econ.output_tokens,
        gpu_seconds=econ.gpu_seconds,
        energy_joules=econ.energy_joules,
        usd_cost=econ.usd_cost,
        requeued_on_failure=0,
        backend="fluid",
    )
    return report, econ


def _balanced_routing(bundle: PolicyBundle) -> bool:
    """Does routing spread work across instances instead of packing index 0?"""
    return bundle.routing.name != "index-order"


def _fluid_dt(profile: TraceProfile, horizon: float) -> float:
    """Fixed RK2 step: ≥ 20ms, ≤ 600ms, ~1000 steps over the trace span."""
    span = max(profile.span, 1.0)
    return min(0.6, max(0.02, min(span, horizon) / 1000.0))


# --------------------------------------------------------------------------
# phase-split (Splitwise-style) integrator
# --------------------------------------------------------------------------


def _integrate_phase_split(
    pools: PhasePools,
    profile: TraceProfile,
    pfit: BatchTimeFit,
    dfit: BatchTimeFit,
    horizon: float,
    balanced: bool,
    kv_capacity: float,
) -> _Trajectory:
    # The hot loop below is deliberately inlined and memoized: it runs
    # O(1000) python iterations per simulated trace, and every call, dict
    # hit or attribute store it saves is a direct chunk of the fluid
    # backend's speedup claim.  So it calls no helper on a memo hit, keeps
    # its accumulators in locals, and records four scalars per arrival step
    # from which _ttft_atoms builds the TTFT atoms with numpy afterwards.
    # Both integrators step in a ``for`` loop: CPython 3.11 specializes a
    # function once eight calls or unconditional backward jumps have counted
    # it warm.  A ``while cond:`` loop ends in a conditional jump, which does
    # not count, so with one an integrator runs unspecialized (~40% slower)
    # for its first eight calls.
    n_p, n_d = pools.n_prefill, pools.n_decode
    pm, out_mean = profile.prompt_mean, profile.output_mean
    max_pb = float(pools.max_prefill_batch)
    # Decode admits on the request's *final* KV footprint (prompt + output),
    # exactly like FCFSAdmission's token budget.
    cap = max(1.0, min(float(pools.max_decode_batch), kv_capacity / max(profile.total_mean, 1.0)))
    nd_max = n_d * cap
    dt = _fluid_dt(profile, horizon)
    half = 0.5 * dt
    traj = _Trajectory(residual_atoms=_UNIFORM_ATOMS)
    rates = [float(r) for r in profile.rates]
    srates = _smoothed_rates(rates)
    n_bins = len(rates)
    inv_bin = 1.0 / profile.bin_s
    span = profile.span
    inv_np = 1.0 / n_p
    per_instance = 1.0 if balanced else cap
    out_floor = out_mean - 1e-9
    mass_floor = 1e-9 * max(1.0, float(profile.n_requests))
    exp, ceil = math.exp, math.ceil
    # Quantized (1/16-request) memo tables over the segmented fits, plus an
    # Erlang-C memo keyed on (arrival bin, prefill batch quantum), packed
    # into one int: every quantum is below ``e_stride``.
    p_memo: dict = {}
    d_memo: dict = {}
    e_memo: dict = {}
    e_stride = int(max(max_pb, 1.0) * 16.0 + 0.5) + 1
    td_idle = dfit.time_at(1.0)

    aw_app = traj.arrive_w.append
    tb_app = traj.ttft_base.append
    bl_app = traj.blocked.append
    sc_app = traj.wait_scale.append
    eb_app = traj.e2e_base.append
    ta_app = traj.tbt_at_arrival.append
    cw_app = traj.complete_w.append
    tc_app = traj.tbt_at_completion.append

    qp = qd = nd = 0.0
    busy_p = busy_d = completed = duration = 0.0
    progress = 0.0  # cumulative decode token progress ∫ dt / T_d
    cohorts: deque = deque()  # [mass, progress at admission]
    pop_front = cohorts.popleft
    push = cohorts.append
    max_steps = int(horizon / dt) + 1
    t_next = 0.0
    for step in range(1, max_steps + 1):
        t = t_next
        t_next = step * dt  # drift-free clock
        idx = int(t * inv_bin)
        lam = rates[idx] if idx < n_bins else 0.0
        idx_mid = int((t + half) * inv_bin)
        lam_mid = rates[idx_mid] if idx_mid < n_bins else 0.0

        # --- prefill queue, RK2 midpoint ---------------------------------
        bp1 = qp * inv_np
        bp1 = 1.0 if bp1 < 1.0 else (max_pb if bp1 > max_pb else bp1)
        qb1 = int(bp1 * 16.0 + 0.5)
        tp1 = p_memo.get(qb1)
        if tp1 is None:
            tp1 = p_memo[qb1] = pfit.time_at(qb1 * 0.0625 * pm)
        cap1 = n_p * (qb1 * 0.0625) / tp1
        mu1 = qp / dt + lam
        if mu1 > cap1:
            mu1 = cap1
        qp_mid = qp + half * (lam - mu1)
        if qp_mid < 0.0:
            qp_mid = 0.0
        bp = qp_mid * inv_np
        bp = 1.0 if bp < 1.0 else (max_pb if bp > max_pb else bp)
        qb = int(bp * 16.0 + 0.5)
        bq = qb * 0.0625
        tp = p_memo.get(qb)
        if tp is None:
            tp = p_memo[qb] = pfit.time_at(qb * 0.0625 * pm)
        cap_rate = n_p * bq / tp
        mu_p = qp / dt + lam_mid
        if mu_p > cap_rate:
            mu_p = cap_rate
        qp = qp + dt * (lam_mid - mu_p)
        if qp < 0.0:
            qp = 0.0
        busy_p += mu_p * tp / bq * dt

        # --- decode transport --------------------------------------------
        # Every resident request gains one token per iteration; a cohort
        # completes when its token progress spans the mean output length
        # (characteristic transport, not an exponential drain — this keeps
        # the tail drain time event-accurate).
        if nd > _EPS:
            n_act = ceil(nd / per_instance - 1e-9)
            if n_act < 1:
                n_act = 1
            elif n_act > n_d:
                n_act = n_d
            bd = nd / n_act
            if bd > cap:
                bd = cap
            qdk = int(bd * 16.0 + 0.5)
            if qdk < 16:
                qdk = 16
            td = d_memo.get(qdk)
            if td is None:
                td = d_memo[qdk] = dfit.time_at(qdk * 0.0625)
            progress += dt / td
            # A partially-filled instance idles between arrivals: its busy
            # fraction is the discrete-occupancy 1 - e^(-batch).
            busy_d += n_act * (1.0 - exp(-bd)) * dt
        else:
            td = td_idle
        done = 0.0
        while cohorts and progress - cohorts[0][1] >= out_floor:
            done += pop_front()[0]
        if done > 0.0:
            nd -= done
            completed += done
            duration = t_next
        # KV-bounded admission from the handoff queue plus fresh prefills.
        mu_adm = mu_p + qd / dt
        free_rate = (nd_max - nd) / dt
        if free_rate < 0.0:
            free_rate = 0.0
        if mu_adm > free_rate:
            mu_adm = free_rate
        admitted = mu_adm * dt
        if admitted > _EPS:
            push([admitted, progress])
            nd += admitted
        qd = qd + dt * (mu_p - mu_adm)
        if qd < 0.0:
            qd = 0.0

        # --- latency samples ---------------------------------------------
        # Arrival mass implies idx_mid < n_bins, so srates[idx_mid] exists.
        w = lam_mid * dt
        if w > 0.0:
            base = qp / cap_rate + tp
            wait_d = qd * out_mean * td / nd if (qd > 1e-9 and nd > _EPS) else 0.0
            ekey = idx_mid * e_stride + qb
            blocked = e_memo.get(ekey)
            if blocked is None:
                blocked = e_memo[ekey] = _erlang_c(n_p, srates[idx_mid] * tp / bq)
            aw_app(w)
            tb_app(base)
            bl_app(blocked)
            sc_app(tp)  # a blocked arrival waits a uniform residual of one pass
            eb_app(base + 0.5 * blocked * tp + wait_d)
            ta_app(td)
        if done > 0.0:
            cw_app(done)
            tc_app(td)
        if t_next >= span and qp + qd + nd <= mass_floor:
            break
    traj.busy_prefill, traj.busy_decode = busy_p, busy_d
    traj.completed_mass = completed
    traj.duration = duration if duration != 0.0 else t_next
    traj.emitted_tokens = completed * out_mean + sum(
        mass * min(out_mean, progress - admitted_at) for mass, admitted_at in cohorts
    )
    return traj


# --------------------------------------------------------------------------
# colocated (SARATHI-style) integrator
# --------------------------------------------------------------------------


def _integrate_colocated(
    pool: ColocatedPool,
    profile: TraceProfile,
    mfit: BatchTimeFit,
    dfit: BatchTimeFit,
    horizon: float,
    balanced: bool,
    kv_capacity: float,
) -> _Trajectory:
    n = pool.n_instances
    pm, out_mean = profile.prompt_mean, profile.output_mean
    chunk = float(pool.chunk_tokens)
    cap = max(1.0, min(float(pool.max_decode_batch), kv_capacity / max(profile.total_mean, 1.0)))
    cap_total = n * cap
    dt = _fluid_dt(profile, horizon)
    half = 0.5 * dt
    traj = _Trajectory(residual_atoms=_EXP_ATOMS)
    rates = [float(r) for r in profile.rates]
    srates = _smoothed_rates(rates)
    n_bins = len(rates)
    inv_bin = 1.0 / profile.bin_s
    span = profile.span
    inv_pm = 1.0 / pm
    per_instance = 1.0 if balanced else cap
    passes_per_prompt = math.ceil(pm / chunk)
    out_floor = out_mean - 1e-9
    mass_floor = 1e-9 * max(1.0, float(profile.n_requests))
    exp, ceil = math.exp, math.ceil
    m_memo: dict = {}
    d_memo: dict = {}
    e_memo: dict = {}
    td_idle = dfit.time_at(1.0)

    aw_app = traj.arrive_w.append
    tb_app = traj.ttft_base.append
    bl_app = traj.blocked.append
    sc_app = traj.wait_scale.append
    eb_app = traj.e2e_base.append
    ta_app = traj.tbt_at_arrival.append
    cw_app = traj.complete_w.append
    tc_app = traj.tbt_at_completion.append

    qa = 0.0  # admission queue (not yet resident)
    prefill_tokens = 0.0  # outstanding prompt tokens among residents
    nd = 0.0  # decode-resident mass
    busy = completed = duration = 0.0
    progress = 0.0
    cohorts: deque = deque()
    pop_front = cohorts.popleft
    push = cohorts.append
    max_steps = int(horizon / dt) + 1
    t_next = 0.0
    for step in range(1, max_steps + 1):
        t = t_next
        t_next = step * dt
        idx_mid = int((t + half) * inv_bin)
        lam_mid = rates[idx_mid] if idx_mid < n_bins else 0.0

        resident = nd + prefill_tokens * inv_pm
        if resident > _EPS:
            n_act = ceil(resident / per_instance - 1e-9)
            if n_act < 1:
                n_act = 1
            elif n_act > n:
                n_act = n
            bd = nd / n_act
            if bd > cap:
                bd = cap
            qdk = int(bd * 16.0 + 0.5)
            if qdk < 16:
                qdk = 16
            t_mix = m_memo.get(qdk)
            if t_mix is None:
                t_mix = mfit.time_at(qdk * 0.0625)
                m_memo[qdk] = t_mix
            t_dec = d_memo.get(qdk)
            if t_dec is None:
                t_dec = dfit.time_at(qdk * 0.0625)
                d_memo[qdk] = t_dec
            # Only the fraction of iterations that actually carry a chunk
            # pays the mixed-pass premium; the rest run decode-only.
            if prefill_tokens > _EPS:
                chunk_frac = (prefill_tokens / dt) / (n_act * chunk / t_mix)
                if chunk_frac > 1.0:
                    chunk_frac = 1.0
            else:
                chunk_frac = 0.0
            t_iter = chunk_frac * t_mix + (1.0 - chunk_frac) * t_dec
            busy += n_act * (1.0 - exp(-resident / n_act)) * dt
        else:
            n_act = 0
            chunk_frac = 0.0
            t_mix = t_iter = td_idle
        # Decode token progress (mixed iterations still emit one token per
        # resident sequence).
        if nd > _EPS:
            progress += dt / t_iter
        done = 0.0
        while cohorts and progress - cohorts[0][1] >= out_floor:
            done += pop_front()[0]
        if done > 0.0:
            nd -= done
            completed += done
            duration = t_next
        # Chunked prefill: chunk-carrying iterations retire chunk tokens
        # each; finished prompts join the decode batch.
        if prefill_tokens > _EPS and n_act > 0:
            drained = chunk_frac * n_act * chunk / t_iter * dt
            if drained > prefill_tokens:
                drained = prefill_tokens
            prefill_tokens -= drained
            moved = drained * inv_pm
            if moved > _EPS:
                push([moved, progress])
                nd += moved
        # KV-bounded admission into residency.
        resident = nd + prefill_tokens * inv_pm
        free_rate = (cap_total - resident) / dt
        if free_rate < 0.0:
            free_rate = 0.0
        mu_adm = lam_mid + qa / dt
        if mu_adm > free_rate:
            mu_adm = free_rate
        admitted = mu_adm * dt
        qa = qa + dt * (lam_mid - mu_adm)
        if qa < 0.0:
            qa = 0.0
        prefill_tokens += admitted * pm

        w = lam_mid * dt
        if w > 0.0:
            wait = qa * out_mean * t_iter / nd if (qa > 1e-9 and nd > _EPS) else 0.0
            # A prompt prefills chunk-by-chunk: ceil(pm/chunk) mixed passes
            # to first token, plus the iteration-boundary residual.
            service = passes_per_prompt * t_mix
            base = wait + service + 0.5 * t_iter
            # Prompt service behind other prompts queues M/D/c-style:
            # blocked probability from Erlang-C, wait depth exponential at
            # *half* the M/M/c scale (chunk passes are deterministic).
            servers = n_act if n_act > 0 else 1
            ekey = (idx_mid, servers, int(service * 1e4))
            cached = e_memo.get(ekey)
            if cached is None:
                slam = srates[idx_mid]  # arrival mass implies idx_mid < n_bins
                blocked = _erlang_c(servers, slam * service)
                gap = servers / service - slam
                scale = 0.5 / gap if gap > 1e-9 else 12.5 * service
                cached = (blocked, scale)
                e_memo[ekey] = cached
            blocked, scale = cached
            aw_app(w)
            tb_app(base)
            bl_app(blocked)
            sc_app(scale)
            eb_app(base + blocked * scale)
            ta_app(t_iter)
        if done > 0.0:
            cw_app(done)
            tc_app(t_iter)
        if t_next >= span and qa + prefill_tokens + nd <= mass_floor:
            break
    traj.busy_decode = busy
    traj.completed_mass = completed
    traj.duration = duration if duration != 0.0 else t_next
    traj.emitted_tokens = completed * out_mean + sum(
        mass * min(out_mean, progress - admitted_at) for mass, admitted_at in cohorts
    )
    return traj


# --------------------------------------------------------------------------
# public entry points (called by the simulators' backend dispatch)
# --------------------------------------------------------------------------


def fluid_phase_split_report(
    pools: PhasePools,
    config: SimConfig,
    trace: "Sequence[Request] | Iterable[Request]",
    prefill_provider: AbstractServiceTimeProvider,
    decode_provider: AbstractServiceTimeProvider,
    bundle: PolicyBundle,
    economics: EconomicsConfig,
) -> Tuple[SimReport, EconomicsReport]:
    """Fluid counterpart of :meth:`ServingSimulator.run`."""
    trace = list(trace)
    profile = TraceProfile.from_trace(trace)
    kv_capacity = float(pools.decode.kv_token_capacity())
    if profile.n_requests == 0:
        traj = _Trajectory()
    else:
        context = int(round(profile.prompt_mean + profile.output_mean / 2.0))
        pfit = fit_prefill(
            prefill_provider, pools.max_prefill_batch,
            max(1, int(round(profile.prompt_mean))), pools.n_prefill,
        )
        dfit = fit_decode(decode_provider, pools.max_decode_batch, context, pools.n_decode)
        traj = _integrate_phase_split(
            pools, profile, pfit, dfit, config.max_sim_time,
            _balanced_routing(bundle), kv_capacity,
        )
    return _fluid_report(
        profile, traj,
        (
            ("prefill", pools.prefill, pools.n_prefill, traj.busy_prefill),
            ("decode", pools.decode, pools.n_decode, traj.busy_decode),
        ),
        economics,
    )


def fluid_colocated_report(
    pool: ColocatedPool,
    config: SimConfig,
    trace: "Sequence[Request] | Iterable[Request]",
    provider: AbstractServiceTimeProvider,
    bundle: PolicyBundle,
    economics: EconomicsConfig,
) -> Tuple[SimReport, EconomicsReport]:
    """Fluid counterpart of :meth:`ColocatedSimulator.run`."""
    trace = list(trace)
    profile = TraceProfile.from_trace(trace)
    kv_capacity = float(pool.instance.kv_token_capacity())
    if profile.n_requests == 0:
        traj = _Trajectory()
    else:
        context = int(round(profile.prompt_mean + profile.output_mean / 2.0))
        prompt = max(1, int(round(profile.prompt_mean)))
        mfit = fit_mixed(
            provider, pool.max_decode_batch, context, pool.chunk_tokens,
            prompt, pool.n_instances,
        )
        dfit = fit_decode(provider, pool.max_decode_batch, context, pool.n_instances)
        traj = _integrate_colocated(
            pool, profile, mfit, dfit, config.max_sim_time,
            _balanced_routing(bundle), kv_capacity,
        )
    return _fluid_report(
        profile, traj, (("colocated", pool.instance, pool.n_instances, traj.busy_decode),),
        economics,
    )
