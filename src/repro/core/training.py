"""Distributed training model: DP x TP x PP with gradient synchronization.

Section 3 notes *"AI clusters come at different scales for training and
inference, with training clusters being orders-of-magnitude larger, e.g.,
16,000 vs 8 GPUs for Llama 3.1 405B"*, and worries that Lite-GPUs multiply
the device count.  This module extends the roofline to training so that
claim becomes checkable: at what scale does a Lite training cluster's extra
communication bite?

Model (synchronous mixed-precision training, Megatron/ZeRO conventions):

- **compute**: forward = the prefill pass; backward = 2x forward FLOPs;
- **memory traffic**: forward reads weights once, backward reads weights and
  writes gradients, the optimizer reads/writes its states;
- **memory capacity**: parameters + gradients + Adam states, in mixed
  precision 16 bytes/param over the TP x PP shard, with the optimizer
  portion further sharded ``zero_stage >= 1`` ways across data parallelism;
- **communication**: per-layer TP all-reduces (forward and backward), the
  pipeline bubble, and the data-parallel gradient all-reduce (overlappable
  with the backward pass: charged as ``max(backward, grad_allreduce)``).

Throughput is reported as tokens/s and tokens/s/SM, plus MFU — so H100 and
Lite training clusters can be compared at equal silicon exactly like the
inference study.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InfeasibleError, SpecError
from ..hardware.gpu import GPUSpec
from ..workloads.transformer import ModelSpec
from .inference import _pass_time
from .parallelism import TensorParallel
from .roofline import RooflinePolicy, tp_allreduce_time
from .stages import prefill_stage_costs


@dataclass(frozen=True)
class TrainingConfig:
    """A training parallelization layout and batch recipe."""

    data_parallel: int
    tensor: int
    stages: int = 1
    micro_batch: int = 1
    seq_len: int = 4096
    global_batch: int = 0  # sequences per step; 0 -> one microbatch per DP rank
    zero_stage: int = 1

    def __post_init__(self) -> None:
        if min(self.data_parallel, self.tensor, self.stages, self.micro_batch) <= 0:
            raise SpecError("parallel degrees and micro_batch must be positive")
        if self.seq_len <= 0:
            raise SpecError("seq_len must be positive")
        if self.zero_stage not in (0, 1, 2, 3):
            raise SpecError("zero_stage must be 0..3")
        if self.global_batch == 0:
            object.__setattr__(
                self, "global_batch", self.data_parallel * self.micro_batch
            )
        if self.global_batch % (self.data_parallel * self.micro_batch) != 0:
            raise SpecError("global_batch must divide into DP x micro_batch chunks")

    @property
    def n_gpus(self) -> int:
        """Total devices in the job."""
        return self.data_parallel * self.tensor * self.stages

    @property
    def microbatches_per_rank(self) -> int:
        """Gradient-accumulation steps per data-parallel rank."""
        return self.global_batch // (self.data_parallel * self.micro_batch)

    @property
    def tokens_per_step(self) -> int:
        """Tokens consumed by one optimizer step."""
        return self.global_batch * self.seq_len


@dataclass(frozen=True)
class TrainingResult:
    """One training-step evaluation."""

    model: str
    gpu: str
    config: TrainingConfig
    step_time: float
    tokens_per_s: float
    mfu: float
    fits_memory: bool
    mem_per_gpu: float
    comm_fraction: float

    @property
    def tokens_per_s_per_sm(self) -> float:
        """Efficiency at equal silicon (the paper's normalization)."""
        return self.tokens_per_s / (self.config.n_gpus * _SMS_CACHE[self.gpu])

    def describe(self) -> str:
        """One-line summary."""
        c = self.config
        return (
            f"{self.model} on {c.n_gpus}x {self.gpu} "
            f"(dp{c.data_parallel} x tp{c.tensor} x pp{c.stages}): "
            f"{self.tokens_per_s:,.0f} tok/s, MFU {self.mfu:.2f}, "
            f"step {self.step_time:.2f}s, comm {self.comm_fraction:.0%}"
        )


_SMS_CACHE: dict = {}

#: Mixed-precision training bytes per parameter: BF16 weights + BF16 grads
#: + FP32 master weights + FP32 Adam m and v.
_BYTES_PER_PARAM_FULL = 2 + 2 + 4 + 4 + 4
_BYTES_OPTIMIZER = 4 + 4 + 4  # the ZeRO-shardable portion


def train_step(
    model: ModelSpec,
    gpu: GPUSpec,
    config: TrainingConfig,
    policy: RooflinePolicy | None = None,
) -> TrainingResult:
    """Evaluate one synchronous training step.

    >>> from repro.workloads import LLAMA3_8B
    >>> from repro.hardware import H100
    >>> cfg = TrainingConfig(data_parallel=8, tensor=4, micro_batch=1)
    >>> r = train_step(LLAMA3_8B, H100, cfg)
    >>> r.fits_memory and 0.0 < r.mfu < 1.0
    True
    """
    policy = policy or RooflinePolicy(weight_bytes=2.0, kv_bytes=2.0)  # BF16
    _SMS_CACHE[gpu.name] = gpu.sms
    tp = TensorParallel(model, config.tensor, policy.kv_placement)

    # --- per-microbatch forward over this rank's layer shard ---------------
    costs = prefill_stage_costs(tp, config.micro_batch, config.seq_len, policy)
    full_fwd, _ = _pass_time(costs, gpu, config.tensor, policy)
    fwd = full_fwd / config.stages
    bwd = 2.0 * fwd  # backward: ~2x FLOPs and traffic, same boundedness

    # --- pipeline schedule ----------------------------------------------------
    m = config.microbatches_per_rank
    slots = m + config.stages - 1
    compute_time = slots * (fwd + bwd)

    # --- data-parallel gradient all-reduce --------------------------------------
    grad_bytes = (
        model.param_count / (config.tensor * config.stages) * 2.0
    )  # BF16 grads on this rank
    if config.data_parallel > 1:
        grad_sync = tp_allreduce_time(
            grad_bytes * config.data_parallel,  # logical tensor across DP
            config.data_parallel,
            gpu,
            policy,
        )
    else:
        grad_sync = 0.0
    # Gradient sync overlaps with the tail of backward.
    step_time = max(compute_time, grad_sync + 0.5 * compute_time)
    step_time += 0.02 * step_time  # optimizer step + dataloader overhead

    # --- memory -------------------------------------------------------------------
    shard_params = model.param_count / (config.tensor * config.stages)
    optimizer_shard = config.data_parallel if config.zero_stage >= 1 else 1
    mem = shard_params * (
        (_BYTES_PER_PARAM_FULL - _BYTES_OPTIMIZER) + _BYTES_OPTIMIZER / optimizer_shard
    )
    # Activation memory: checkpointed — one layer of activations per
    # microbatch in flight.
    act = (
        config.micro_batch
        * config.seq_len
        * model.hidden
        * 2.0
        * min(m, config.stages)
        * (model.layers / config.stages)
        * 0.1  # checkpointing keeps ~10% of full activations
    )
    mem += act
    fits = mem <= gpu.mem_capacity * 0.95

    # --- metrics -------------------------------------------------------------------
    tokens = config.tokens_per_step
    tokens_per_s = tokens / step_time
    model_flops = 6.0 * model.param_count * tokens  # fwd + bwd, dense
    cluster_flops = config.n_gpus * gpu.peak_flops
    mfu = model_flops / (step_time * cluster_flops)
    comm_fraction = max(0.0, 1.0 - compute_time / step_time)
    return TrainingResult(
        model=model.name,
        gpu=gpu.name,
        config=config,
        step_time=step_time,
        tokens_per_s=tokens_per_s,
        mfu=mfu,
        fits_memory=fits,
        mem_per_gpu=mem,
        comm_fraction=comm_fraction,
    )


def equivalent_lite_training(
    model: ModelSpec,
    h100_config: TrainingConfig,
    lite_gpu: GPUSpec,
    policy: RooflinePolicy | None = None,
    split: int = 4,
) -> TrainingConfig:
    """The Lite layout replacing an H100 training job at equal silicon.

    Tensor parallelism absorbs the split (each H100 TP rank becomes a
    Lite-group of ``split``); DP and PP are unchanged, so the global batch
    and convergence behaviour are identical.
    """
    if split <= 0:
        raise SpecError("split must be positive")
    tensor = h100_config.tensor * split
    if model.heads % tensor != 0:
        raise InfeasibleError(
            f"lite TP degree {tensor} does not divide {model.heads} heads"
        )
    return TrainingConfig(
        data_parallel=h100_config.data_parallel,
        tensor=tensor,
        stages=h100_config.stages,
        micro_batch=h100_config.micro_batch,
        seq_len=h100_config.seq_len,
        global_batch=h100_config.global_batch,
        zero_stage=h100_config.zero_stage,
    )
