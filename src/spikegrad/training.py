"""Loss heads, optimizers, gradient-check oracles, and the training loop."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import executor, ops
from .executor import ExecutionPlan
from .neurons import INIT_MODES
from .tensor import ContractError, ShapeError, Tensor, ValidationError, _int_at_least


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"  # 'sgd' | 'adam'
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    plan: ExecutionPlan = field(default_factory=ExecutionPlan)
    init_state_mode: str = "zeros"

    def __post_init__(self):
        if self.optimizer not in ("sgd", "adam"):
            raise ValidationError(f"unknown optimizer {self.optimizer!r}")
        # a NaN learning rate or a beta of 1 (Adam divides by 1 - beta**t)
        # would train NaN weights without an error
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValidationError(
                f"learning_rate must be finite and nonnegative, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            if not (0 <= getattr(self, name) < 1):
                raise ValidationError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValidationError(f"eps must be finite and positive, got {self.eps}")
        self.batch_size = _int_at_least("batch_size", self.batch_size, 1)
        self.epochs = _int_at_least("epochs", self.epochs, 1)
        # numpy's generators take no negative seed
        self.seed = _int_at_least("seed", self.seed, 0)
        if not isinstance(self.plan, ExecutionPlan):
            raise ValidationError(f"plan must be an ExecutionPlan, got {self.plan!r}")
        if self.init_state_mode not in INIT_MODES:
            raise ValidationError(
                f"init_state_mode must be one of {INIT_MODES}, got {self.init_state_mode!r}")


@dataclass
class GradReport:
    per_param: dict  # name -> (max relative error, mean relative error)
    max_rel_error: float
    mean_rel_error: float
    threshold: float
    passed: bool

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"gradcheck {status}: max rel error {self.max_rel_error:.3e}, "
            f"mean {self.mean_rel_error:.3e} (threshold {self.threshold:.0e})"
        )


class SpikeCountCELoss:
    """Listing-style rate loss: per-class spike counts over T, then CE."""

    def __init__(self, target):
        target = np.asarray(target)
        if target.ndim != 1:
            raise ShapeError(f"target must be a one-hot vector, got shape {target.shape}")
        self.target = target

    def loss_tensor(self, record, output_node=None):
        if output_node is None:
            output_node = next(iter(record.outputs))
        rec = record.outputs[output_node]
        if rec.ndim != 2 or rec.shape[1] != self.target.shape[0]:
            raise ShapeError(
                f"spike record shape {rec.shape} does not match {self.target.shape[0]} classes"
            )
        logits = ops.sum_axis(rec, 0)
        return ops.softmax_cross_entropy(logits, Tensor(self.target.astype(rec.dtype)))

    def loss_and_logit_grad(self, logits):
        """Loss and d(loss)/d(logits) for a plain count vector."""
        logits = np.asarray(logits)
        loss, dlogits = ops.softmax_ce_and_grad(logits, self.target.astype(logits.dtype))
        return float(loss), dlogits


def spike_count_ce_loss(record, target):
    """Scalar loss tensor for a SpikeRecord with one [T x C] output trace."""
    return SpikeCountCELoss(target).loss_tensor(record)


# The bytes that one micro-batch of a training step may keep for its
# reverse walk: the arrays its forward saves plus its per-sample parameter
# gradients (and, in step_by_step, the weight-gradient rows it carries), as
# _ExecContext.sample_bytes counts them from the program's shapes, T and
# dtype. 3 MiB holds 4 samples of the benchmark's float32 MLP (T = 100:
# 439 KB saved and 338 KB of gradients per sample) and 1 of its CNN
# (T = 25: 1.82 MB saved and 174 KB of gradients).
MICRO_BATCH_BYTES = 3 * 2**20


def _input_shape(inputs):
    return inputs.shape if isinstance(inputs, Tensor) else np.shape(inputs)


def _batch_loss_and_grad(graph, plan, batch, init_mode, init_seed):
    """Batch-mean loss, batch-mean gradients and each sample's logits, from
    ordered per-sample sums so the result is deterministic. The executor's
    tape-free BPTT differentiates each run of consecutive samples of one
    input shape in micro-batches that MICRO_BATCH_BYTES sizes, each one
    pass over the stacked samples, under every plan: one segment without
    checkpoint_every, and one slab of all T steps in layer_by_layer. Each
    sample's gradients are added to the batch total in sample order, so the
    bytes are those of differentiating the samples one by one."""
    total_loss = 0.0
    total = {}
    logits = []
    states = executor.init_states(graph, mode=init_mode, seed=init_seed)
    for _, run in itertools.groupby(batch, key=lambda sample: _input_shape(sample[0])):
        inputs, targets = zip(*run)
        heads = [SpikeCountCELoss(target) for target in targets]
        losses, run_logits, _ = executor._loss_and_grad(
            graph, plan, inputs, [states] * len(inputs), heads, total, MICRO_BATCH_BYTES)
        for loss in losses:
            total_loss += loss
        logits += run_logits
    n = len(batch)
    return total_loss / n, {k: v / n for k, v in total.items()}, logits


def _batch_loss(graph, plan, batch, init_mode, init_seed):
    """Batch-mean loss of untaped forward runs, summed in the same order."""
    total_loss = 0.0
    for inputs, target in batch:
        states = executor.init_states(graph, mode=init_mode, seed=init_seed)
        _, record = executor.run(graph, plan, inputs, states)
        logits = record.outputs[graph.output_nodes[0]].data.sum(axis=0)
        total_loss += SpikeCountCELoss(target).loss_and_logit_grad(logits)[0]
    return total_loss / len(batch)


def loss_and_grad(graph, plan, batch, init_mode="zeros", init_seed=0):
    """Batch-mean loss and parameter gradients (deterministic ordered sums).
    The samples are differentiated without a tape, in micro-batches as train
    forms them, and in segments of the plan's checkpoint_every steps when it
    is set; the bytes are those of a full-tape run of each sample whatever
    the segments and micro-batches."""
    if not batch:
        raise ValidationError("batch must be nonempty")
    loss, grads, _ = _batch_loss_and_grad(graph, plan, batch, init_mode, init_seed)
    return loss, grads


def fd_gradient(graph, plan, batch, eps=1e-6, init_mode="zeros", init_seed=0):
    """Central finite differences of the batch-mean loss per parameter scalar.

    Only valid on smooth-twin graphs (every stateful layer must carry a
    smooth_sharpness) at 64-bit precision; the hard threshold would make the
    difference quotient meaningless.
    """
    if not (eps > 0):
        raise ValidationError(f"eps must be positive, got {eps}")
    if not batch:
        raise ValidationError("batch must be nonempty")
    if graph.dtype != np.float64:
        raise ValidationError("fd_gradient requires a float64 graph")
    for nid in graph.stateful_nodes():
        if graph.node(nid).smooth_sharpness is None:
            raise ValidationError(
                f"fd_gradient requires smooth-twin neurons; node {nid} is a hard LIF"
            )
    grads = {}
    work = {name: np.array(arr, copy=True) for name, arr in graph.params.items()}
    perturbed = graph.copy_with_params(work)  # shares the arrays in work
    for name in sorted(work):
        arr = work[name]
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + eps
            lp = _batch_loss(perturbed, plan, batch, init_mode, init_seed)
            flat[i] = orig - eps
            lm = _batch_loss(perturbed, plan, batch, init_mode, init_seed)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2.0 * eps)
        grads[name] = g
    return grads


def compare_gradients(ad_grads, fd_grads, threshold=1e-4):
    """Relative-error report between two gradient maps with identical keys."""
    if set(ad_grads) != set(fd_grads):
        raise ContractError("gradient maps have different parameter keys")
    per_param = {}
    all_errs = []
    for name in sorted(ad_grads):
        a = np.asarray(ad_grads[name], dtype=np.float64).reshape(-1)
        f = np.asarray(fd_grads[name], dtype=np.float64).reshape(-1)
        denom = np.maximum(np.abs(a), np.abs(f))
        # below the noise floor of a central difference, compare absolutely
        rel = np.where(denom > 1e-5, np.abs(a - f) / np.where(denom > 0, denom, 1.0),
                       np.abs(a - f))
        per_param[name] = (float(rel.max()), float(rel.mean()))
        all_errs.append(rel)
    errs = np.concatenate(all_errs) if all_errs else np.zeros(1)
    max_rel = float(errs.max())
    return GradReport(
        per_param=per_param,
        max_rel_error=max_rel,
        mean_rel_error=float(errs.mean()),
        threshold=threshold,
        passed=max_rel < threshold,
    )


def optimizer_step(params, grads, opt_state, config):
    """One SGD or Adam update; returns (new params, new optimizer state).

    Every parameter and Adam moment keeps its parameter's dtype: gradients
    are cast to it and the hyperparameters enter as Python floats, which do
    not promote a float32 array.
    """
    if set(params) != set(grads):
        raise ContractError(
            f"gradient keys {sorted(grads)} do not match parameter keys {sorted(params)}"
        )
    grads = {k: np.asarray(grads[k], dtype=params[k].dtype) for k in params}
    lr = float(config.learning_rate)
    if config.optimizer == "sgd":
        new = {k: params[k] - lr * grads[k] for k in params}
        return new, opt_state or {}
    if opt_state is None or not opt_state:
        opt_state = {
            "t": 0,
            "m": {k: np.zeros_like(v) for k, v in params.items()},
            "v": {k: np.zeros_like(v) for k, v in params.items()},
        }
    t = opt_state["t"] + 1
    b1, b2, eps = float(config.beta1), float(config.beta2), float(config.eps)
    m = {}
    v = {}
    new = {}
    for k in params:
        m[k] = b1 * opt_state["m"][k] + (1.0 - b1) * grads[k]
        v[k] = b2 * opt_state["v"][k] + (1.0 - b2) * grads[k] ** 2
        m_hat = m[k] / (1.0 - b1**t)
        v_hat = v[k] / (1.0 - b2**t)
        new[k] = params[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new, {"t": t, "m": m, "v": v}


def accuracy_of(logits, target):
    """Argmax of spike counts; np.argmax already breaks ties toward class 0."""
    return int(np.argmax(logits) == np.argmax(np.asarray(target)))


def train(graph, dataset, config, stop_at_accuracy=None, log_every=None):
    """Mini-batch training; returns (graph with updated params, metric rows).

    Batches are reshuffled per epoch with a seeded generator and neuron
    states are re-initialized for every sample. Each batch is
    differentiated as loss_and_grad does it, with no tape, and with
    config.plan's checkpoint_every honoured: consecutive samples of one
    input shape are stacked along a sample axis into micro-batches of as
    many samples as MICRO_BATCH_BYTES holds, each differentiated in one
    pass, and each sample's gradients are added to the batch total in
    sample order. So a batch trains to the bytes of a loop over its
    samples, whatever the micro-batch size. Metric rows are (epoch,
    mean_loss, accuracy, wall_ms).
    """
    if not dataset:
        raise ValidationError("dataset must be nonempty")
    rng = np.random.default_rng(config.seed)
    opt_state = None
    metrics = []
    for epoch in range(config.epochs):
        start = time.perf_counter()
        perm = rng.permutation(len(dataset))
        losses = []
        correct = 0
        for b0 in range(0, len(dataset), config.batch_size):
            idx = perm[b0 : b0 + config.batch_size]
            batch = [dataset[i] for i in idx]
            batch_loss, mean_grads, logits = _batch_loss_and_grad(
                graph, config.plan, batch, config.init_state_mode, config.seed
            )
            correct += sum(accuracy_of(lg, target) for lg, (_, target) in zip(logits, batch))
            if not np.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {b0 // config.batch_size}"
                )
            graph.params, opt_state = optimizer_step(
                graph.params, mean_grads, opt_state, config
            )
            losses.append(batch_loss)
        wall_ms = (time.perf_counter() - start) * 1000.0
        acc = correct / len(dataset)
        metrics.append((epoch, float(np.mean(losses)), acc, wall_ms))
        if log_every and (epoch % log_every == 0):
            print(f"epoch {epoch}: loss {np.mean(losses):.4f} acc {acc:.3f}")
        if stop_at_accuracy is not None and acc >= stop_at_accuracy:
            break
    return graph, metrics


def write_metrics(path, metrics):
    with open(path, "w") as f:
        f.write("epoch,mean_loss,accuracy,wall_ms\n")
        for epoch, loss, acc, wall in metrics:
            f.write(f"{epoch},{loss:.6g},{acc:.6g},{wall:.3f}\n")
