"""Training objective: token cross-entropy plus routing regularizers.

The two auxiliary terms act on the routing weights pi emitted by Gumbel
connection blocks: the entropy term is the mean per-token entropy of pi,
the load term is the entropy of the batch-mean routing distribution. The
total is ce + lambda_e * entropy + lambda_l * load, the formulas as printed;
the weights are checked where they enter, in ``TrainConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from papaformer.tensor import Tensor

LOG_CLAMP = 1e-12
DEFAULT_LAMBDA = 0.01


@dataclass
class LossBreakdown:
    ce: Tensor
    entropy: Tensor
    load: Tensor
    total: Tensor
    lambda_entropy: float
    lambda_load: float

    def scalars(self) -> dict:
        return {
            "ce": float(self.ce.data),
            "entropy": float(self.entropy.data),
            "load": float(self.load.data),
            "total": float(self.total.data),
        }


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood through a stable log-sum-exp.

    ``logits`` is [..., vocab]; ``targets`` holds ids over the leading axes.
    One tape node; its backward pass is (softmax - onehot) / n. The node holds
    one [N, vocab] array and no reference to ``logits``.
    """
    targets = np.asarray(targets)
    vocab = logits.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise IndexError(f"target id out of range [0, {vocab})")
    shape = logits.data.shape
    flat = logits.data.reshape(-1, vocab)
    rows = np.arange(flat.shape[0])
    ids = targets.reshape(-1)
    shifted = flat - flat.max(axis=-1, keepdims=True)
    picked = shifted[rows, ids]
    e = np.exp(shifted, out=shifted)  # the node's one [N, V] array
    sums = e.sum(axis=-1, keepdims=True)
    nll = np.log(sums[:, 0]) - picked

    def bwd(g):
        grad = e  # the walk runs a closure once, so e turns into the gradient in place
        grad /= sums
        grad[rows, ids] -= 1.0
        grad *= g / ids.size
        return (grad.reshape(shape),)

    return Tensor(nll.mean(), _parents=(logits,), _backward=bwd)


def _entropy_of_rows(pi: Tensor) -> Tensor:
    """Row-wise -sum p log p with 0 log 0 := 0 (via clamping inside the log)."""
    return -(pi * (pi + LOG_CLAMP).log()).sum(axis=-1)


def entropy_loss(pi: Tensor) -> Tensor:
    """Mean per-token routing entropy over all k+1 slots."""
    return _entropy_of_rows(pi).mean()


def load_balance_loss(pi: Tensor) -> Tensor:
    """Entropy of the batch-mean routing distribution pi_bar."""
    leading = pi.ndim - 1
    pi_bar = pi.mean(axis=tuple(range(leading)))
    return _entropy_of_rows(pi_bar)


def total_loss(
    ce: Tensor,
    routing_records: list,
    lambda_entropy: float = DEFAULT_LAMBDA,
    lambda_load: float = DEFAULT_LAMBDA,
) -> LossBreakdown:
    """Assemble the full objective; aux terms average over routing layers.

    Models without Gumbel routing (share_linear, baselines) contribute no
    records, so total reduces to the cross-entropy.
    """
    pis = [r.pi for r in routing_records if hasattr(r, "pi")]
    if pis:
        n = float(len(pis))
        ent = entropy_loss(pis[0]) * (1.0 / n)
        load = load_balance_loss(pis[0]) * (1.0 / n)
        for pi in pis[1:]:
            ent = ent + entropy_loss(pi) * (1.0 / n)
            load = load + load_balance_loss(pi) * (1.0 / n)
        total = ce + ent * float(lambda_entropy) + load * float(lambda_load)
    else:
        ent = load = Tensor(np.zeros((), dtype=ce.data.dtype))
        total = ce
    return LossBreakdown(
        ce=ce,
        entropy=ent,
        load=load,
        total=total,
        lambda_entropy=lambda_entropy,
        lambda_load=lambda_load,
    )
