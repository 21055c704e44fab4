"""Fuzzy-controller training (paper Appendix A, Eq 13).

The manufacturer-site training: the first ``n_rules`` examples seed the
rule centres (``mu_ij = x_ij``, ``sigma_ij`` random below 0.1, ``y_i`` the
example's output); every further example performs one gradient step on
every rule's ``mu``, ``sigma`` and ``y`` with learning rate ``alpha``
(0.04 in the paper)::

    eta(k+1) = eta(k) - alpha * de/d_eta        (Eq 13)

with ``e = 0.5 * (z - target)^2`` for the Eq 12 output ``z``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .. import obs
from .fuzzy import _STRENGTH_FLOOR, FuzzyController

#: Paper settings (Figure 7(a)): 25 rules, 10,000 training examples.
DEFAULT_N_RULES = 25
DEFAULT_LEARNING_RATE = 0.04

_MIN_SIGMA = 0.02  # keep widths positive and rules well-conditioned


@dataclass(frozen=True)
class TrainingReport:
    """Summary statistics of one training run."""

    n_examples: int
    epochs: int
    final_rmse: float  # over the training set after the last epoch


def train_fuzzy_controllers(
    datasets: Sequence[Tuple[np.ndarray, np.ndarray]],
    n_rules: int = DEFAULT_N_RULES,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    epochs: int = 1,
    *,
    seeds: Sequence[int],
) -> "list[tuple[FuzzyController, TrainingReport]]":
    """Train one fuzzy controller per ``(inputs, targets)`` dataset.

    Controllers with the same input width train in lockstep: their rule
    arrays are stacked ``(F, rules, inputs)`` and one vectorised Eq 13
    step updates all of them per example index.  Each controller keeps
    its own standardisation, its own seed (one per dataset in ``seeds``)
    and its own example order, so the result is bit-identical to
    training each one alone.  Returns ``(controller, report)`` pairs in
    dataset order.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if len(seeds) != len(datasets):
        raise ValueError("need one seed per dataset")
    data = []
    for inputs, targets in datasets:
        inputs = np.asarray(inputs, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if inputs.ndim != 2:
            raise ValueError("inputs must be 2-D (examples x variables)")
        if len(inputs) != len(targets):
            raise ValueError("inputs and targets must have the same length")
        if len(inputs) < n_rules:
            raise ValueError(f"need at least n_rules={n_rules} examples")
        data.append((inputs, targets))

    by_width: Dict[int, List[int]] = {}
    for position, (inputs, _) in enumerate(data):
        by_width.setdefault(inputs.shape[1], []).append(position)
    out: List = [None] * len(data)
    for members in by_width.values():
        start = time.perf_counter()
        with obs.span("ml.train", fcs=len(members)):
            controllers = _train_lockstep(
                [data[p] for p in members], [seeds[p] for p in members],
                n_rules, learning_rate, epochs,
            )
        share = (time.perf_counter() - start) / len(members)
        for position, controller in zip(members, controllers):
            inputs, targets = data[position]
            predictions = controller.predict_batch(inputs)
            rmse = float(np.sqrt(np.mean((predictions - targets) ** 2)))
            obs.inc("ml.fcs_trained")
            obs.observe("ml.train_seconds", share)
            obs.observe("ml.train_rmse", rmse)
            out[position] = (
                controller,
                TrainingReport(
                    n_examples=len(inputs), epochs=epochs, final_rmse=rmse
                ),
            )
    return out


def _train_lockstep(
    data: Sequence[Tuple[np.ndarray, np.ndarray]],
    seeds: Sequence[int],
    n_rules: int,
    lr: float,
    epochs: int,
) -> List[FuzzyController]:
    """Eq 13 over F same-width controllers at once.

    Controllers are stacked longest dataset first, so the ones still
    training at example index ``k`` are a leading slice.  Every
    reduction runs along the contiguous last axis, as it would for one
    controller alone; rows left untouched at a step (no rule fires) are
    dropped by index, never masked, so their 0/0 cannot leak.
    """
    order = sorted(range(len(data)), key=lambda f: -len(data[f][0]))
    lengths = [len(data[f][0]) for f in order]
    width = data[0][0].shape[1]
    n_fcs = len(order)
    x_all = np.zeros((n_fcs, lengths[0], width))
    t_all = np.zeros((n_fcs, lengths[0]))
    mu = np.empty((n_fcs, n_rules, width))
    sigma = np.empty_like(mu)
    y = np.empty((n_fcs, n_rules))
    scales = []
    for slot, f in enumerate(order):
        inputs, targets = data[f]
        rng = np.random.default_rng(seeds[f])
        mean = inputs.mean(axis=0)
        std = inputs.std(axis=0)
        std = np.where(std > 1e-12, std, 1.0)
        x_std = (inputs - mean) / std
        x_all[slot, : len(inputs)] = x_std
        t_all[slot, : len(inputs)] = targets
        # Seeding phase: first n_rules examples become the rules.
        mu[slot] = x_std[:n_rules]
        init = rng.uniform(0.02, 0.1, size=(n_rules, width))
        # Widen to a useful receptive field before online training; the
        # paper's tiny initial widths rely on the gradient to open them
        # up, which needs many more examples than rules — starting wider
        # converges to the same place faster and is numerically safer.
        sigma[slot] = np.maximum(
            init, 0.25 + rng.uniform(0.0, 0.25, size=(n_rules, width))
        )
        y[slot] = targets[:n_rules]
        scales.append((mean, std))

    # One example per controller broadcasts over that controller's rules.
    x_steps = x_all[:, :, None, :]
    for _ in range(epochs):
        alive = 0
        for k in range(n_rules, lengths[0]):
            count = alive or n_fcs
            while lengths[count - 1] <= k:
                count -= 1
            if count != alive:
                # Views of the controllers still training at index k.
                alive = count
                x_a, t_a = x_steps[:alive], t_all[:alive]
                mu_a, sigma_a, y_a = mu[:alive], sigma[:alive], y[:alive]
            diff = x_a[:, k] - mu_a  # (F, rules, inputs)
            z2 = np.square(diff / sigma_a)
            w = np.exp(-np.add.reduce(z2, axis=2))  # (F, rules)
            total = np.add.reduce(w, axis=1)
            outside = total < _STRENGTH_FLOOR
            if np.count_nonzero(outside):
                # The example is outside every rule's receptive field of
                # some controllers: update only the others (copies).
                keep = np.flatnonzero(~outside)
                diff, w, total = diff[keep], w[keep], total[keep]
                target = t_a[keep, k]
                mu_k, sigma_k, y_k = mu_a[keep], sigma_a[keep], y_a[keep]
            else:
                keep = None
                target = t_a[:, k]
                mu_k, sigma_k, y_k = mu_a, sigma_a, y_a
            z = np.add.reduce(w * y_k, axis=1) / total
            err = (z - target)[:, None]
            total = total[:, None]
            # d e / d y_i = err * W_i / sum(W)
            grad_y = err * w / total
            # Common factor for mu/sigma gradients:
            # 2 * err * (y_i - z) * W_i / sum(W).
            common = (err * (y_k - z[:, None]) * w / total)[:, :, None] * 2.0
            grad_mu = common * diff / np.square(sigma_k)
            grad_sigma = common * np.square(diff) / np.power(sigma_k, 3.0)
            y_k -= lr * grad_y
            mu_k -= lr * grad_mu
            sigma_k -= lr * grad_sigma
            np.maximum(sigma_k, _MIN_SIGMA, out=sigma_k)
            if keep is not None:
                mu_a[keep], sigma_a[keep], y_a[keep] = mu_k, sigma_k, y_k

    controllers: List = [None] * n_fcs
    for slot, f in enumerate(order):
        mean, std = scales[slot]
        controllers[f] = FuzzyController(
            mu=mu[slot].copy(), sigma=sigma[slot].copy(), y=y[slot].copy(),
            input_mean=mean, input_std=std,
        )
    return controllers
