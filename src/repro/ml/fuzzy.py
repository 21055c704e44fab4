"""Fuzzy controller inference (paper Appendix A, Eqs 10-12).

A controller is two matrices ``mu`` and ``sigma`` (one row per fuzzy rule,
one column per input variable) and an output vector ``y`` (one entry per
rule).  For an input vector ``x``:

    W_ij = exp(-((x_j - mu_ij) / sigma_ij)^2)        (Eq 10)
    W_i  = prod_j W_ij                               (Eq 11)
    z    = sum_i(W_i * y_i) / sum_i W_i              (Eq 12)

Inputs are standardised (zero mean, unit variance over the training set)
before entering Eq 10 — with raw physical units the "sigma < 0.1"
initialisation of the training phase would be meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Floor on the rule-strength sum to avoid 0/0 for far-out inputs.
_STRENGTH_FLOOR = 1e-30


@dataclass
class FuzzyController:
    """A trained (or in-training) fuzzy controller.

    Attributes:
        mu: Rule centres, shape ``(n_rules, n_inputs)`` (standardised).
        sigma: Rule widths, same shape, strictly positive.
        y: Rule outputs, shape ``(n_rules,)`` (in output units).
        input_mean: Standardisation offsets, shape ``(n_inputs,)``.
        input_std: Standardisation scales, shape ``(n_inputs,)``.
    """

    mu: np.ndarray
    sigma: np.ndarray
    y: np.ndarray
    input_mean: np.ndarray
    input_std: np.ndarray

    def __post_init__(self) -> None:
        if self.mu.shape != self.sigma.shape:
            raise ValueError("mu and sigma must have the same shape")
        if self.y.shape != (self.mu.shape[0],):
            raise ValueError("y must have one entry per rule")
        if self.input_mean.shape != (self.mu.shape[1],):
            raise ValueError("input_mean must have one entry per input")
        if np.any(self.sigma <= 0.0):
            raise ValueError("sigma entries must be positive")
        if np.any(self.input_std <= 0.0):
            raise ValueError("input_std entries must be positive")

    @property
    def n_rules(self) -> int:
        """Number of fuzzy rules."""
        return self.mu.shape[0]

    @property
    def n_inputs(self) -> int:
        """Number of input variables."""
        return self.mu.shape[1]

    def standardise(self, x: np.ndarray) -> np.ndarray:
        """Map raw inputs to the standardised space of the rules."""
        return (np.asarray(x, dtype=float) - self.input_mean) / self.input_std

    def rule_strengths(self, x_std: np.ndarray) -> np.ndarray:
        """Eqs 10-11: firing strength of each rule.

        ``x_std`` is one standardised input, or rows of them shaped
        ``(n, 1, n_inputs)`` for an ``(n, rules)`` result.
        """
        w = np.exp(-(((x_std - self.mu) / self.sigma) ** 2))
        return w.prod(axis=-1)

    def predict(self, x: np.ndarray) -> float:
        """Eq 12: the defuzzified output for one raw input vector.

        The one-row call of :meth:`predict_rows`, the one inference
        formula.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_inputs,):
            raise ValueError(
                f"input must have shape ({self.n_inputs},), got {x.shape}"
            )
        return float(self.predict_rows(x[None])[0])

    def predict_rows(self, xs: np.ndarray) -> np.ndarray:
        """Eqs 10-12 for every row of ``xs``, shape ``(n, n_inputs)``.

        The inference path: each row's output is computed in exactly the
        per-rule order of the scalar formula (``exp`` per input, then the
        product over inputs, then the rule sums), so a row's value does
        not depend on which other rows share the call.  A row where no
        rule fires takes the nearest rule's output.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.n_inputs:
            raise ValueError(
                f"xs must have shape (n, {self.n_inputs}), got {xs.shape}"
            )
        x_std = self.standardise(xs)[:, None, :]
        w = self.rule_strengths(x_std)
        total = w.sum(axis=1)
        out = np.empty(len(xs))
        fired = total >= _STRENGTH_FLOOR
        out[fired] = (w[fired] * self.y).sum(axis=1) / total[fired]
        if not fired.all():
            # No rule fires: fall back to the nearest rule's output.
            z2 = (((x_std[~fired] - self.mu) / self.sigma) ** 2).sum(axis=2)
            out[~fired] = self.y[np.argmin(z2, axis=1)]
        return out

    def predict_batch(self, xs: np.ndarray) -> np.ndarray:
        """Training-side :meth:`predict_rows`: one ``exp`` of summed logs.

        Used only for the training RMSE.  ``exp(-sum)`` rounds differently
        from the product of per-input ``exp`` terms, so its outputs can
        differ from :meth:`predict_rows` in the last bits; the trained
        banks' ``freq_rmse`` values come from this form.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.n_inputs:
            raise ValueError(f"xs must have shape (n, {self.n_inputs})")
        x_std = (xs - self.input_mean) / self.input_std
        # (n, rules): log-strengths summed over inputs.
        z2 = ((x_std[:, None, :] - self.mu[None]) / self.sigma[None]) ** 2
        w = np.exp(-z2.sum(axis=2))
        total = w.sum(axis=1)
        out = np.empty(len(xs))
        fired = total >= _STRENGTH_FLOOR
        out[fired] = (w[fired] * self.y).sum(axis=1) / total[fired]
        if np.any(~fired):
            nearest = np.argmin(z2[~fired].sum(axis=2), axis=1)
            out[~fired] = self.y[nearest]
        return out
