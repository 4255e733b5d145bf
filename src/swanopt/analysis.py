"""Trajectory post-processing: gradient-distribution tracking and speedup math.

The gradient-distribution side collects per-element mean/std of a weight
block's gradient over repeated minibatches at fixed weights, and scores drift
against a reference snapshot with an elementwise-Gaussian KL divergence.

The speedup side works on metric-vs-step curves: steps-to-threshold with
linear interpolation, the per-threshold speedup ratio R(P), and the
counterfactual additive construction (fixed step head-start Delta) used to
tell additive from multiplicative improvements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gradient_ops import GradNormConfig, grad_norm
from .problems import MlpProblem

__all__ = [
    "GradientDistSnapshot",
    "snapshot_gradients",
    "kl_to_reference",
    "PplCurve",
    "step_to_reach",
    "SpeedupPoint",
    "speedup_ratio",
    "default_thresholds",
    "CounterfactualResult",
    "counterfactual_additive",
]

_STD_FLOOR = 1e-8
_PREPROCESS = ("raw", "gradnorm")


@dataclass(frozen=True)
class GradientDistSnapshot:
    """Elementwise mean and std of one weight block's gradient over batches."""

    mean: np.ndarray
    std: np.ndarray
    n_batches: int

    def __post_init__(self):
        if self.n_batches < 2:
            raise ValueError("need at least 2 batches for a spread estimate")
        if self.mean.shape != self.std.shape:
            raise ValueError("mean and std shapes differ")
        if np.any(self.std < 0):
            raise ValueError("negative std")


def snapshot_gradients(
    problem: MlpProblem,
    weights,
    preprocess: str,
    n_batches: int,
    seed: int,
    block: int = 1,
) -> GradientDistSnapshot:
    """Sample ``n_batches`` fresh minibatches at fixed weights and collect the
    elementwise mean/std of block ``block``'s gradient, optionally passed
    through grad_norm first."""
    if preprocess not in _PREPROCESS:
        raise ValueError(f"preprocess must be one of {_PREPROCESS}, got {preprocess!r}")
    if n_batches < 2:
        raise ValueError("n_batches must be >= 2")
    if not 0 <= block < problem.n_blocks:
        raise ValueError(f"block must be in [0, {problem.n_blocks}), got {block}")
    rng = np.random.default_rng(seed)
    batch_seeds = rng.integers(0, 2**63 - 1, size=n_batches)
    grads = []
    for bs in batch_seeds:
        _, gs = problem.loss_and_grads(weights, int(bs))
        g = gs[block]
        if preprocess == "gradnorm":
            g = grad_norm(g, GradNormConfig())
        grads.append(g)
    stack = np.array(grads)
    return GradientDistSnapshot(
        mean=stack.mean(axis=0), std=stack.std(axis=0), n_batches=n_batches
    )


def kl_to_reference(a: GradientDistSnapshot, ref: GradientDistSnapshot) -> float:
    """Mean elementwise Gaussian KL(N(mu_a, s_a^2) || N(mu_ref, s_ref^2)).

    Each element is treated as an independent univariate Gaussian; both stds
    are clamped below at 1e-8.
    """
    if a.mean.shape != ref.mean.shape:
        raise ValueError(f"shape mismatch: {a.mean.shape} vs {ref.mean.shape}")
    sa = np.maximum(a.std, _STD_FLOOR)
    sr = np.maximum(ref.std, _STD_FLOOR)
    kl = np.log(sr / sa) + (sa**2 + (a.mean - ref.mean) ** 2) / (2.0 * sr**2) - 0.5
    return float(np.mean(kl))


@dataclass(frozen=True)
class PplCurve:
    """Strictly positive metric recorded at strictly increasing steps."""

    steps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        steps = np.asarray(self.steps, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if steps.ndim != 1 or values.ndim != 1 or steps.size != values.size:
            raise ValueError("steps and values must be 1-D of equal length")
        if steps.size == 0:
            raise ValueError("empty curve")
        if np.any(np.diff(steps) <= 0):
            raise ValueError("steps must be strictly increasing")
        if np.any(values <= 0):
            raise ValueError("metric values must be strictly positive")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "values", values)

    @property
    def final_step(self) -> float:
        return float(self.steps[-1])


def step_to_reach(curve: PplCurve, threshold: float) -> float | None:
    """First step at which the metric is <= threshold, linearly interpolating
    between recorded points; None if the curve never crosses."""
    values = curve.values
    steps = curve.steps
    hit = np.flatnonzero(values <= threshold)
    if hit.size == 0:
        return None
    i = int(hit[0])
    if i == 0:
        return float(steps[0])
    v0, v1 = values[i - 1], values[i]
    s0, s1 = steps[i - 1], steps[i]
    frac = (v0 - threshold) / (v0 - v1)
    return float(s0 + frac * (s1 - s0))


@dataclass(frozen=True)
class SpeedupPoint:
    threshold: float
    steps_baseline: float | None
    steps_candidate: float | None
    ratio: float | None


def speedup_ratio(
    baseline: PplCurve, candidate: PplCurve, thresholds: Sequence[float]
) -> list[SpeedupPoint]:
    """R(P) = S_baseline(P) / S_candidate(P) per threshold; thresholds either
    curve never reaches are reported with ratio None."""
    if len(thresholds) == 0:
        raise ValueError("no thresholds supplied")
    out = []
    for p in thresholds:
        sb = step_to_reach(baseline, p)
        sc = step_to_reach(candidate, p)
        ratio = None
        if sb is not None and sc is not None and sc > 0:
            ratio = sb / sc
        out.append(
            SpeedupPoint(
                threshold=float(p), steps_baseline=sb, steps_candidate=sc, ratio=ratio
            )
        )
    return out


def default_thresholds(
    baseline: PplCurve, candidate: PplCurve, count: int = 50
) -> np.ndarray:
    """Geometric grid spanning the metric range both curves cover."""
    lo = max(float(baseline.values.min()), float(candidate.values.min()))
    hi = min(float(baseline.values.max()), float(candidate.values.max()))
    if not lo < hi:
        raise ValueError("curves share no metric range")
    return np.geomspace(hi, lo, count)


@dataclass(frozen=True)
class CounterfactualResult:
    delta: float
    points: list[SpeedupPoint]
    additive_ratio: list[tuple[float, float | None]]
    additive_curve: PplCurve


def counterfactual_additive(
    baseline: PplCurve,
    candidate: PplCurve,
    thresholds: Sequence[float] | None = None,
) -> CounterfactualResult:
    """Fixed-head-start model of the candidate's advantage.

    Delta averages S_baseline(P) - S_candidate(P) over thresholds whose
    baseline crossing falls inside the early window, 10% to 20% of the
    baseline's final step. The additive ratio is
    S_baseline / (S_baseline - Delta), undefined (None) where
    S_baseline <= Delta; the additive curve evaluates the baseline metric at
    step + Delta wherever that stays inside the recorded range.
    """
    if thresholds is None:
        thresholds = default_thresholds(baseline, candidate)
    points = speedup_ratio(baseline, candidate, thresholds)
    t_final = baseline.final_step
    window = [
        p
        for p in points
        if p.steps_baseline is not None
        and p.steps_candidate is not None
        and 0.10 * t_final <= p.steps_baseline <= 0.20 * t_final
    ]
    if not window:
        raise ValueError("no thresholds fall inside the early window")
    delta = float(np.mean([p.steps_baseline - p.steps_candidate for p in window]))

    additive_ratio: list[tuple[float, float | None]] = []
    for p in points:
        if p.steps_baseline is None or p.steps_baseline <= delta:
            additive_ratio.append((p.threshold, None))
        else:
            additive_ratio.append((p.threshold, p.steps_baseline / (p.steps_baseline - delta)))

    lo, hi = baseline.steps[0], baseline.steps[-1]
    keep = (baseline.steps + delta >= lo) & (baseline.steps + delta <= hi)
    if not np.any(keep):
        raise ValueError("delta shifts every step outside the recorded range")
    shifted_steps = baseline.steps[keep]
    shifted_vals = np.interp(shifted_steps + delta, baseline.steps, baseline.values)
    additive_curve = PplCurve(steps=shifted_steps, values=shifted_vals)
    return CounterfactualResult(
        delta=delta,
        points=points,
        additive_ratio=additive_ratio,
        additive_curve=additive_curve,
    )
