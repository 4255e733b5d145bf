"""Declarative experiment runner.

An :class:`ExperimentSpec` names a problem, a list of optimizers, a step
budget and output settings; :func:`run_experiment` executes every optimizer
from one shared seeded initialization, records a trajectory per optimizer,
and (when an output directory is set) writes one CSV/JSON file per optimizer
plus a JSON summary. Identical spec, seed and BLAS thread count produce
byte-identical files (the thread count can change whitening's bits). An
optimizer whose loss turns non-finite, or whose step or loss raises a
``ValueError``, is stopped and flagged as diverged; the others run on.

Every step comes from the one step table, :func:`swanopt.optimizers.make_step`.
Inputs are checked where they enter: the spec dataclasses check their
fields, the problem's ``loss_and_grad`` checks each iterate, and the step
entries trust the arrays the harness hands them. One ``loss_and_grad`` call
per step gives the loss at the new iterate and the gradient the next step
takes.

Specs can be built in code or parsed from a flat INI-style config file with
one ``[optimizer:NAME]`` section per optimizer. Its keys are the field names
of the spec dataclasses, read from the dataclasses themselves (see
:func:`parse_config`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .gradient_ops import GradNormConfig, WhiteningConfig, orthogonalize
from .matrixops import as_matrix, random_matrix
from .optimizers import OptimizerConfig, init_state, linear_warmup_decay, make_step
from .problems import QuadraticProblem, RastriginProblem

__all__ = [
    "ConfigError",
    "ProblemSpec",
    "OptimizerDescriptor",
    "ExperimentSpec",
    "TrajectoryRecord",
    "ExperimentResult",
    "run_experiment",
    "parse_config",
    "write_csv",
    "write_json",
    "read_curve_csv",
    "CSV_HEADER",
]

_PROBLEM_KINDS = ("quadratic", "rastrigin")
_SCHEDULES = ("constant", "linear_decay")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    seed: int = 0
    m: int = 50
    n: int = 50
    kappa: float = 1.0
    c_scale: float = 0.0
    amplitude: float = 10.0
    init_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _PROBLEM_KINDS:
            raise ConfigError(f"problem.kind must be one of {_PROBLEM_KINDS}, got {self.kind!r}")
        if self.m < 1 or self.n < 1:
            raise ConfigError(f"problem m and n must be >= 1, got m={self.m} n={self.n}")
        if not np.isfinite(self.init_scale):
            raise ConfigError(f"problem.init_scale must be finite, got {self.init_scale}")

    def build(self):
        if self.kind == "quadratic":
            return QuadraticProblem.seeded(self.m, self.n, self.kappa, self.seed, self.c_scale)
        return RastriginProblem(amplitude=self.amplitude, size=self.m)


@dataclass(frozen=True)
class OptimizerDescriptor:
    name: str
    config: OptimizerConfig
    orthogonal_init: bool = False
    schedule: str = "constant"
    warmup_fraction: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise ConfigError("optimizer name must be non-empty")
        if self.schedule not in _SCHEDULES:
            raise ConfigError(f"schedule must be one of {_SCHEDULES}, got {self.schedule!r}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError(f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}")


@dataclass(frozen=True)
class ExperimentSpec:
    problem: ProblemSpec
    optimizers: tuple[OptimizerDescriptor, ...]
    steps: int = 100
    record_every: int = 1
    seed: int = 0
    threshold: float = 1e-6
    out_dir: str | None = None
    file_format: str = "csv"

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.threshold < np.inf:
            raise ConfigError(f"threshold must be finite and >= 0, got {self.threshold}")
        names = [d.name for d in self.optimizers]
        if len(names) != len(set(names)):
            raise ConfigError(f"optimizer names must be unique, got {names}")
        if not self.optimizers:
            raise ConfigError("at least one optimizer is required")
        if self.file_format not in ("csv", "json"):
            raise ConfigError(f"file_format must be csv or json, got {self.file_format!r}")


@dataclass(frozen=True)
class TrajectoryRecord:
    step: int
    loss: float
    loss_minus_opt: float
    grad_fro: float
    update_fro: float
    eta: float
    diag1: float = float("nan")


CSV_HEADER = ",".join(f.name for f in fields(TrajectoryRecord))


@dataclass(frozen=True)
class ExperimentResult:
    trajectories: dict[str, list[TrajectoryRecord]]
    summary: dict


def _cell(v) -> str:
    if v is None:
        return ""
    return "%.17g" % v if isinstance(v, float) else str(v)


def write_csv(path: Path, header: str, rows) -> None:
    """Write a CSV table: floats as ``%.17g`` (they round-trip exactly), ``None``
    as an empty cell, anything else with ``str``."""
    lines = [header] + [",".join(map(_cell, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, obj) -> None:
    """Write ``obj`` as strict JSON (a NaN or an infinity raises), keys sorted,
    one-space indent, with a trailing newline."""
    path.write_text(json.dumps(obj, indent=1, sort_keys=True, allow_nan=False) + "\n")


def read_curve_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read (step, loss) columns back from a trajectory CSV."""
    text = Path(path).read_text().strip().splitlines()
    if not text or not text[0].startswith("step,"):
        raise ConfigError(f"{path} is not a trajectory CSV")
    steps, losses = [], []
    for lineno, line in enumerate(text[1:], start=2):
        parts = line.split(",")
        if len(parts) < 2:
            raise ConfigError(f"{path} line {lineno}: expected step and loss cells, got {line!r}")
        steps.append(float(parts[0]))
        losses.append(float(parts[1]))
    return np.array(steps), np.array(losses)


def spec_hash(spec: ExperimentSpec) -> str:
    """Hash of the scientific configuration; output location/format excluded."""
    science = {k: v for k, v in asdict(spec).items() if k not in ("out_dir", "file_format")}
    payload = json.dumps(science, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every optimizer in the spec from one shared initialization.

    A problem the spec cannot build, or an optimizer whose step the problem
    cannot take (a curvature kind on a non-quadratic problem), is a
    :class:`ConfigError` raised before any optimizer runs. A non-finite loss,
    or a ``ValueError`` from the step or from the loss, terminates that
    optimizer's run and flags it as diverged in the summary, with
    ``diverged_cause`` "non-finite loss" or the error message; other
    optimizers continue; its final losses are None if it has no record. When
    ``out_dir`` is set, one trajectory file per optimizer and a strict-JSON
    ``summary.json`` are written.

    The problem's ``loss_and_grad`` runs once at W0 and once per step, at the
    new iterate; the step after takes that gradient. It checks every iterate
    (a non-finite one is a ``ValueError``, so a diverged run). A finite loss
    implies a finite gradient, so the step entries take their arrays
    unchecked; only W0's gradient, which no finite loss vouches for yet, is
    checked inside the first step.
    """
    try:
        problem = spec.problem.build()
    except ValueError as exc:
        raise ConfigError(f"[problem]: {exc}") from exc
    steps = {}
    for desc in spec.optimizers:
        try:
            steps[desc.name] = make_step(desc.config, problem)
        except ValueError as exc:
            raise ConfigError(f"optimizer {desc.name!r}: {exc}") from exc
    shape = problem.shape
    w0_shared = random_matrix(shape[0], shape[1], spec.seed, scale=spec.problem.init_scale)
    l_star = problem.l_star

    trajectories: dict[str, list[TrajectoryRecord]] = {}
    rows = {}
    for desc in spec.optimizers:
        w = w0_shared.copy()
        if desc.orthogonal_init:
            w = orthogonalize(w)
        step = steps[desc.name]
        state = init_state(desc.config, shape)
        records: list[TrajectoryRecord] = []
        loss, g = problem.loss_and_grad(w)
        initial_excess = loss - l_star
        diverged_at = cause = None
        steps_to_threshold = None
        for t in range(1, spec.steps + 1):
            if desc.schedule == "linear_decay":
                lr = linear_warmup_decay(
                    t - 1, spec.steps, desc.config.learning_rate, desc.warmup_fraction
                )
            else:
                lr = desc.config.learning_rate
            try:
                if t == 1:  # no finite loss vouches for W0's gradient
                    as_matrix(g, "g")
                w_next, state, eta, info = step(w, g, state, lr)
                loss, g_next = problem.loss_and_grad(w_next)
            except ValueError as exc:
                cause = str(exc)
            else:
                if not np.isfinite(loss):
                    cause = "non-finite loss"
            if cause is not None:
                diverged_at = t
                break
            excess = loss - l_star
            if (
                steps_to_threshold is None
                and initial_excess > 0
                and excess / initial_excess <= spec.threshold
            ):
                steps_to_threshold = t
            if t % spec.record_every == 0 or t == spec.steps:
                with np.errstate(over="ignore", invalid="ignore"):  # a norm may overflow
                    records.append(
                        TrajectoryRecord(
                            step=t,
                            loss=loss,
                            loss_minus_opt=excess,
                            grad_fro=float(np.linalg.norm(g)),
                            update_fro=float(np.linalg.norm(w_next - w)),
                            eta=eta,
                            diag1=info,
                        )
                    )
            w, g = w_next, g_next
        trajectories[desc.name] = records
        rows[desc.name] = {
            "final_loss": records[-1].loss if records else None,
            "final_loss_minus_opt": records[-1].loss_minus_opt if records else None,
            "steps_to_threshold": steps_to_threshold,
            "diverged": diverged_at is not None,
            "diverged_at": diverged_at,
            "diverged_cause": cause,
        }
    summary = {
        "seed": spec.seed,
        "threshold": spec.threshold,
        "config_hash": spec_hash(spec),
        "optimizers": rows,
    }
    if spec.out_dir is not None:
        out = Path(spec.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, records in trajectories.items():
            if spec.file_format == "csv":
                write_csv(out / f"{name}.csv", CSV_HEADER, map(astuple, records))
            else:
                # NaN diag1 (not reported) and a norm that overflowed become null
                finite = [
                    {k: x if np.isfinite(x) else None for k, x in asdict(r).items()}
                    for r in records
                ]
                write_json(out / f"{name}.json", finite)
        write_json(out / "summary.json", summary)
    return ExperimentResult(trajectories=trajectories, summary=summary)


# --- config file parsing -----------------------------------------------------


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(raw)


_PARSERS = {"int": int, "float": float, "str": str, "str | None": str, "bool": _parse_bool}


def _keys(cls, prefix: str = "") -> dict:
    """Config key -> (owning dataclass, field, parser) for the scalar fields of ``cls``."""
    return {
        prefix + f.name: (cls, f.name, _PARSERS[f.type]) for f in fields(cls) if f.type in _PARSERS
    }


_EXPERIMENT_KEYS = _keys(ExperimentSpec)
_EXPERIMENT_KEYS["format"] = _EXPERIMENT_KEYS.pop("file_format")
_PROBLEM_KEYS = _keys(ProblemSpec)
_OPTIMIZER_KEYS = {
    **_keys(OptimizerConfig),
    **_keys(GradNormConfig, "gradnorm_"),
    **_keys(WhiteningConfig, "whiten_"),
    **_keys(OptimizerDescriptor),
}
del _OPTIMIZER_KEYS["name"]  # the section title names the optimizer


def _read_section(parser, section: str, keys: dict) -> dict:
    """The section's values as field -> value, grouped by owning dataclass."""
    groups: dict = {cls: {} for cls, _, _ in keys.values()}
    for key, raw in parser.items(section):
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        cls, name, parse = keys[key]
        try:
            groups[cls][name] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} in [{section}]: {raw!r}") from exc
    return groups


def parse_config(path) -> ExperimentSpec:
    """Parse an INI experiment config into an :class:`ExperimentSpec`.

    Sections: ``[experiment]``, ``[problem]``, and one ``[optimizer:NAME]``
    per optimizer. Each key is the name of a field of a config dataclass:
    ``[experiment]`` sets :class:`ExperimentSpec` (``format`` sets
    ``file_format``), ``[problem]`` sets :class:`ProblemSpec`, and an
    optimizer section sets :class:`OptimizerConfig` and
    :class:`OptimizerDescriptor`, plus :class:`GradNormConfig` under the
    prefix ``gradnorm_`` and :class:`WhiteningConfig` under ``whiten_``. A
    field the file does not set keeps its dataclass default. ``[problem]``
    and every optimizer section must set ``kind``. Unknown sections or keys
    are rejected by name.
    """
    import configparser

    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    exp_kwargs: dict = {}
    prob_kwargs: dict = {}
    opt_descs: list[OptimizerDescriptor] = []
    for section in parser.sections():
        if section == "experiment":
            exp_kwargs = _read_section(parser, section, _EXPERIMENT_KEYS)[ExperimentSpec]
        elif section == "problem":
            prob_kwargs = _read_section(parser, section, _PROBLEM_KEYS)[ProblemSpec]
        elif section.startswith("optimizer:"):
            vals = _read_section(parser, section, _OPTIMIZER_KEYS)
            if "kind" not in vals[OptimizerConfig]:
                raise ConfigError(f"section [{section}] is missing 'kind'")
            try:
                gn = GradNormConfig(**vals[GradNormConfig])
                wh = WhiteningConfig(**vals[WhiteningConfig])
                cfg = OptimizerConfig(grad_norm_cfg=gn, whitening_cfg=wh, **vals[OptimizerConfig])
                name = section.split(":", 1)[1]
                opt_descs.append(OptimizerDescriptor(name, cfg, **vals[OptimizerDescriptor]))
            except ValueError as exc:
                raise ConfigError(f"[{section}]: {exc}") from exc
        else:
            raise ConfigError(f"unknown section [{section}]")
    if "kind" not in prob_kwargs:
        raise ConfigError("config needs a [problem] section with 'kind'")
    problem = ProblemSpec(**prob_kwargs)
    return ExperimentSpec(problem=problem, optimizers=tuple(opt_descs), **exp_kwargs)
