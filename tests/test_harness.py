import json
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from swanopt.gradient_ops import GradNormConfig, WhiteningConfig
from swanopt.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentSpec,
    OptimizerDescriptor,
    ProblemSpec,
    parse_config,
    read_curve_csv,
    run_experiment,
    spec_hash,
    write_csv,
)
from swanopt.optimizers import KINDS, OptimizerConfig
from swanopt.problems import QuadraticProblem


def quadratic_spec(**kwargs):
    defaults = dict(
        problem=ProblemSpec(kind="quadratic", seed=3, m=10, n=10, kappa=100.0),
        optimizers=(
            OptimizerDescriptor("gd", OptimizerConfig(kind="gd_optimal")),
            OptimizerDescriptor("adam", OptimizerConfig(kind="adam", learning_rate=0.1)),
        ),
        steps=50,
        record_every=5,
        seed=1,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestSpecValidation:
    def test_duplicate_names(self):
        with pytest.raises(ConfigError, match="unique"):
            quadratic_spec(
                optimizers=(
                    OptimizerDescriptor("x", OptimizerConfig(kind="sgd")),
                    OptimizerDescriptor("x", OptimizerConfig(kind="adam")),
                )
            )

    def test_bad_steps(self):
        with pytest.raises(ConfigError, match="steps"):
            quadratic_spec(steps=0)

    def test_bad_problem_kind(self):
        with pytest.raises(ConfigError, match="problem.kind"):
            ProblemSpec(kind="rosenbrock")

    def test_curvature_kind_needs_quadratic(self):
        spec = quadratic_spec(
            problem=ProblemSpec(kind="rastrigin", m=6),
            optimizers=(OptimizerDescriptor("n", OptimizerConfig(kind="newton")),),
        )
        with pytest.raises(ConfigError, match="quadratic"):
            run_experiment(spec)


class TestRunExperiment:
    def test_kappa_one_converges_in_one_step(self):
        spec = quadratic_spec(
            problem=ProblemSpec(kind="quadratic", seed=0, m=8, n=8, kappa=1.0),
            optimizers=(OptimizerDescriptor("gd", OptimizerConfig(kind="gd_optimal")),),
            steps=5,
            record_every=1,
        )
        result = run_experiment(spec)
        assert result.summary["optimizers"]["gd"]["steps_to_threshold"] == 1

    def test_byte_identical_reruns(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_experiment(quadratic_spec(out_dir=str(out_a)))
        run_experiment(quadratic_spec(out_dir=str(out_b)))
        for name in ("gd.csv", "adam.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_csv_contract(self, tmp_path):
        run_experiment(quadratic_spec(out_dir=str(tmp_path)))
        lines = (tmp_path / "gd.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        first = lines[1].split(",")
        assert len(first) == 7
        assert first[0] == "5"
        # floats are printed at 17 significant digits and round-trip exactly
        steps, losses = read_curve_csv(tmp_path / "gd.csv")
        assert steps[0] == 5.0 and np.isfinite(losses).all()

    def test_write_csv_cells(self, tmp_path):
        write_csv(tmp_path / "t.csv", "a,b,c,d", [(3, 0.1, None, "x=1"), (True, 1e300, 2.0, "")])
        assert (tmp_path / "t.csv").read_text() == (
            "a,b,c,d\n3,0.10000000000000001,,x=1\nTrue,1.0000000000000001e+300,2,\n"
        )

    def test_divergence_flagged_without_crash(self):
        spec = quadratic_spec(
            optimizers=(
                OptimizerDescriptor("bad", OptimizerConfig(kind="sgd", learning_rate=1e3)),
                OptimizerDescriptor("gd", OptimizerConfig(kind="gd_optimal")),
            ),
            steps=200,
        )
        result = run_experiment(spec)
        assert result.summary["optimizers"]["bad"]["diverged"]
        assert result.summary["optimizers"]["bad"]["diverged_at"] is not None
        assert not result.summary["optimizers"]["gd"]["diverged"]

    def test_divergence_causes(self):
        exact = WhiteningConfig(mode="exact_eig")
        spec = quadratic_spec(
            optimizers=(
                OptimizerDescriptor("bad", OptimizerConfig(kind="sgd", learning_rate=1e3)),
                # a square GradNorm'd gradient has rank <= m - 1; exact whitening rejects it
                OptimizerDescriptor("swan", OptimizerConfig(kind="swan", whitening_cfg=exact)),
                OptimizerDescriptor("gd", OptimizerConfig(kind="gd_optimal")),
            ),
            steps=200,
        )
        result = run_experiment(spec)
        rows = result.summary["optimizers"]
        assert rows["bad"]["diverged"] and rows["bad"]["diverged_cause"] == "non-finite loss"
        assert rows["swan"]["diverged"] and rows["swan"]["diverged_at"] == 1
        assert rows["swan"]["diverged_cause"].startswith("rank-deficient input")
        assert result.trajectories["swan"] == []
        assert not rows["gd"]["diverged"] and rows["gd"]["diverged_cause"] is None
        assert result.trajectories["gd"][-1].step == spec.steps

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rastrigin_divergence_is_a_non_finite_loss(self):
        bad = OptimizerDescriptor("bad", OptimizerConfig(kind="sgd", learning_rate=1e3))
        spec = ExperimentSpec(problem=ProblemSpec(kind="rastrigin", m=6, seed=1), optimizers=(bad,))
        row = run_experiment(spec).summary["optimizers"]["bad"]
        assert row["diverged"] and row["diverged_cause"] == "non-finite loss"
        assert 1 < row["diverged_at"] < spec.steps

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_non_finite_start_gradient_fails_the_first_step(self):
        # W0 is finite, but 2 pi W0 overflows: neither the loss nor the gradient
        # at the start is finite, and the first step rejects that gradient
        sgd = OptimizerDescriptor("sgd", OptimizerConfig(kind="sgd"))
        problem = ProblemSpec(kind="rastrigin", m=3, init_scale=1e308)
        row = run_experiment(ExperimentSpec(problem=problem, optimizers=(sgd,))).summary
        row = row["optimizers"]["sgd"]
        assert row["diverged_at"] == 1 and row["diverged_cause"] == "g contains non-finite entries"

    @pytest.mark.parametrize("kind", ("newton", "sgd"))
    @pytest.mark.parametrize("action", ("error", "always"))
    def test_a_step_that_overflows_ends_as_a_non_finite_loss(self, kind, action):
        # rate 1e308 overflows the step itself; no warning escapes, under either filter
        desc = OptimizerDescriptor(kind, OptimizerConfig(kind=kind, learning_rate=1e308))
        problem = ProblemSpec(kind="quadratic", seed=0, m=6, n=6, kappa=10.0)
        spec = ExperimentSpec(problem=problem, optimizers=(desc,), steps=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            row = run_experiment(spec).summary["optimizers"][kind]
        assert caught == []
        assert row["diverged_at"] == 1 and row["diverged_cause"] == "non-finite loss"

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_loss_and_grad_per_step(self, kind, monkeypatch):
        # W0 goes through the checked loss_and_grad, every later iterate through the body alone
        checked, bodies = [], []
        loss_and_grad, body = QuadraticProblem.loss_and_grad, QuadraticProblem._loss_and_grad

        def counting(calls, fn):
            return lambda self, w: calls.append(w) or fn(self, w)

        def forbidden(self, w):
            raise AssertionError("the harness evaluates the problem through loss_and_grad")

        monkeypatch.setattr(QuadraticProblem, "loss_and_grad", counting(checked, loss_and_grad))
        monkeypatch.setattr(QuadraticProblem, "_loss_and_grad", counting(bodies, body))
        monkeypatch.setattr(QuadraticProblem, "loss", forbidden)
        monkeypatch.setattr(QuadraticProblem, "grad", forbidden)
        desc = OptimizerDescriptor("x", OptimizerConfig(kind=kind))
        spec = quadratic_spec(optimizers=(desc, replace(desc, name="y")), steps=20)
        result = run_experiment(spec)
        assert not result.summary["optimizers"]["x"]["diverged"]
        assert not result.summary["optimizers"]["y"]["diverged"]
        assert len(checked) == 2
        assert len(bodies) == 2 * (spec.steps + 1)

    def test_newton_records_are_exactly_zero(self):
        # swanopt quadratic's defaults: C = 0, so Newton at rate 1 lands on W* = 0
        newton = OptimizerDescriptor("newton", OptimizerConfig(kind="newton", learning_rate=1.0))
        spec = ExperimentSpec(
            problem=ProblemSpec(kind="quadratic", seed=0, m=50, n=50, kappa=1e4),
            optimizers=(newton,),
            steps=500,
            record_every=10,
        )
        records = run_experiment(spec).trajectories["newton"]
        assert len(records) == 50
        for r in records:
            assert (r.loss, r.loss_minus_opt, r.grad_fro, r.update_fro) == (0.0, 0.0, 0.0, 0.0)

    def test_shared_initialization(self):
        spec = quadratic_spec(record_every=1, steps=1)
        result = run_experiment(spec)
        # both optimizers see the same w0, so the first gradient norm matches
        g_gd = result.trajectories["gd"][0].grad_fro
        g_adam = result.trajectories["adam"][0].grad_fro
        assert g_gd == g_adam

    def test_whitened_diag_reports_prediction(self):
        spec = quadratic_spec(
            optimizers=(
                OptimizerDescriptor("w", OptimizerConfig(kind="whitened_gd_optimal")),
            ),
            steps=3,
            record_every=1,
        )
        rec = run_experiment(spec).trajectories["w"][0]
        assert np.isfinite(rec.diag1) and 0.0 <= rec.diag1 < 1.0

    def test_json_format(self, tmp_path):
        run_experiment(quadratic_spec(out_dir=str(tmp_path), file_format="json"))
        rows = json.loads((tmp_path / "gd.json").read_text())
        assert rows[0]["step"] == 5 and "loss" in rows[0]

    # the update norm of the last finite-loss step overflows, as it should,
    # and the run records it without a RuntimeWarning
    def test_json_format_writes_an_overflowing_norm_as_null(self, tmp_path):
        # H = I and lr 3 double W each step: ||update||^2 = 4.5 loss, so the
        # last record with a finite loss has an infinite update norm
        sgd = OptimizerDescriptor("sgd", OptimizerConfig(kind="sgd", learning_rate=3.0))
        spec = ExperimentSpec(
            problem=ProblemSpec(kind="quadratic", seed=0, m=4, n=4, kappa=1.0),
            optimizers=(sgd,),
            steps=1000,
            record_every=1,
            out_dir=str(tmp_path),
            file_format="json",
        )
        result = run_experiment(spec)
        last = result.trajectories["sgd"][-1]
        assert np.isfinite(last.loss) and last.update_fro == np.inf
        rows = json.loads((tmp_path / "sgd.json").read_text())
        assert rows[-1]["step"] == last.step and rows[-1]["update_fro"] is None
        assert rows[-1]["diag1"] is None and rows[-1]["loss"] == last.loss
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["optimizers"]["sgd"]["diverged_at"] == last.step + 1

    def test_summary_contents(self, tmp_path):
        run_experiment(quadratic_spec(out_dir=str(tmp_path)))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["seed"] == 1
        assert len(summary["config_hash"]) == 16
        assert set(summary["optimizers"]) == {"gd", "adam"}

    def test_config_hash_is_pinned(self):
        # every scientific field of a fixed spec, nested configs included, feeds
        # the hash; its value is pinned so that old run directories stay comparable
        # (it moved once, from 8de6a01f00102027, when GradNormConfig lost subtract_mean)
        swan = OptimizerConfig(
            kind="swan",
            learning_rate=0.02,
            grad_norm_cfg=GradNormConfig(epsilon=1e-6),
            whitening_cfg=WhiteningConfig(mode="exact_eig"),
        )
        optimizers = (
            OptimizerDescriptor("a", swan, schedule="linear_decay", warmup_fraction=0.1),
            OptimizerDescriptor("b", OptimizerConfig(kind="adam", adam_beta2=0.99), True),
        )
        problem = ProblemSpec("quadratic", seed=4, m=11, n=6, kappa=50.0, c_scale=0.7)
        spec = ExperimentSpec(problem, optimizers, 77, 3, 5, 1e-3, "x", "json")
        assert spec_hash(spec) == "69ecbbc70d24a067"
        assert spec_hash(ExperimentSpec(problem, optimizers, 77, 3, 5, 1e-3)) == spec_hash(spec)
        assert spec_hash(ExperimentSpec(problem, optimizers, 77, 3, 6, 1e-3)) != spec_hash(spec)


GOOD_CONFIG = """
[experiment]
steps = 20
record_every = 4
seed = 2
threshold = 1e-6

[problem]
kind = quadratic
m = 6
n = 9
kappa = 50
seed = 5

[optimizer:gd]
kind = gd_optimal

[optimizer:swan]
kind = swan
learning_rate = 0.05
whiten_mode = exact_eig
swan_rescale = true

[optimizer:decayed_sgd]
kind = sgd
learning_rate = 0.01
schedule = linear_decay
warmup_fraction = 0.1
"""


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG)
        spec = parse_config(path)
        assert spec.steps == 20
        assert spec.problem.kappa == 50.0
        assert [d.name for d in spec.optimizers] == ["gd", "swan", "decayed_sgd"]
        assert spec.optimizers[1].config.whitening_cfg.mode == "exact_eig"
        assert spec.optimizers[2].schedule == "linear_decay"
        result = run_experiment(spec)
        assert set(result.trajectories) == {"gd", "swan", "decayed_sgd"}

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG + "\n[optimizer:x]\nkind = sgd\nmomentum = 0.9\n")
        with pytest.raises(ConfigError, match="momentum"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG + "\n[scheduler]\nkind = cosine\n")
        with pytest.raises(ConfigError, match="scheduler"):
            parse_config(path)

    def test_bad_value_reported(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG.replace("steps = 20", "steps = twenty"))
        with pytest.raises(ConfigError, match="steps"):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/exp.cfg")

    def test_missing_kind(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("[problem]\nm = 4\n[optimizer:a]\nkind = sgd\n")
        with pytest.raises(ConfigError, match="kind"):
            parse_config(path)

    def test_every_scalar_field_round_trips(self, tmp_path):
        # every value differs from its dataclass default
        path = tmp_path / "all.cfg"
        path.write_text(
            "[experiment]\nsteps = 7\nrecord_every = 2\nseed = 3\nthreshold = 0.001\n"
            "out_dir = some/dir\nformat = json\n"
            "[problem]\nkind = rastrigin\nseed = 4\nm = 6\nn = 7\nkappa = 20\n"
            "c_scale = 0.5\namplitude = 3.0\ninit_scale = 0.25\n"
            "[optimizer:a]\nkind = adam\nlearning_rate = 0.02\nadam_beta1 = 0.8\n"
            "adam_beta2 = 0.99\nadam_epsilon = 1e-6\nswan_rescale = false\n"
            "ablation = norm_only\ngradnorm_epsilon = 1e-6\n"
            "whiten_iterations = 12\nwhiten_step_size = 0.5\nwhiten_mode = exact_eig\n"
            "whiten_update_order = paired\northogonal_init = yes\nschedule = linear_decay\n"
            "warmup_fraction = 0.2\n"
        )
        spec = parse_config(path)
        desc = spec.optimizers[0]
        cfg = desc.config
        expected = [
            (spec, dict(steps=7, record_every=2, seed=3, threshold=1e-3, out_dir="some/dir")),
            (spec, dict(file_format="json")),
            (spec.problem, dict(kind="rastrigin", seed=4, m=6, n=7, kappa=20.0, c_scale=0.5)),
            (spec.problem, dict(amplitude=3.0, init_scale=0.25)),
            (cfg, dict(kind="adam", learning_rate=0.02, adam_beta1=0.8, adam_beta2=0.99)),
            (cfg, dict(adam_epsilon=1e-6, swan_rescale=False, ablation="norm_only")),
            (cfg.grad_norm_cfg, dict(epsilon=1e-6)),
            (cfg.whitening_cfg, dict(iterations=12, step_size=0.5, mode="exact_eig")),
            (cfg.whitening_cfg, dict(update_order="paired")),
            (desc, dict(name="a", orthogonal_init=True, schedule="linear_decay")),
            (desc, dict(warmup_fraction=0.2)),
        ]
        nested = {"problem", "optimizers", "config", "grad_norm_cfg", "whitening_cfg"}
        covered: dict = {}
        for obj, values in expected:
            by_name = {f.name: f for f in fields(obj)}
            for name, value in values.items():
                assert value != by_name[name].default, name
                assert getattr(obj, name) == value and type(getattr(obj, name)) is type(value), name
                covered.setdefault(type(obj), set()).add(name)
        for cls, names in covered.items():
            assert names == {f.name for f in fields(cls)} - nested, cls.__name__

    def test_removed_pre_normalize_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG + "whiten_pre_normalize = true\n")
        with pytest.raises(ConfigError, match="whiten_pre_normalize"):
            parse_config(path)

    def test_removed_subtract_mean_key_rejected(self, tmp_path):
        # GradNorm always centres its rows: the root-mean-square variant is gone
        path = tmp_path / "exp.cfg"
        path.write_text(GOOD_CONFIG + "gradnorm_subtract_mean = no\n")
        with pytest.raises(ConfigError, match="unknown key 'gradnorm_subtract_mean'"):
            parse_config(path)
        with pytest.raises(TypeError, match="subtract_mean"):
            GradNormConfig(subtract_mean=False)
