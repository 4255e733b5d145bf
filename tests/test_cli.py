import json

import numpy as np
import pytest

from swanopt import cli
from swanopt.cli import main
from swanopt.harness import read_curve_csv


def run(args):
    return main(args)


def _reject(constant):
    raise ValueError(f"{constant} is not valid JSON")


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["theory", "--bogus-flag"]) == 1

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[problem]\nkind = quadratic\n[optimizer:a]\nkind = sgd\nmomentum = 1\n")
        assert run(["--out-dir", str(tmp_path), "run", str(cfg)]) == 1
        assert "momentum" in capsys.readouterr().err

    def test_removed_subtract_mean_key_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "[problem]\nkind = quadratic\nm = 4\nn = 4\n"
            "[optimizer:a]\nkind = swan\ngradnorm_subtract_mean = no\n"
        )
        assert run(["--out-dir", str(tmp_path / "out"), "run", str(cfg)]) == 1
        assert "unknown key 'gradnorm_subtract_mean'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_whitening_value_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "[problem]\nkind = quadratic\nm = 4\nn = 4\n"
            "[optimizer:a]\nkind = swan\nwhiten_iterations = 0\n"
        )
        assert run(["--out-dir", str(tmp_path), "run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "config error: [optimizer:a]: iterations must be >= 1, got 0" in err

    @pytest.mark.parametrize(
        "section, values",
        [
            ("optimizer:a", {"learning_rate": "nan"}),
            ("optimizer:a", {"learning_rate": "inf"}),
            ("optimizer:a", {"gradnorm_epsilon": "nan"}),
            ("optimizer:a", {"adam_epsilon": "nan"}),
            ("optimizer:a", {"warmup_fraction": "nan"}),
            ("optimizer:a", {"warmup_fraction": "1.0"}),
            ("experiment", {"threshold": "nan"}),
            ("experiment", {"seed": "-1"}),
            ("problem", {"kappa": "0.5"}),
            ("problem", {"m": "0"}),
            ("problem", {"seed": "-1"}),
            ("problem", {"init_scale": "nan"}),
            ("problem", {"kind": "rastrigin", "amplitude": "-1"}),
        ],
        ids=lambda v: v if isinstance(v, str) else ",".join(f"{k}={x}" for k, x in v.items()),
    )
    def test_bad_config_value_fails_before_anything_runs(self, tmp_path, capsys, section, values):
        sections = {
            "experiment": {"steps": "3"},
            "problem": {"kind": "quadratic", "m": "4", "n": "4"},
            "optimizer:a": {"kind": "swan", "learning_rate": "0.01"},
        }
        sections[section].update(values)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "".join(
                f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                for name, body in sections.items()
            )
        )
        out = tmp_path / "out"
        assert run(["--out-dir", str(out), "run", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not list(out.glob("*"))  # no optimizer ran

    @pytest.mark.parametrize(
        "argv",
        [
            ["rastrigin", "--grid-points", "1"],
            ["mlp-kl", "--snapshot-every", "0"],
            ["mlp-kl", "--snapshot-every", "20", "--steps", "10"],
            ["ns-bench", "--kappas", "2,x"],
            ["ns-bench", "--kappas", "2,0.5"],
            ["--seed", "-1", "theory"],
            ["ns-bench", "--k", "0"],
            ["ns-bench", "--seeds", "0"],
            ["mlp-kl", "--n-batches", "1"],
            ["mlp-kl", "--block", "9"],
            ["stb", "--dt", "0"],
            ["ns-bench", "--beta", "0"],
            ["ns-bench", "--m", "0"],
            ["ns-bench", "--m", "40", "--n", "32"],
            ["mlp-kl", "--lr", "nan"],
            ["stb", "--width", "0"],
            ["stb", "--steps", "0"],
            ["stb", "--dt", "nan"],
            ["mlp-kl", "--block", "-1"],
        ],
        ids=" ".join,
    )
    def test_bad_argument_is_a_config_error(self, tmp_path, capsys, argv):
        assert run(["--out-dir", str(tmp_path / "out"), *argv]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ("quadratic", "rastrigin"))
    def test_bad_record_every_fails_before_tuning(self, tmp_path, capsys, monkeypatch, command):
        calls = []
        real = cli.run_experiment

        def counting(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(cli, "run_experiment", counting)
        argv = ["--out-dir", str(tmp_path / "out"), command, "--record-every", "0"]
        assert run(argv) == 1
        assert "config error: record_every must be >= 1" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_mlp_kl_divergence_is_reported_by_the_step(self, tmp_path, capsys):
        # overflow in the MLP's forward and backward passes raises no
        # RuntimeWarning; the SGD step rejects the non-finite gradient
        argv = ["--out-dir", str(tmp_path), "mlp-kl", "--lr", "1e3", "--steps", "200"]
        assert run(argv) == 1
        assert "config error: g contains non-finite entries" in capsys.readouterr().err

    def test_short_row_in_a_curve_is_a_config_error(self, tmp_path, capsys):
        ok, bad = tmp_path / "ok.csv", tmp_path / "bad.csv"
        ok.write_text("step,loss\n0,3.0\n10,2.0\n")
        bad.write_text("step,loss\n0,3.0\n10\n")
        assert run(["--out-dir", str(tmp_path / "out"), "speedup", str(ok), str(bad)]) == 1
        assert f"config error: {bad} line 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runtime_failure(self, tmp_path):
        assert run(["--out-dir", str(tmp_path), "speedup", "/no/such.csv", "/none.csv"]) == 2


class TestSubcommands:
    def test_theory_writes_reports(self, tmp_path, capsys):
        assert run(["--out-dir", str(tmp_path), "--seed", "1", "theory"]) == 0
        text = (tmp_path / "theory_reports.csv").read_text()
        assert text.startswith("check,context,predicted,measured")
        out = capsys.readouterr().out
        assert "stiefel one-step" in out

    def test_ns_bench_error_column(self, tmp_path):
        assert (
            run(
                [
                    "--out-dir",
                    str(tmp_path),
                    "ns-bench",
                    "--beta",
                    "0.5",
                    "--k",
                    "40",
                    "--seeds",
                    "5",
                ]
            )
            == 0
        )
        lines = (tmp_path / "ns_bench.csv").read_text().splitlines()
        assert lines[0] == "beta,k,kappa,max_whitening_error"
        errors = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(e <= 1e-6 for e in errors)

    def test_ns_bench_on_the_gram_spectrum(self, tmp_path):
        # m = 128 runs Newton-Schulz on the Gram spectrum
        argv = ["--out-dir", str(tmp_path), "ns-bench", "--m", "128", "--n", "256", "--k", "40",
                "--beta", "0.5", "--update-order", "paired", "--seeds", "2"]
        assert run(argv) == 0
        lines = (tmp_path / "ns_bench.csv").read_text().splitlines()
        errors = [float(line.split(",")[-1]) for line in lines[1:]]
        assert len(errors) == 3 and all(e <= 1e-6 for e in errors)  # one row per kappa

    def test_run_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "[experiment]\nsteps = 10\nrecord_every = 2\n"
            "[problem]\nkind = quadratic\nm = 5\nn = 5\nkappa = 10\n"
            "[optimizer:gd]\nkind = gd_optimal\n"
        )
        assert run(["--out-dir", str(tmp_path / "out"), "run", str(cfg)]) == 0
        steps, losses = read_curve_csv(tmp_path / "out" / "gd.csv")
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize(
        "argv, aborted_at, final_step, divergence",
        [
            (
                ["--context-len", "4", "--width", "5", "--steps", "2000"],
                466,
                465,
                2.4989879964593914e-34,
            ),
            ([], 322, 321, 0.0),
            (["--steps", "300"], None, 300, 0.6945432085030405),
        ],
        ids=("small", "default", "steps-300"),
    )
    def test_stb_summary(self, tmp_path, argv, aborted_at, final_step, divergence):
        assert run(["--quiet", "--out-dir", str(tmp_path), "stb", *argv]) == 0
        summary = json.loads((tmp_path / "stb_summary.json").read_text())
        assert summary["aborted_at"] == aborted_at
        assert summary["final_step"] == final_step
        assert summary["block_divergence"] == pytest.approx(divergence, rel=1e-12, abs=0.0)

    def test_quadratic_and_speedup_pipeline(self, tmp_path):
        out = tmp_path / "quad"
        assert (
            run(
                [
                    "--out-dir",
                    str(out),
                    "--quiet",
                    "quadratic",
                    "--m",
                    "10",
                    "--n",
                    "10",
                    "--kappa",
                    "100",
                    "--steps",
                    "80",
                    "--record-every",
                    "1",
                ]
            )
            == 0
        )
        for name in ("gd_optimal", "adam", "newton", "whitened", "whitened_ortho"):
            assert (out / f"{name}.csv").exists()
        # whitened variants beat plain GD on final excess loss
        summary = json.loads((out / "summary.json").read_text())
        rows = summary["optimizers"]
        assert rows["whitened"]["final_loss_minus_opt"] < rows["gd_optimal"]["final_loss_minus_opt"]
        assert rows["whitened_ortho"]["final_loss_minus_opt"] <= rows["whitened"]["final_loss_minus_opt"]

        rc = run(
            [
                "--out-dir",
                str(tmp_path / "speed"),
                "speedup",
                str(out / "gd_optimal.csv"),
                str(out / "whitened.csv"),
            ]
        )
        assert rc == 0
        table = (tmp_path / "speed" / "speedup.csv").read_text().splitlines()
        assert table[0].startswith("threshold,")

    def test_mlp_kl_trace(self, tmp_path):
        assert (
            run(
                [
                    "--out-dir",
                    str(tmp_path),
                    "mlp-kl",
                    "--steps",
                    "100",
                    "--snapshot-every",
                    "50",
                    "--n-batches",
                    "4",
                ]
            )
            == 0
        )
        lines = (tmp_path / "kl_trace.csv").read_text().splitlines()
        assert lines[0] == "step,kl_raw,kl_gradnorm"
        assert len(lines) == 3

    def test_rastrigin_flags_a_failing_optimizer_and_finishes(self, tmp_path):
        # exact whitening rejects SWAN's square GradNorm'd gradient (rank <= m - 1);
        # that optimizer is flagged and the comparison still completes
        args = ["--out-dir", str(tmp_path), "--quiet", "rastrigin"]
        assert run(args + ["--m", "8", "--steps", "40", "--grid-points", "3"]) == 0
        text = (tmp_path / "summary.json").read_text()
        rows = json.loads(text, parse_constant=_reject)["optimizers"]
        assert rows["swan"]["diverged"] and rows["swan"]["diverged_at"] == 1
        assert rows["swan"]["diverged_cause"].startswith("rank-deficient input")
        assert rows["swan"]["final_loss"] is None and rows["swan"]["final_loss_minus_opt"] is None
        for name in ("sgd", "adam", "whitened", "whitened_ortho"):
            assert not rows[name]["diverged"] and rows[name]["diverged_cause"] is None
            assert np.isfinite(rows[name]["final_loss"])
