"""Public-surface guards: entry points validate their inputs, exports resolve."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import swanopt
from swanopt import theory
from swanopt.matrixops import random_matrix
from swanopt.optimizers import (
    OptimizerConfig,
    OptimizerState,
    adam_step,
    gd_optimal_step,
    newton_step,
    sgd_step,
    signed_step,
    swan_step,
    whitened_gd_optimal_step,
)
from swanopt.problems import QuadraticProblem, RastriginProblem

SHAPE = (3, 4)
G = random_matrix(*SHAPE, seed=0)
QUADRATIC = QuadraticProblem(np.diag([1.0, 2.0, 3.0]), np.ones(SHAPE))
RASTRIGIN = RastriginProblem(size=3)

# each entry point as a function of w alone (every other input valid), with
# the shape it expects w to have
ENTRY_POINTS = {
    "swan_step": (lambda w: swan_step(w, G, OptimizerConfig(kind="swan")), SHAPE),
    "adam_step": (lambda w: adam_step(w, G, OptimizerState(), OptimizerConfig(kind="adam")), SHAPE),
    "sgd_step": (lambda w: sgd_step(w, G, OptimizerConfig(kind="sgd")), SHAPE),
    "signed_step": (lambda w: signed_step(w, G, OptimizerConfig(kind="signed_sgd")), SHAPE),
    "gd_optimal_step": (lambda w: gd_optimal_step(w, QUADRATIC), SHAPE),
    "newton_step": (lambda w: newton_step(w, QUADRATIC, 0.5), SHAPE),
    # shifted by the identity so that the constant w the test accepts gives a
    # full-rank gradient, which the polar factor needs
    "whitened_gd_optimal_step": (
        lambda w: whitened_gd_optimal_step(w + np.eye(*np.shape(w)), QUADRATIC),
        SHAPE,
    ),
    "QuadraticProblem.loss": (QUADRATIC.loss, SHAPE),
    "QuadraticProblem.grad": (QUADRATIC.grad, SHAPE),
    "RastriginProblem.loss": (RASTRIGIN.loss, (3, 3)),
    "RastriginProblem.grad": (RASTRIGIN.grad, (3, 3)),
    "predict_whitened_contraction": (
        lambda w: theory.predict_whitened_contraction(QUADRATIC, w),
        SHAPE,
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_checks_w(name):
    call, shape = ENTRY_POINTS[name]
    call(np.full(shape, 0.5))  # the expected shape is accepted
    with pytest.raises(ValueError, match=r"w must be .*shape"):
        call(np.ones((shape[0] + 1, shape[1])))
    bad = np.ones(shape)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        call(bad)


def _modules():
    for info in pkgutil.iter_modules(swanopt.__path__):
        if info.name != "__main__":  # importing it would run the CLI
            yield importlib.import_module(f"swanopt.{info.name}")


@pytest.mark.parametrize("module", list(_modules()), ids=lambda m: m.__name__)
def test_module_exports_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def test_package_exports_resolve():
    tree = ast.parse(Path(swanopt.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"swanopt.{module}")
        assert hasattr(swanopt, name), name
        assert name in source.__all__, f"{name} is not public in swanopt.{module}"


@pytest.mark.parametrize(
    "path", sorted(Path(swanopt.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_module_imports_only_stdlib_and_numpy(path):
    # scipy and pytest-benchmark may be installed, but the library must not need them
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    allowed = set(sys.stdlib_module_names) | {"numpy", "swanopt"}
    assert imported <= allowed, sorted(imported - allowed)
