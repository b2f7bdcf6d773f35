import numpy as np
import pytest

from sbpd.checks import (
    SUITES,
    CheckResult,
    adjoint_consistency_failures,
    run_check_suite,
)
from sbpd import checks, solver
from sbpd.linalg import LinearMap


@pytest.mark.parametrize("level,references", [("fast", 3), ("full", 5)])
def test_estimate_inequality_suite_builds_one_evaluator_per_reference(
        monkeypatch, level, references):
    init = solver.ReferenceEvaluator.__init__
    builds = []

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(solver.ReferenceEvaluator, "__init__", counting_init)
    samples, failures = SUITES["estimate-inequality"](level)
    assert (samples, failures) == ({"fast": 30, "full": 500}[level], 0)
    assert len(builds) <= references


def test_fast_battery_passes():
    report = run_check_suite("fast")
    assert report.passed
    names = [r.name for r in report.results]
    assert names == list(SUITES)
    assert all(r.samples > 0 for r in report.results)
    # the individually reported suites the battery must contain
    for required in ("pinsker-inequality", "three-point-identity",
                     "primal-descent-lemma", "estimate-inequality",
                     "semidual-lipschitz-ratio", "adjoint-consistency",
                     "oracle-unbiasedness", "oracle-bias-control"):
        assert required in names
    lines = report.lines()
    assert lines[-1].startswith("all checks passed")


# each suite's sample count at fast and at full level
SAMPLES = {
    "adjoint-consistency": (150, 600),
    "operator-linearity": (60, 240),
    "operator-norm-bounds": (5, 5),
    "divergence-nonnegativity": (800, 4000),
    "entropy-gradient": (300, 1500),
    "prox-grid-optimality": (12, 55),
    "pinsker-inequality": (1000, 10_000),
    "three-point-identity": (400, 2000),
    "primal-descent-lemma": (400, 2000),
    "dual-descent-lemma": (100, 500),
    "semidual-lipschitz-ratio": (600, 6000),
    "estimate-inequality": (30, 500),
    "cross-term-positivity": (100, 500),
    "oracle-unbiasedness": (1, 1),
    "oracle-bias-control": (1, 1),
    "oracle-boundedness": (200, 1000),
    "batch-frequency": (10, 10),
    "ergodic-consistency": (300, 2000),
    "simplex-preservation": (100, 300),
}


def test_samples_pin_every_suite():
    assert list(SAMPLES) == list(SUITES)


@pytest.mark.parametrize("name", SUITES)
def test_suite_passes_at_full_volume(name):
    result = CheckResult(name, *SUITES[name]("full"))
    assert result.passed, result.line()
    assert result.samples == SAMPLES[name][1]


# the full level is pinned suite by suite above, on the one full-volume run
@pytest.mark.parametrize("level", ["fast"])
def test_every_suite_sample_count_is_pinned(level):
    counts = {r.name: r.samples for r in run_check_suite(level).results}
    assert counts == {name: fast for name, (fast, _) in SAMPLES.items()}


def test_report_lines_flag_failures():
    result = CheckResult("made-up", 10, 3)
    assert not result.passed
    assert result.line().startswith("FAIL")


class _SignFlippedAdjoint(LinearMap):
    def adjoint_apply(self, y):
        return -super().adjoint_apply(y)


def test_sign_flipped_adjoint_is_caught():
    rng = np.random.default_rng(0)
    good = LinearMap(rng.standard_normal((6, 4)))
    bad = _SignFlippedAdjoint(rng.standard_normal((6, 4)))
    assert adjoint_consistency_failures(good, pairs=50) == 0
    assert adjoint_consistency_failures(bad, pairs=50) > 0


class _GemmStack(LinearMap):
    # a stack through one gemm: right in exact arithmetic, not bitwise the
    # rows' own products
    def apply(self, x):
        x = np.asarray(x, dtype=np.float64)
        return super().apply(x) if x.ndim == 1 else x @ self.matrix.T

    def adjoint_apply(self, y):
        y = np.asarray(y, dtype=np.float64)
        return super().adjoint_apply(y) if y.ndim == 1 else y @ self.matrix


@pytest.mark.parametrize("name", ["adjoint-consistency", "operator-linearity"])
def test_operator_suites_catch_a_gemm_stack(monkeypatch, name):
    zoo = checks._operator_zoo
    monkeypatch.setattr(checks, "_operator_zoo", lambda rng: [
        (label, _GemmStack(op.matrix)) for label, op in zoo(rng)])
    samples, failures = SUITES[name]("full")
    assert failures > 0
    assert samples == {"adjoint-consistency": 600, "operator-linearity": 240}[name]


def test_unknown_level_rejected():
    with pytest.raises(ValueError, match="fast"):
        run_check_suite("medium")
