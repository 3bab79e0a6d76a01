"""Acceptance gate: every registered criterion at its declared tolerance.

One test per criterion; each prints its PASS/FAIL line.  Heavy artifacts
(the 1e7 reference orbit, the 2048-grid sweep) are shared through the
session-scoped suite.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import numpy as np
import pytest

from toruslab.experiments import AcceptanceSuite
from toruslab.markov import weighted_merge
from toruslab.weakstar import DiscreteMeasure


@pytest.fixture(scope="module")
def suite():
    return AcceptanceSuite()


def _check(result):
    print()
    print(result.line())
    assert result.passed, result.details


def test_criterion_01_lyapunov_exactness(suite):
    _check(suite.criterion_1())


def test_criterion_02_metric_axioms(suite):
    _check(suite.criterion_2())


def test_criterion_03_invariance_defect(suite):
    _check(suite.criterion_3())


def test_criterion_04_lebesgue_rate_zero(suite):
    _check(suite.criterion_4())


def test_criterion_05_dirac_rate(suite):
    _check(suite.criterion_5())


def test_criterion_06_entropy_pipeline(suite):
    _check(suite.criterion_6())


def test_criterion_07_cylinder_count_bound(suite):
    _check(suite.criterion_7())


def test_criterion_08_entropy_integral_guard(suite):
    _check(suite.criterion_8())


def test_criterion_09_mixture_affinity(suite):
    _check(suite.criterion_9())


def test_criterion_10_perturbed_robustness(suite):
    _check(suite.criterion_10())


def test_criterion_09_merge_reports_rounding(suite):
    """Criterion 9's half/half merge: halving the reference orbit's depth-12
    counts rounds every odd count by 1/2 (half to even); the Dirac count is
    rescaled to half the orbit's even start count exactly."""
    leb = suite.leb_tables()[12]
    dirac = suite.cylinder_table(DiscreteMeasure.dirac((0.0, 0.0)), 12)
    merged = weighted_merge([leb, dirac], [0.5, 0.5])
    odd = int(np.count_nonzero(leb.counts % 2))
    assert leb.total % 2 == 0
    assert merged.rounded_mass == 0.5 * odd
    assert odd > 0
    assert abs(merged.total - leb.total) <= merged.rounded_mass


def _dirac_record(slopes):
    """A run record whose basin stage holds only the given {eps: slope}
    rates.  Every slope here lies below -3 stderr - 0.01 at the measured
    stderr (0.015 at eps=0.2, 0.025 at eps=0.1), so the runner's verdict
    is a negative rate."""
    rates = [{"epsilon": eps, "slope": slope}
             for eps, slope in slopes.items()]
    return {"stages": {"basin": {"rates": rates,
                                 "verdict": "negative_rate"}}}


@pytest.mark.parametrize("slopes, failed", [
    ({0.2: -0.2117, 0.1: -0.6363}, []),
    ({0.2: -0.2117, 0.1: -0.9624}, ["slope band", "rate residual"]),
    ({0.2: -0.2117, 0.1: -0.40}, ["slope band", "rate residual"]),
    ({0.2: -0.2117}, ["all epsilons estimated"]),
])
def test_criterion_05_gate_on_synthetic_sweeps(slopes, failed):
    """The eps=0.1 gate accepts the measured slope and rejects both the
    eps -> 0 limit -log(lambda) and a slope too shallow for rho(0.1)."""
    suite = AcceptanceSuite()
    suite._dirac_record = _dirac_record(slopes)
    result = suite.criterion_5()
    assert result.passed == (not failed), result.details
    for label in failed:
        assert f"{label} FAILED" in result.details


def test_stage_error_fails_criterion():
    """A stage that recorded an error fails the criterion with its message."""
    suite = AcceptanceSuite()
    suite._dirac_record = {"stages": {
        "verify_map": {"passed": True},
        "basin": {"error": "InsufficientData: only 2 uncensored rows"}}}
    result = suite.criterion_5()
    assert not result.passed
    assert "basin: InsufficientData: only 2 uncensored rows" in result.details
