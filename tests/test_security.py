import dataclasses
import math

import numpy as np
import pytest

from quditbell.algebra import maximally_entangled, psi3
from quditbell.bell import builtin_operator, canonical_basis, violation
from quditbell.security import (
    CLONER_FIDELITY,
    NDEB_VIOLATIONS,
    CriterionUndefinedError,
    NoViolationError,
    channel_fidelity,
    comparison_report,
    comparison_table_text,
    criterion_table,
    criterion_table_text,
    noise_threshold,
    secure_channel_condition,
    security_criterion,
)

from dense_oracle import dense_violation, noisy_density


def test_cloner_fidelities_strictly_decreasing():
    finite = [CLONER_FIDELITY[d] for d in range(3, 10)]
    assert all(x > y for x, y in zip(finite, finite[1:]))
    assert all(0.5 < f < 1 for f in finite)
    assert CLONER_FIDELITY[math.inf] == 0.5


def test_noise_scales_violation_linearly():
    state = psi3()
    t = builtin_operator(3)
    basis = canonical_basis(3)
    v0 = violation(state, t, basis)
    for noise in np.arange(0.0, 1.01, 0.1):
        v = dense_violation(noisy_density(state, noise), t, basis)
        assert abs(v - (1 - noise) * v0) < 1e-9


def test_noise_threshold_values():
    assert abs(noise_threshold(1.505) - 0.336) < 5e-4
    assert abs(noise_threshold(1.436) - 0.304) < 5e-4
    assert noise_threshold(1.0) == 0.0
    with pytest.raises(NoViolationError):
        noise_threshold(0.99)


def test_channel_fidelity():
    assert channel_fidelity(0.0, 5) == 1.0
    assert abs(channel_fidelity(0.336, 3) - (1 - 0.336 * 2 / 3)) < 1e-12
    with pytest.raises(ValueError):
        channel_fidelity(1.5, 3)


def test_secure_channel_condition_values():
    assert abs(secure_channel_condition(1.505, 3) - (2 / (3 * 1.505) + 1 / 3)) < 1e-12
    assert secure_channel_condition(1.0, 3) == 1.0
    with pytest.raises(NoViolationError):
        secure_channel_condition(0.9, 3)


@pytest.mark.parametrize("d", [3, 4, 5, 7])
def test_fidelity_threshold_identity(d):
    """The fidelity at the noise threshold of v equals the secure-channel
    fidelity floor for v — the two formulas are algebraically linked."""
    for v in (1.2, 1.45, 1.574):
        assert abs(
            channel_fidelity(noise_threshold(v), d) - secure_channel_condition(v, d)
        ) < 1e-12


def test_security_criterion_values():
    expected = {3: 1.508, 4: 1.549, 5: 1.575, 6: 1.593, 7: 1.607, 8: 1.618, 9: 1.627}
    for d, ref in expected.items():
        assert abs(security_criterion(d) - ref) < 1e-3
    assert abs(security_criterion(math.inf) - 2.0) < 1e-12


def test_security_criterion_monotone_in_fidelity():
    values = [security_criterion(3, f) for f in (0.70, 0.75, 0.80, 0.90)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_security_criterion_errors():
    with pytest.raises(CriterionUndefinedError):
        security_criterion(3, 1 / 3)
    with pytest.raises(ValueError):
        security_criterion(11)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_comparison_report(d):
    r = comparison_report(d)
    assert r.v_ndeb == NDEB_VIOLATIONS[d]
    assert r.ndeb_secure and r.hddeb_secure
    assert r.v_ndeb < r.v_hddeb < r.v_max_secure
    assert abs(r.noise_threshold_ndeb - (1 - 1 / r.v_ndeb)) < 1e-9
    assert abs(r.noise_threshold_hddeb - (1 - 1 / r.v_hddeb)) < 1e-9
    doc = r.to_dict()
    assert abs(doc["gap"] - (r.v_max_secure - r.v_ndeb)) < 1e-12


@pytest.mark.parametrize("d", [3, 4, 5])
def test_secure_iff_noise_threshold_below_criterions(d):
    """The cloner's noise 1 - 1/criterion scales a working violation v to
    v / criterion, so it is detected iff v < criterion, i.e. iff the noise
    threshold 1 - 1/v lies below that noise, for both protocols."""
    r = comparison_report(d)
    edge = 1 - 1 / security_criterion(d)
    assert r.ndeb_secure == (noise_threshold(r.v_ndeb) < edge)
    assert r.hddeb_secure == (noise_threshold(r.v_hddeb) < edge)


def test_gap_values_increase():
    gaps = [comparison_report(d).gap for d in (3, 4, 5)]
    for gap, ref in zip(gaps, (0.072, 0.101, 0.120)):
        assert abs(gap - ref) < 3e-3
    assert gaps[0] < gaps[1] < gaps[2]


def test_table_renderings():
    table = criterion_table()
    assert [row["d"] for row in table["rows"]] == [3, 4, 5, 6, 7, 8, 9, "inf"]
    text = criterion_table_text()
    assert "v < 1.5084" in text
    assert "v < 2.0000" in text
    comparison = comparison_table_text()
    assert "1.5052" in comparison and "both" in comparison
    one_insecure = dataclasses.replace(comparison_report(3), hddeb_secure=False)
    assert comparison_table_text([one_insecure]).splitlines()[-1].endswith("NO")
