"""Noise and eavesdropping analysis.

Covers the isotropic-noise channel and its effect on violations, the
noise-resistance threshold N = 1 - 1/v, the channel-fidelity formulas, and the
cloning-attack security criterion v < (d-1)/(d F_A - 1), where F_A is the
fidelity of the optimal phase-covariant cloner (a fixed constant per
dimension, taken from the published cloner analysis rather than re-derived).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Iterable

from .algebra import REFERENCE_STATES, InvalidDimensionError
from .bell import builtin_operator, optimize_basis

#: phase-covariant cloner fidelity F_A per dimension.  The infinity key holds
#: the asymptotic limit, where the criterion becomes v < 2.
CLONER_FIDELITY: dict[int | float, float] = {
    3: 0.7753,
    4: 0.7342,
    5: 0.7080,
    6: 0.6898,
    7: 0.6762,
    8: 0.6657,
    9: 0.6573,
    math.inf: 0.5,
}

#: reference violation values of the CGLMP-based predecessor protocol, used
#: only as comparison constants (its Bell operator is not implemented here).
NDEB_VIOLATIONS = {3: 1.436, 4: 1.448, 5: 1.455}


class NoViolationError(ValueError):
    """Violation factor v < 1: no nonclassicality, thresholds undefined."""


class CriterionUndefinedError(ValueError):
    """d * F_A <= 1, so the security criterion has no positive bound."""


def noise_threshold(v: float) -> float:
    """Largest isotropic noise fraction at which a violation v survives:
    (1 - N) v > 1 iff N < 1 - 1/v."""
    if v < 1.0:
        raise NoViolationError(f"violation factor {v} < 1: no noise tolerance")
    return 1.0 - 1.0 / v


def channel_fidelity(noise: float, d: int) -> float:
    """Fidelity <psi| rho' |psi> of the isotropic-noise channel output with
    the single-qudit input family: F_N = 1 - N (d-1)/d."""
    if not 0.0 <= noise <= 1.0:
        raise ValueError(f"noise fraction must be in [0, 1], got {noise}")
    return 1.0 - noise * (d - 1) / d


def secure_channel_condition(v: float, d: int) -> float:
    """Fidelity floor for secure key distribution at violation v:
    the channel must satisfy F_N > (d-1)/(d v) + 1/d."""
    if v < 1.0:
        raise NoViolationError(f"violation factor {v} < 1: condition undefined")
    return (d - 1) / (d * v) + 1.0 / d


def security_criterion(d: int | float, fidelity: float | None = None) -> float:
    """The bound of the security criterion v < (d - 1)/(d F_A - 1).  The cloner
    scales a working violation v to v / criterion, so a protocol detects it
    exactly when v < criterion.  For d = inf the limit is 2."""
    if fidelity is None:
        try:
            fidelity = CLONER_FIDELITY[d]
        except KeyError:
            raise InvalidDimensionError(
                f"no cloner fidelity on record for d = {d}; pass one explicitly"
            ) from None
    if d == math.inf:
        # F_A -> 1/2 and (d-1)/(d F_A - 1) -> 1/F_A = 2
        return 1.0 / fidelity
    if d * fidelity <= 1.0:
        raise CriterionUndefinedError(f"d * F_A = {d * fidelity} <= 1")
    return (d - 1) / (d * fidelity - 1.0)


@dataclass(frozen=True)
class SecurityReport:
    """Side-by-side security comparison for one dimension."""

    d: int
    v_ndeb: float
    v_hddeb: float
    v_max_secure: float
    noise_threshold_ndeb: float
    noise_threshold_hddeb: float
    ndeb_secure: bool
    hddeb_secure: bool

    @property
    def gap(self) -> float:
        """Headroom between the predecessor protocol's violation and the
        maximal secure violation."""
        return self.v_max_secure - self.v_ndeb

    def to_dict(self) -> dict:
        out = asdict(self)
        out["gap"] = self.gap
        return out


def comparison_report(d: int) -> SecurityReport:
    """Assemble the comparison for d in {3, 4, 5}: reference CGLMP-protocol
    violation, the computed hCHSH-d violation (basis-optimized on the
    reference state), the security criterion, and both noise thresholds."""
    if d not in NDEB_VIOLATIONS:
        raise InvalidDimensionError(f"comparison defined for d in 3..5, got {d}")
    state = REFERENCE_STATES[f"psi{d}"]()
    _, v_hddeb = optimize_basis(state, builtin_operator(d))
    v_ndeb = NDEB_VIOLATIONS[d]
    criterion = security_criterion(d)
    return SecurityReport(
        d=d,
        v_ndeb=v_ndeb,
        v_hddeb=v_hddeb,
        v_max_secure=criterion,
        noise_threshold_ndeb=noise_threshold(v_ndeb),
        noise_threshold_hddeb=noise_threshold(v_hddeb),
        ndeb_secure=v_ndeb < criterion,
        hddeb_secure=v_hddeb < criterion,
    )


def criterion_table() -> dict:
    """The v < (d-1)/(d F_A - 1) bound for each dimension in CLONER_FIDELITY."""
    return {"rows": [
        {"d": "inf" if d == math.inf else int(d), "cloner_fidelity": fidelity,
         "criterion": security_criterion(d)}
        for d, fidelity in CLONER_FIDELITY.items()
    ]}


def criterion_table_text() -> str:
    """Aligned-text rendering of the criterion table (4 decimals)."""
    lines = [f"{'d':>4}  {'F_A':>8}  {'criterion':>10}"]
    for row in criterion_table()["rows"]:
        lines.append(
            f"{str(row['d']):>4}  {row['cloner_fidelity']:>8.4f}  "
            f"v < {row['criterion']:.4f}"
        )
    return "\n".join(lines)


def comparison_table_text(reports: Iterable[SecurityReport] | None = None) -> str:
    """Aligned-text comparison of reference and computed violations against
    the security criterion (4 decimals), one row per report; by default the
    reports for d = 3, 4, 5."""
    if reports is None:
        reports = [comparison_report(d) for d in (3, 4, 5)]
    lines = [
        f"{'d':>3}  {'v_ndeb':>8}  {'v_hddeb':>8}  {'criterion':>9}  "
        f"{'N_ndeb':>7}  {'N_hddeb':>8}  {'secure':>6}"
    ]
    for r in reports:
        lines.append(
            f"{r.d:>3}  {r.v_ndeb:>8.4f}  {r.v_hddeb:>8.4f}  {r.v_max_secure:>9.4f}  "
            f"{r.noise_threshold_ndeb:>7.4f}  {r.noise_threshold_hddeb:>8.4f}  "
            f"{'both' if r.ndeb_secure and r.hddeb_secure else 'NO':>6}"
        )
    return "\n".join(lines)
