"""Global tolerance configuration.

A measure is built with one immutable record, and every analysis of that
measure reads ``omega.tols``, so rank decisions, limit convergence,
matching thresholds and support membership are overridden coherently
(e.g. from CLI flags) by building the measure with the overrides.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    rank_tol: float = 1e-9      # relative eigenvalue cutoff for PSD/rank decisions
    tol_bv: float = 1e-9        # Frobenius convergence threshold for eps-limits
    tol_match: float = 1e-7     # Frobenius threshold for boundary-value/parameter matching
    tol_x: float = 1e-12        # point location tolerance (roots, support membership)

    def with_overrides(self, **kw) -> "Tolerances":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw)


DEFAULT_TOLS = Tolerances()
