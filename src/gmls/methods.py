"""The estimators by the names ``gmls estimate`` and ``run_study`` accept.

METHODS maps each name to its fit, the kind of data it fits (a
GaussMarkoffModel or an FEPanelModel) and the inputs it needs besides
the data, in the order a caller asks for them.  A fit is called as
``fit(data, inputs, tol)``, ``inputs`` mapping "restrictions" (a
LinearRestrictions or None), "ridge_psi" (the ridge shift) and "theta"
(the dispersion of the restrictions as noisy rows) to their values.
Fits look the estimators up on their modules when called, so a wrapper
installed there is seen; the panel module is imported only when a panel
fit runs.
SCENARIOS names the studies run_study draws, here so that the command
line can offer them without importing gmls.montecarlo.
"""

from __future__ import annotations

from typing import Callable

from . import estimators, identify
from .model import LinearRestrictions

MODEL = "model"
PANEL = "panel"

SCENARIOS = ("regular-gls", "singular-adding-up", "collinear-restricted",
             "fe-kronecker", "fe-blockdiag")


class Method:
    def __init__(self, fit: Callable, kind: str, needs: tuple = ()):
        self.fit = fit
        self.kind = kind
        self.needs = needs


def _on_model(name: str, *needs: str) -> Method:
    """The entry estimators.<name>(model, *inputs named by needs, tol=tol)."""
    return Method(lambda model, inputs, tol: getattr(estimators, name)(
        model, *(inputs[need] for need in needs), tol=tol), MODEL, needs)


def _on_panel(name: str) -> Method:
    """The entry panel.<name>(panel data)."""
    def fit(data, inputs, tol):
        from . import panel
        return getattr(panel, name)(data)
    return Method(fit, PANEL)


def _constrained(model, inputs, tol):
    """The explicit rows' consistency, then the fit on the explicit rows
    stacked on the implicit ones, so refusals come in catalogue order."""
    explicit = inputs["restrictions"]
    if explicit is None:
        explicit = LinearRestrictions.empty(model.num_params)
    decided = {}
    if explicit.count:
        decided["restriction_consistency"] = estimators._consistency_or_raise(explicit, tol)
    combined = identify.combine_restrictions(
        explicit, identify.extract_implicit_restrictions(model), tol=tol)
    result = estimators.constrained_singular_gls(model, combined, tol=tol)
    result.diagnostics.update(decided)  # the fit's own fresh dict
    return result


METHODS = {
    "ols": _on_model("ols"),
    "gls": _on_model("gls"),
    "rols": _on_model("rols", "restrictions"),
    "rgls": _on_model("rgls", "restrictions"),
    "ridge": _on_model("ridge", "ridge_psi"),
    "mixed": _on_model("stochastic_restricted_gls", "restrictions", "theta"),
    "mls": _on_model("mls"),
    "tkn": _on_model("tkn", "restrictions"),
    "constrained": Method(_constrained, MODEL),
    "fe-gls": _on_panel("fe_gls"),
    "fe-mls": _on_panel("fe_mls"),
}
