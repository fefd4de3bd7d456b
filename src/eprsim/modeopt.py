"""Search temporal-mode shapes that minimize the Duan sum for given EPR
spectra, against the analytic filtered-variance oracle (noiseless
objective, so golden-section search is valid).

For OPO spectra every evaluation is closed form: the mode's full-line
overlap with the Lorentzian correlation exp(-kappa|tau|) minus the exactly
integrated tail beyond the band limit (TemporalMode.lorentz_overlap).
Decay rates above half the band limit fall back to Gauss-Legendre
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .modes import KINDS, TemporalMode
# filtered_variance is not called here but stays importable from
# eprsim.modeopt, where perfbench's tracer wraps it
from .spectra import filtered_variance  # noqa: F401
from .spectra import EprSpectra, duan_sum, filtered_variances

__all__ = [
    "ModeFamily",
    "OptResult",
    "NonUnimodalError",
    "mode_duan",
    "mode_duans",
    "brute_force",
    "optimize",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_REL_TOL_LOG = math.log(1.001)  # parameter interval < 1e-3 relative


class NonUnimodalError(RuntimeError):
    """Objective not unimodal over the bounds; carries the evaluation trace."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = list(trace)


@dataclass(frozen=True)
class ModeFamily:
    """A parametric mode family with per-parameter search bounds.

    The kind is a KINDS entry with default bounds (square takes a duration
    bound; the exponential families take decay rate (1/s) and support (s)
    bounds).
    """

    kind: str
    param_bounds: Dict[str, Tuple[float, float]]

    def __post_init__(self):
        row = KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if row is None or row.bounds is None:
            raise ValueError(f"unknown mode family {self.kind!r}")
        names = row.params
        if tuple(self.param_bounds) != names:
            raise ValueError(
                f"{self.kind} family requires bounds for {names}, got "
                f"{tuple(self.param_bounds)}")
        for name, (lo, hi) in self.param_bounds.items():
            if not (0.0 < lo < hi and math.isfinite(hi)):
                raise ValueError(
                    f"bounds for {name} must be finite, positive and ordered; "
                    f"got ({lo}, {hi})")

    @property
    def param_names(self) -> Tuple[str, ...]:
        return KINDS[self.kind].params


@dataclass(frozen=True)
class OptResult:
    best_mode: TemporalMode
    best_duan: float
    trace: List[Tuple[Dict[str, float], float]]
    converged: bool = True
    at_bound: bool = False


def mode_duan(spectra: EprSpectra, mode: TemporalMode) -> float:
    """Duan sum of the mode-filtered EPR variances (analytic path)."""
    return mode_duans(spectra, (mode,))[0]


def mode_duans(spectra: EprSpectra, modes: Sequence[TemporalMode]) -> List[float]:
    """mode_duan of each mode, in one filtered_variances call: the square
    modes are one overlap pass per quadrature, and the second quadrature
    reuses the first one's band-tail moments."""
    var_x, var_p = filtered_variances((spectra.diff_x, spectra.sum_p), modes)
    return [duan_sum(x, p) for x, p in zip(var_x, var_p)]


def _log_grid(lo: float, hi: float, n: int) -> List[float]:
    la, lb = math.log(lo), math.log(hi)
    grid = [math.exp(la + (lb - la) * i / (n - 1)) for i in range(n)]
    grid[0], grid[-1] = lo, hi  # exp/log round trip must not leave the bounds
    return grid


def brute_force(spectra: EprSpectra, family: ModeFamily,
                n_points: int = 200) -> List[Tuple[Dict[str, float], float]]:
    """Exhaustive log-grid reference: n_points for one parameter, an
    approximately n_points (m x m) grid for two."""
    names = family.param_names
    if len(names) == 1:
        lo, hi = family.param_bounds[names[0]]
        grid = [{names[0]: v} for v in _log_grid(lo, hi, n_points)]
    else:
        m = max(2, int(math.sqrt(n_points)))
        g0 = _log_grid(*family.param_bounds[names[0]], m)
        g1 = _log_grid(*family.param_bounds[names[1]], m)
        grid = [{names[0]: a, names[1]: b} for a in g0 for b in g1]
    return list(zip(grid, mode_duans(
        spectra, [TemporalMode.from_params(family.kind, p) for p in grid])))


class _BudgetExhausted(Exception):
    pass


class _Objective:
    """Caching, budget-counted objective over named parameters; the points
    of one call are evaluated in one mode_duans call."""

    def __init__(self, spectra, family, budget):
        self.spectra = spectra
        self.family = family
        self.budget = budget
        self.cache: Dict[Tuple[float, ...], float] = {}
        self.trace: List[Tuple[Dict[str, float], float]] = []

    def __call__(self, params: Dict[str, float]) -> float:
        return self.many([params])[0]

    def many(self, points: Sequence[Dict[str, float]]) -> List[float]:
        """Values at points. Points not seen before are evaluated and
        traced in order while the budget lasts, in one mode_duans call,
        and none when every point is cached; _BudgetExhausted is raised
        once those that fit are recorded."""
        keys = [tuple(p[n] for n in self.family.param_names) for p in points]
        new: Dict[Tuple[float, ...], Dict[str, float]] = {}
        for key, params in zip(keys, points):
            if key not in self.cache:
                new.setdefault(key, params)
        todo = list(new.items())[:max(self.budget - len(self.cache), 0)]
        if todo:
            values = mode_duans(self.spectra, [TemporalMode.from_params(self.family.kind, p)
                                               for _, p in todo])
            for (key, params), val in zip(todo, values):
                self.cache[key] = val
                self.trace.append((dict(params), val))
        if len(todo) < len(new):
            raise _BudgetExhausted
        return [self.cache[key] for key in keys]

    def best(self) -> Tuple[Dict[str, float], float]:
        params, val = min(self.trace, key=lambda pv: pv[1])
        return dict(params), val


def _count_interior_minima(values: List[float]) -> int:
    eps = 1e-12
    return sum(
        1 for i in range(1, len(values) - 1)
        if values[i] < values[i - 1] - eps and values[i] < values[i + 1] - eps)


def _prescan(obj: _Objective, fixed: Dict[str, float], name: str,
             n_scan: int) -> Tuple[float, float, float]:
    """Coarse log grid along one axis: returns (bracket_lo, bracket_hi,
    best grid value) and rejects multi-minimum slices."""
    lo, hi = obj.family.param_bounds[name]
    grid = _log_grid(lo, hi, n_scan)
    vals = obj.many([{**fixed, name: v} for v in grid])
    if _count_interior_minima(vals) > 1:
        raise NonUnimodalError(
            f"objective along {name} shows multiple local minima over "
            f"[{lo:g}, {hi:g}]; refusing golden-section refinement", obj.trace)
    i = min(range(n_scan), key=lambda j: vals[j])
    return grid[max(i - 1, 0)], grid[min(i + 1, n_scan - 1)], grid[i]


def _gss_log(obj: _Objective, fixed: Dict[str, float], name: str,
             lo: float, hi: float) -> float:
    """Golden-section on log(param) within [lo, hi]; returns the best
    evaluated parameter value. Raises _BudgetExhausted when out of budget."""

    def ex(x):
        return min(max(math.exp(x), lo), hi)

    def f(x):
        p = dict(fixed)
        p[name] = ex(x)
        return obj(p)

    a, b = math.log(lo), math.log(hi)
    candidates = [(f(a), a), (f(b), b)]  # cache hits when prescan visited them
    h = b - a
    if h > _REL_TOL_LOG:
        c = b - _INV_PHI * h
        d = a + _INV_PHI * h
        fc, fd = f(c), f(d)
        candidates += [(fc, c), (fd, d)]
        while h > _REL_TOL_LOG:
            if fc < fd:
                b, d, fd = d, c, fc
                h = b - a
                c = b - _INV_PHI * h
                fc = f(c)
                candidates.append((fc, c))
            else:
                a, c, fc = c, d, fd
                h = b - a
                d = a + _INV_PHI * h
                fd = f(d)
                candidates.append((fd, d))
    return ex(min(candidates)[1])


def optimize(spectra: EprSpectra, family: ModeFamily,
             budget: int = 160) -> OptResult:
    """Minimize the Duan sum over the family within an evaluation budget.

    A coarse log-grid prescan detects non-unimodal objectives (raising
    NonUnimodalError with the trace) and brackets a golden-section search;
    two-parameter families run coordinate descent, re-bracketing each axis
    every pass so the optimum may migrate as the other parameter moves.
    Convergence means no parameter moved by more than 1e-3 relative over a
    full cycle; if the budget runs out first the best evaluation so far is
    returned with converged=False. at_bound flags a best point within 1e-3
    relative of a family bound.
    """
    if budget < 16:
        raise ValueError(f"budget must be at least 16 evaluations, got {budget}")
    obj = _Objective(spectra, family, budget)
    names = family.param_names
    converged = False
    try:
        if len(names) == 1:
            lo, hi, _ = _prescan(obj, {}, names[0], n_scan=9)
            _gss_log(obj, {}, names[0], lo, hi)
            converged = True
        else:
            current = {n: math.sqrt(family.param_bounds[n][0] *
                                    family.param_bounds[n][1]) for n in names}
            for _ in range(8):
                start = dict(current)
                for n in names:
                    fixed = {m: current[m] for m in names if m != n}
                    lo, hi, _ = _prescan(obj, fixed, n, n_scan=7)
                    current[n] = _gss_log(obj, fixed, n, lo, hi)
                if all(abs(math.log(current[n] / start[n])) <= _REL_TOL_LOG
                       for n in names):
                    converged = True
                    break
    except _BudgetExhausted:
        converged = False
    if not obj.trace:
        raise ValueError("optimization budget exhausted before any evaluation")
    best_params, best_val = obj.best()
    at_bound = any(abs(math.log(best_params[n] / b)) <= _REL_TOL_LOG
                   for n in names for b in family.param_bounds[n])
    return OptResult(best_mode=TemporalMode.from_params(family.kind, best_params),
                     best_duan=best_val, trace=obj.trace, converged=converged,
                     at_bound=at_bound)
