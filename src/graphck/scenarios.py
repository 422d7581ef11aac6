"""Canonical lab scenarios: reproducible inputs for the numeric experiments.

The interpolation scenarios put every mismatch between the two interpolands
on the first half of the grid, where the approximate-unit ramp is
identically one; the complementary scalar k then kills the mismatch at the
rate sqrt(1 - t^2), so every genuine defect is strictly decreasing in t and
comfortably below 1e-1 by t = 0.99.  At the ideal fiber all inputs are
exact, so the membership residuals sit at machine zero.

The family scenarios use graphs whose fiber-rank equations are solvable
(see the module notes in ``lab``): an infinite-valence vertex emitting two
new orthogonal-range edges (the closest finite-dimensional analogue of a
two-generator range decomposition), and a one-loop vertex extended by one
incoming edge.  Inputs are exact families perturbed off the ideal fiber and
then compressed back into their defining blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import FiniteGraph
from .lab import MatField, _defect, matrix_defects

GRID = 16
DIM = 4
TRIAL_DIM = 6
FAMILY_NOISE = 1e-3
# near a crossing the computed defect of a trial's matrix wobbles by up to
# about 5e-16; within this much of the target, rounding decides which side
# of the crossing a midpoint falls on
ROUNDING = 1e-15


def _unit(i: int, j: int, dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def _two_level(values: tuple[float, float], grid: int) -> list[float]:
    """First-half value, then second-half value (the last fiber included)."""
    half = grid // 2
    return [values[0] if s <= half else values[1] for s in range(grid + 1)]


@dataclass
class WScenario:
    name: str
    case: str
    a: MatField
    b: MatField
    r: MatField | None
    ideal_fiber: int | None


def lemma36_scenario(name: str) -> WScenario:
    """Inputs for the interpolation experiments, by scenario name.

    * ``scalar``: single fiber, b = a, the whole algebra as the ideal; the
      defects follow closed scalar formulas.
    * ``case_i_blocks``: constant exact a; b shares a's initial space with a
      first-half leak into a's range and a slightly heavy norm.
    * ``case_ii_blocks``: orthogonal blocks a, b with a first-half-damped b
      and an intertwining r that is only unitary on the second half.
    * ``off_ideal``: the case-i pair with both legs vanishing at the ideal
      fiber (a supported away from it, b a partial isometry there).
    """
    e = lambda i, j: _unit(i, j, DIM)
    if name == "scalar":
        a = MatField([_unit(0, 1, 2)])
        return WScenario(name, "i", a, a, None, None)
    if name == "case_i_blocks":
        a = MatField.constant(e(0, 1), GRID)
        b = MatField(
            [e(3, 1) + lam * e(0, 1) for lam in _two_level((0.25, 0.0), GRID)]
        )
        return WScenario(name, "i", a, b, None, GRID)
    if name == "case_ii_blocks":
        a = MatField.constant(e(0, 1), GRID)
        b = MatField([c * e(2, 3) for c in _two_level((0.8, 1.0), GRID)])
        r = MatField([g * e(3, 1) for g in _two_level((0.9, 1.0), GRID)])
        return WScenario(name, "ii", a, b, r, GRID)
    if name == "off_ideal":
        a = MatField([e(0, 1) if s < GRID else 0 * e(0, 1) for s in range(GRID + 1)])
        fibers = []
        for s in range(GRID + 1):
            if s == GRID:
                fibers.append(0 * e(0, 1))
            elif s <= GRID // 2:
                fibers.append(e(3, 1) + 0.25 * e(0, 1))
            else:
                fibers.append(e(3, 1))
        b = MatField(fibers)
        return WScenario(name, "i", a, b, None, GRID)
    raise ValueError(f"unknown scenario {name!r}")


CANONICAL_W_SCENARIOS = ("case_i_blocks", "case_ii_blocks", "off_ideal")


# ---------------------------------------------------------------------------
# Straightening trials
# ---------------------------------------------------------------------------


@dataclass
class StraightenTrial:
    x: np.ndarray
    left_projection: np.ndarray  # p with p @ x == x
    right_projection: np.ndarray  # q with x @ q == x


def random_partial_isometry(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, _, vh = np.linalg.svd(m)
    return u[:, :rank] @ vh[:rank, :]


def injected_defect_trial(seed: int, defect: float) -> StraightenTrial:
    """A perturbed partial isometry with the stated defect, hit by bisection.

    The perturbation is compressed between the isometry's range and initial
    projections, so the one-sided relations p x = x and x q = x hold exactly
    and must survive straightening.

    The scale of the unit-norm perturbation is found as a sequential
    bisection would find it: double from ``defect`` until the defect reaches
    ``defect``, then halve at most 80 times from 0 and that scale, stopping
    once the midpoint equals an end.  The bisection is batched, not
    sequential: a secant estimate of the crossing predicts the midpoints the
    bisection will visit, one stacked decomposition evaluates them all, and
    the real bisection walks those values up to the first midpoint not
    predicted.  Every decision reads the value the sequential loop reads, so
    the trial is the same bit for bit; a wrong prediction costs one more
    decomposition, never a different scale.  A defect so large that the
    matrix at that scale has a defect past the float range raises
    ``ValueError``.
    """
    if not (math.isfinite(defect) and defect >= 0.0):
        raise ValueError(f"defect must be finite and at least 0, got {defect!r}")
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, TRIAL_DIM))
    v = random_partial_isometry(rng, TRIAL_DIM, rank)
    p = v @ v.conj().T
    q = v.conj().T @ v
    noise = rng.normal(size=(TRIAL_DIM, TRIAL_DIM)) + 1j * rng.normal(size=(TRIAL_DIM, TRIAL_DIM))
    noise = p @ noise @ q
    noise /= np.linalg.norm(noise, 2)

    # the defect at scale s is at most about (1 + s)^3, so below a defect of
    # 1e100 nothing overflows.  Above it no scale past defect is decomposed,
    # and the matrix at defect is checked once, before any decomposition
    if defect > 1e100:
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(_defect(v + defect * noise)).all()
        if not finite:
            raise ValueError(f"defect {defect!r} overflows: the defect of the trial matrix at that scale is not finite")

    def defects_at(scales: list[float]) -> list[float]:
        return matrix_defects(v + np.array(scales)[:, None, None] * noise).tolist()

    # hi is the first of defect, 2 defect, 4 defect, ... whose defect is at
    # least defect.  The doublings are decomposed six to a call, and only
    # once defect itself falls short: a scale far past the crossing, where a
    # huge defect would overflow, is never decomposed
    scales = [defect * 0.5, defect]
    values = defects_at(scales)
    while max(values[1:]) < defect:
        more = [scales[-1] * 2.0**j for j in range(1, 7)]
        scales += more
        values += defects_at(more)
    k = next(i for i in range(1, len(scales)) if values[i] >= defect)
    hi, f_hi = scales[k], values[k]
    # secant steps from hi / 2 and hi, kept in [0, hi], estimate the crossing
    # until its defect is within ROUNDING of defect
    a, f_a, est, f_est = scales[k - 1], values[k - 1], hi, f_hi
    for _ in range(8):
        if f_est == f_a or abs(f_est - defect) <= ROUNDING:
            break
        step = (f_est - defect) * (est - a) / (f_est - f_a)
        a, f_a, est = est, f_est, min(max(est - step, 0.0), hi)
        f_est = defects_at([est])[0]

    # at most 80 halvings; once the midpoint s equals lo or hi, no later step
    # moves it, so the bisection stops there.  f_lo < defect <= f_hi, and f(0)
    # is taken as 0
    lo, f_lo, s, steps = 0.0, 0.0, hi / 2.0, 80
    while steps and s not in (lo, hi):
        # the midpoints visited if each one below est falls below defect, up
        # to the second whose defect the bracket's secant puts within
        # ROUNDING of defect: past it a guess fails as often as not
        slope = (f_hi - f_lo) / (hi - lo)
        path, unsure, plo, phi, m = [], 0, lo, hi, s
        while len(path) < steps and m not in (plo, phi) and unsure < 2:
            path.append(m)
            unsure += abs(m - est) * slope <= ROUNDING
            if m < est:
                plo = m
            else:
                phi = m
            m = (plo + phi) / 2.0
        for m, value in zip(path, defects_at(path)):
            if m != s:
                break
            if value < defect:
                lo, f_lo = s, value
            else:
                hi, f_hi = s, value
            s = (lo + hi) / 2.0
            steps -= 1
        est = lo + (defect - f_lo) * (hi - lo) / (f_hi - f_lo)
    x = v + s * noise
    return StraightenTrial(x=x, left_projection=p, right_projection=q)


# ---------------------------------------------------------------------------
# Family scenarios
# ---------------------------------------------------------------------------


@dataclass
class FamilyScenario:
    name: str
    small: FiniteGraph
    large: FiniteGraph
    infinite_vertices: frozenset[str]
    fields: dict[str, MatField]
    new_edge_ids: tuple[str, ...]


def _perturb_into_block(exact: MatField, rng: np.random.Generator, left: np.ndarray, right: np.ndarray) -> MatField:
    """Exact field plus ``FAMILY_NOISE`` of block-compressed noise, untouched at the last fiber."""
    fibers = []
    grid = exact.grid_size
    for s in range(grid + 1):
        f = exact.fiber(s).copy()
        if s < grid:
            n = rng.normal(size=f.shape) + 1j * rng.normal(size=f.shape)
            f = f + FAMILY_NOISE * (left @ n @ right)
        fibers.append(f)
    return MatField(fibers)


def family_scenario(name: str, seed: int = 0) -> FamilyScenario:
    """Graph pair, infinite-valence set, and input fields, by scenario name.

    * ``identity``: large equals small; nothing to straighten.
    * ``orthogonal_pair``: an infinite-valence vertex u (fed by v) emits two
      new parallel edges onto a fresh tail w -> x (loop at x); the two new
      edges must come out with exactly orthogonal ranges under u.
    * ``unitary_extension``: a one-loop vertex (a unitary block) gains one
      incoming edge from a fresh vertex.
    """
    rng = np.random.default_rng(seed)
    if name in ("identity", "unitary_extension"):
        dim = 2
        small = FiniteGraph({"v"}, [("lv", "v", "v")])
        large = FiniteGraph({"v", "w"}, [("lv", "v", "v"), ("e", "w", "v")])
        xi_v = _unit(0, 0, dim)
        loop = MatField.constant(xi_v, GRID)
        exact_e = MatField.constant(_unit(1, 0, dim), GRID)
        if name == "identity":
            return FamilyScenario(name, large, large,
                                  frozenset(), {"lv": loop, "e": exact_e}, ())
        one_minus_p = np.eye(dim) - xi_v
        fields = {
            "lv": loop,
            "e": _perturb_into_block(exact_e, rng, one_minus_p, xi_v),
        }
        return FamilyScenario(name, small, large, frozenset(), fields, ("e",))
    if name == "orthogonal_pair":
        dim = 6
        small = FiniteGraph({"u", "v"}, [("g", "v", "u")])
        large = FiniteGraph(
            {"u", "v", "w", "x"},
            [
                ("g", "v", "u"),
                ("e1", "u", "w"),
                ("e2", "u", "w"),
                ("j", "w", "x"),
                ("kx", "x", "x"),
            ],
        )
        xi_u = np.diag([1, 1, 0, 0, 0, 0]).astype(complex)
        xi_v = np.diag([0, 0, 1, 1, 0, 0]).astype(complex)
        rest = np.diag([0, 0, 0, 0, 1, 1]).astype(complex)
        g = _unit(2, 0, dim) + _unit(3, 1, dim)
        e1 = _unit(0, 4, dim)
        e2 = _unit(1, 4, dim)
        jj = _unit(4, 5, dim)
        kx = _unit(5, 5, dim)
        fields = {
            "g": MatField.constant(g, GRID),
            "e1": _perturb_into_block(MatField.constant(e1, GRID), rng, xi_u, rest),
            "e2": _perturb_into_block(MatField.constant(e2, GRID), rng, xi_u, rest),
            "j": _perturb_into_block(MatField.constant(jj, GRID), rng, rest, rest),
            "kx": _perturb_into_block(MatField.constant(kx, GRID), rng, rest, rest),
        }
        return FamilyScenario(name, small, large, frozenset({"u"}), fields,
                              ("e1", "e2", "j", "kx"))
    raise ValueError(f"unknown scenario {name!r}")


CANONICAL_FAMILY_SCENARIOS = ("identity", "orthogonal_pair", "unitary_extension")
