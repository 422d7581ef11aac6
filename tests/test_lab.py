"""Numerical perturbation-lab tests."""

import math
import re
import warnings

import numpy as np
import pytest

from graphck import lab, scenarios
from graphck.graphs import FiniteGraph
from graphck.lab import (
    LabError,
    MatField,
    condition_o_residuals,
    j_residual,
    lemma36_w,
    partial_isometry_defect,
    straighten,
    straighten_family,
    _intertwiner,
    _intertwiner_fiber,
    _norm,
    _vertex_projections,
    _within,
)
from graphck.scenarios import (
    CANONICAL_FAMILY_SCENARIOS,
    CANONICAL_W_SCENARIOS,
    family_scenario,
    injected_defect_trial,
    lemma36_scenario,
    random_partial_isometry,
)
from helpers import neg_field, scalar_field

T_GRID = (0.5, 0.9, 0.99)


# ---------------------------------------------------------------------------
# MatField basics
# ---------------------------------------------------------------------------


def test_matfield_shapes_and_norm():
    f = MatField.constant(np.array([[0.0, 2.0], [0.0, 0.0]]), 4)
    assert f.grid_size == 4 and f.dim == 2
    assert f.norm() == pytest.approx(2.0)
    assert j_residual(f, 4) == pytest.approx(2.0)
    assert j_residual(f, None) == 0.0


def test_matfield_immutable():
    f = MatField.zero(2, 2)
    with pytest.raises(AttributeError):
        f.dim = 3
    with pytest.raises(ValueError):
        f.fiber(0)[0, 0] = 1.0  # read-only buffer


def test_matfield_mismatch():
    with pytest.raises(LabError):
        MatField.zero(2, 2) + MatField.zero(3, 2)


def scenario_fields():
    for name in CANONICAL_W_SCENARIOS + ("scalar",):
        sc = lemma36_scenario(name)
        yield from (f for f in (sc.a, sc.b, sc.r) if f is not None)
    for name in CANONICAL_FAMILY_SCENARIOS:
        for seed in range(3):
            yield from family_scenario(name, seed=seed).fields.values()


def test_matfield_stack_operations_equal_per_fiber_loops_exactly():
    fields = list(scenario_fields())
    assert len(fields) > 20
    for f in fields:
        assert f.norm() == max(float(np.linalg.norm(a, 2)) for a in f.fibers)
        assert (f.H.fibers == np.stack([a.conj().T for a in f.fibers])).all()
        assert ((f @ f.H).fibers == np.stack([a @ a.conj().T.copy() for a in f.fibers])).all()
        assert ((f - 2.0 * f).fibers == np.stack([a - 2.0 * a for a in f.fibers])).all()


def test_norm_of_a_stack_with_zero_matrices_equals_the_norm_of_the_rest():
    for f in scenario_fields():
        padded = MatField(np.concatenate([np.zeros_like(f.fibers), f.fibers, np.zeros_like(f.fibers)]))
        assert padded.norm() == f.norm()
    assert MatField.zero(3, 2).norm() == 0.0 and partial_isometry_defect(np.zeros((2, 3))) == 0.0


def test_matfield_holds_one_read_only_stack():
    f = scalar_field([0.5, 1.0, 2.0], 3)
    assert f.fibers.shape == (3, 3, 3) and f.fibers.dtype == complex
    assert (f.grid_size, f.dim) == (2, 3)
    assert not f.fibers.flags.writeable
    with pytest.raises(ValueError):
        f.fibers[1, 0, 0] = 7.0
    for g in (f + f, f - f, f @ f, 2.0 * f, neg_field(f), f.H, MatField.zero(2, 3), MatField.constant(np.eye(3), 2)):
        assert g.fibers.shape == (3, 3, 3) and not g.fibers.flags.writeable


def test_matfield_copies_its_input_once():
    src = [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]
    stack = np.stack(src)
    from_list, from_stack = MatField(src), MatField(stack)
    src[0][0, 0] = 5.0
    stack[1, 1, 1] = 5.0
    for f in (from_list, from_stack):
        assert f.fiber(0)[0, 0] == 1.0 and f.fiber(1)[1, 1] == 0.0
        assert f.norm() == 1.0


@pytest.mark.parametrize(
    "fibers",
    [
        [],
        np.zeros((0, 2, 2)),
        [np.eye(2), np.eye(3)],
        [np.eye(2), np.ones(2)],
        [np.ones((2, 3))],
        [np.ones(4)],
        np.ones((3, 2, 2, 2)),
        np.zeros((2, 0, 0)),
    ],
    ids=["empty", "empty_stack", "ragged", "ragged_rank", "non_square", "vectors", "four_dim", "zero_dim"],
)
def test_matfield_rejects_empty_ragged_and_non_square_fibers(fibers):
    with pytest.raises(LabError):
        MatField(fibers)


def test_matfield_results_are_fresh_read_only_c_contiguous_stacks():
    f = next(iter(family_scenario("orthogonal_pair", seed=1).fields.values()))
    for g in (f + f, f - f, f @ f, 2.0 * f, neg_field(f), f.H, f.H.H):
        assert not g.fibers.flags.writeable and g.fibers.flags.c_contiguous
        assert not np.shares_memory(g.fibers, f.fibers)
    assert (f.H.H.fibers == f.fibers).all()


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0,), (2, 0, 0)])
def test_partial_isometry_defect_rejects_empty_input(shape):
    with pytest.raises(LabError, match="nonempty"):
        partial_isometry_defect(np.zeros(shape))


def screened_inputs():
    """(stack, tol) pairs on both sides of the Frobenius screen."""
    eye = np.eye(4, dtype=complex)
    yield 0.3 * eye, 0.35  # Frobenius 0.6 > tol >= operator norm 0.3
    yield np.stack([0.3 * eye, 0.1 * eye]), 0.3  # operator norm exactly tol
    yield 0.5 * eye, 0.35  # both above
    yield 1e-13 * eye, 1e-10  # both below
    yield np.stack([1e-11 * eye, 2e-10 * eye]), 1e-10  # one fiber above
    for f in scenario_fields():
        yield f.fibers, 1e-10
        yield f.fibers, f.norm()


def test_tolerance_screen_decides_as_the_operator_norm():
    seen = set()
    for a, tol in screened_inputs():
        want = _norm(a) <= tol
        seen.add(want)
        assert _within(a, tol) == want
        if a.ndim == 3:
            f, z = MatField(a), MatField(np.zeros_like(a))
            assert f.allclose(z, tol) == want and z.allclose(f, tol) == want
    assert seen == {True, False}


def test_straighten_screens_its_defect_gate_and_reports_the_operator_norm():
    # x = 0.8 I has defect 0.288 I: operator norm 0.288, Frobenius norm 0.576
    x = 0.8 * np.eye(4, dtype=complex)
    assert np.linalg.norm(straighten(x) - np.eye(4), 2) <= 1e-12
    v = random_partial_isometry(np.random.default_rng(2), 4, 2)
    want = partial_isometry_defect(0.5 * v)
    with pytest.raises(LabError, match=f"defect {want:.4g} exceeds"):
        straighten(MatField([v, 0.5 * v, v]))


def approximate_unit(grid_size, dim, t):
    """Scalar fields h = t * ramp and k = (1 - h^2)^{1/2}, whose fibers
    ``lemma36_w`` multiplies by as scalars."""
    h, k = lab._unit_profiles(grid_size, t)
    return scalar_field(h, dim), scalar_field(k, dim)


def test_approximate_unit_profile():
    h, k = approximate_unit(16, 1, 0.8)
    assert h.fiber(0)[0, 0] == pytest.approx(0.8)
    assert h.fiber(8)[0, 0] == pytest.approx(0.8)
    assert h.fiber(16)[0, 0] == pytest.approx(0.0)
    hk = h.fiber(12)[0, 0]
    assert 0 < hk < 0.8
    assert np.allclose(
        [(h.fiber(s)[0, 0] ** 2 + k.fiber(s)[0, 0] ** 2) for s in range(17)], 1.0
    )


# ---------------------------------------------------------------------------
# Straightening
# ---------------------------------------------------------------------------


def test_straighten_fixes_partial_isometries():
    rng = np.random.default_rng(0)
    v = random_partial_isometry(rng, 6, 4)
    y = straighten(v)
    assert np.linalg.norm(y - v, 2) <= 1e-12


def test_straighten_rescales_scaled_isometry():
    # one-dimensional functional calculus: x = 0.9 v has x*x = 0.81 v*v, and
    # f(0.81) = 1/0.9 restores v exactly; the defect is 0.9 * |0.81 - 1|
    rng = np.random.default_rng(1)
    v = random_partial_isometry(rng, 5, 1)
    x = 0.9 * v
    assert partial_isometry_defect(x) == pytest.approx(0.9 * abs(0.81 - 1.0))
    y = straighten(x)
    assert np.linalg.norm(y - v, 2) <= 1e-12
    assert np.linalg.norm(y - x, 2) == pytest.approx(0.1, abs=1e-12)


def test_straighten_defect_gate():
    rng = np.random.default_rng(2)
    v = random_partial_isometry(rng, 4, 2)
    with pytest.raises(LabError):
        straighten(0.5 * v)  # defect 0.5 * 0.75 = 0.375 > 0.35


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_straighten_rejects_non_finite_input(bad):
    x = np.eye(3, dtype=complex)
    x[1, 2] = bad
    with pytest.raises(LabError, match="NaN or infinite"):
        straighten(x)
    fibers = [np.eye(3), x]
    with pytest.raises(LabError, match="NaN or infinite"):
        straighten(MatField(fibers))


def svd_straighten(x):
    """Nearest partial isometry: keep the singular vectors with sigma^2 > 1/2."""
    u, sv, vh = np.linalg.svd(x)
    keep = sv**2 > 0.5
    return u[:, keep] @ vh[keep, :]


def test_straighten_matches_the_svd_oracle():
    trials = [injected_defect_trial(seed, d) for seed in range(6) for d in (1e-2, 1e-3, 0.3)]
    for t in trials:
        y = straighten(t.x)
        assert isinstance(y, np.ndarray)
        assert np.linalg.norm(y - svd_straighten(t.x), 2) <= 1e-12
    field = MatField([t.x for t in trials])
    y = straighten(field)
    assert isinstance(y, MatField) and y.grid_size == len(trials) - 1
    for s, t in enumerate(trials):
        assert np.linalg.norm(y.fiber(s) - svd_straighten(t.x), 2) <= 1e-12


def _defect_trial_by_80_halvings(seed, defect):
    """``injected_defect_trial(seed, defect).x`` as first written, kept as a
    reference: the bisection always runs 80 halvings."""
    rng = np.random.default_rng(seed)
    dim = scenarios.TRIAL_DIM
    v = random_partial_isometry(rng, dim, int(rng.integers(1, dim)))
    p, q = v @ v.conj().T, v.conj().T @ v
    noise = p @ (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) @ q
    noise /= np.linalg.norm(noise, 2)
    hi = defect
    while partial_isometry_defect(v + hi * noise) < defect:
        hi *= 2.0
    lo = 0.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if partial_isometry_defect(v + mid * noise) < defect:
            lo = mid
        else:
            hi = mid
    return v + (lo + hi) / 2.0 * noise


def test_defect_bisection_stops_early_with_a_bit_identical_trial(monkeypatch):
    # once the midpoint equals an end no later halving moves it, so stopping
    # there gives the 80-halving answer bit for bit; the batched bisection
    # reads the same defects from a few stacked decompositions per trial
    calls, counts = [], []
    monkeypatch.setattr(scenarios, "matrix_defects", lambda a: calls.append(len(a)) or lab.matrix_defects(a))
    pairs = [(seed, d) for seed in range(80) for d in (1e-2, 1e-3, 1e-4, 0.3, 0.0, 1e-8, 0.34)]
    for seed, d in pairs:
        calls.clear()
        assert injected_defect_trial(seed, d).x.tobytes() == _defect_trial_by_80_halvings(seed, d).tobytes()
        counts.append((len(calls), sum(calls)))
    assert max(c for c, _ in counts) <= 30
    assert sum(c for c, _ in counts) < 14 * len(pairs)
    assert sum(n for _, n in counts) < 70 * len(pairs)


def test_a_huge_defect_decomposes_no_scale_that_overflows():
    # here the defect of every scale far past the crossing overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(4):
            for d in (1e102, 5e102):
                assert injected_defect_trial(seed, d).x.tobytes() == _defect_trial_by_80_halvings(seed, d).tobytes()


@pytest.mark.parametrize("defect", [1e103, 1e110])
def test_a_defect_that_overflows_is_refused_before_any_decomposition(capfd, defect):
    # the defect of the matrix at these scales is past the float range; a
    # decomposition of it warned, made LAPACK print to the process's output
    # and raised LinAlgError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"defect {defect!r} overflows")):
            injected_defect_trial(0, defect)
    assert capfd.readouterr() == ("", "")


def test_matrix_defects_match_the_defect_of_each_matrix():
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(9, 6, 6)) + 1j * rng.normal(size=(9, 6, 6))
    stack[4] = random_partial_isometry(rng, 6, 2)
    assert lab.matrix_defects(stack).tolist() == [partial_isometry_defect(a) for a in stack]


@pytest.mark.parametrize("defect", [-0.01, -math.inf, math.inf, math.nan])
def test_injected_defect_trial_rejects_a_defect_that_is_not_finite_and_nonnegative(defect):
    with pytest.raises(ValueError, match="defect must be finite and at least 0"):
        injected_defect_trial(0, defect)


def test_straighten_idempotent_and_scalar_central():
    trial = injected_defect_trial(7, 1e-2)
    field = MatField.constant(trial.x, 8)
    y = straighten(field)
    again = straighten(y)
    assert (again - y).norm() <= 1e-10
    g = scalar_field([0.3 + 0.1 * s for s in range(9)], 6)
    assert ((g @ y) - (y @ g)).norm() == 0.0


def test_straighten_median_moves_decrease_with_defect():
    medians = []
    for d in (1e-2, 1e-3, 1e-4):
        moves = []
        for seed in range(20):
            trial = injected_defect_trial(seed, d)
            y = straighten(trial.x)
            assert partial_isometry_defect(y) <= 1e-10
            moves.append(np.linalg.norm(y - trial.x, 2))
        moves.sort()
        medians.append(moves[len(moves) // 2])
    assert medians[0] > medians[1] > medians[2]


def test_straighten_preserves_one_sided_relations():
    for seed in (0, 1, 2, 3):
        trial = injected_defect_trial(seed, 1e-2)
        y = straighten(trial.x)
        p, q = trial.left_projection, trial.right_projection
        assert np.linalg.norm(p @ y - y, 2) <= 1e-12
        assert np.linalg.norm(y @ q - y, 2) <= 1e-12
        # the complementary annihilation relations transfer too
        pc = np.eye(6) - p
        qc = np.eye(6) - q
        assert np.linalg.norm(pc @ y, 2) <= 1e-12
        assert np.linalg.norm(y @ qc, 2) <= 1e-12


# ---------------------------------------------------------------------------
# Two-term interpolation
# ---------------------------------------------------------------------------


def test_w_scalar_closed_forms():
    sc = lemma36_scenario("scalar")
    for t in T_GRID:
        _, rep = lemma36_w(sc.a, sc.b, sc.r, t, sc.case, ideal_fiber=sc.ideal_fiber)
        h, k = t, float(np.sqrt(1 - t * t))
        assert rep.defects["wsw_vs_formula"] == pytest.approx(abs((h + k) ** 2 - 1), abs=1e-12)
        assert rep.defects["wsw_vs_formula"] == pytest.approx(2 * h * k, abs=1e-12)
        assert rep.defects["www_minus_w"] == pytest.approx(abs((h + k) ** 3 - (h + k)), abs=1e-12)
        assert rep.j_residuals["wws_identity"] <= 1e-12


@pytest.mark.parametrize("name", CANONICAL_W_SCENARIOS)
def test_w_canonical_scenarios_decrease(name):
    sc = lemma36_scenario(name)
    reports = [lemma36_w(sc.a, sc.b, sc.r, t, sc.case, ideal_fiber=sc.ideal_fiber)[1] for t in T_GRID]
    names = reports[0].defects.keys()
    for defect in names:
        values = [rep.defects[defect] for rep in reports]
        assert values[0] > values[1] > values[2], (defect, values)
        assert values[2] <= 1e-1
    for rep in reports:
        for key, val in rep.j_residuals.items():
            if key.startswith("pre:"):
                assert val <= 1e-10
    if sc.case == "i":
        # the product formula is an algebraic identity in this model
        assert all(rep.j_residuals["wws_identity"] <= 1e-12 for rep in reports)


def test_w_rejects_bad_parameters():
    sc = lemma36_scenario("case_i_blocks")
    with pytest.raises(LabError):
        lemma36_w(sc.a, sc.b, sc.r, 1.0, sc.case, ideal_fiber=sc.ideal_fiber)
    with pytest.raises(LabError):
        lemma36_w(sc.a, sc.b, sc.r, 0.5, "iv", ideal_fiber=sc.ideal_fiber)
    with pytest.raises(LabError):
        lemma36_w(sc.a, sc.b, None, 0.5, "ii", ideal_fiber=sc.ideal_fiber)


def test_w_precondition_residual_gate():
    # b fails to be a partial isometry at the ideal fiber
    a = MatField.constant(np.array([[0, 1], [0, 0]], dtype=complex), 4)
    b = MatField.constant(0.5 * np.array([[0, 0], [1, 0]], dtype=complex), 4)
    with pytest.raises(LabError, match="partial isometry at the ideal fiber"):
        lemma36_w(a, b, None, 0.5, "i", ideal_fiber=4)


def test_w_not_partial_isometry_a_rejected():
    a = MatField.constant(0.7 * np.array([[0, 1], [0, 0]], dtype=complex), 4)
    with pytest.raises(LabError):
        lemma36_w(a, a, None, 0.5, "i", ideal_fiber=None)


def reference_w(sc, t):
    """w and its report's defects from products with the scalar fields h and k."""
    a, b, r = sc.a, sc.b, sc.r
    h, k = approximate_unit(a.grid_size, a.dim, t)
    hh, kk, hk = h @ h, k @ k, h @ k
    if sc.case == "i":
        r = rhs1 = a.H @ a
        w = (h @ a) + (k @ b)
    else:
        w = (hh @ a) + (kk @ b) + (hk @ ((a @ r.H) + (b @ r)))
        rhs1 = (hh @ (a.H @ a)) + (kk @ (b.H @ b)) + (hk @ (r + r.H))
    rhs2 = (hh @ (a @ a.H)) + (kk @ (b @ b.H)) + (hk @ ((b @ r @ a.H) + (a @ r.H @ b.H)))
    wsw = w.H @ w
    www_minus_w = (w @ wsw) - w
    wws_name = "wws_identity" if sc.case == "i" else "wws_vs_formula"
    norms = {
        "www_minus_w": www_minus_w.norm(),
        "wsw_vs_formula": (wsw - rhs1).norm(),
        wws_name: ((w @ w.H) - rhs2).norm(),
    }
    if sc.ideal_fiber is not None:
        norms["defect_at_ideal"] = www_minus_w.fiber_norm(sc.ideal_fiber)
    return w, norms


@pytest.mark.parametrize("name", CANONICAL_W_SCENARIOS + ("scalar",))
def test_w_scales_fibers_exactly_as_the_scalar_field_products(name):
    sc = lemma36_scenario(name)
    for t in T_GRID + (0.0,):
        w, rep = lemma36_w(sc.a, sc.b, sc.r, t, sc.case, ideal_fiber=sc.ideal_fiber)
        ref_w, norms = reference_w(sc, t)
        assert (w.fibers == ref_w.fibers).all()
        assert {**rep.defects, **rep.j_residuals} | norms == {**rep.defects, **rep.j_residuals}


def test_w_defect_vanishes_at_ideal_fiber():
    for name in CANONICAL_W_SCENARIOS:
        sc = lemma36_scenario(name)
        _, rep = lemma36_w(sc.a, sc.b, sc.r, 0.9, sc.case, ideal_fiber=sc.ideal_fiber)
        assert rep.j_residuals["defect_at_ideal"] <= 1e-10


# ---------------------------------------------------------------------------
# Family straightening
# ---------------------------------------------------------------------------


def test_family_identity_returns_inputs():
    sc = family_scenario("identity")
    out = straighten_family(sc.small, sc.large, sc.infinite_vertices, sc.fields)
    assert set(out) == set(sc.fields)
    for eid in out:
        assert out[eid] is sc.fields[eid]


@pytest.mark.parametrize("name", ["orthogonal_pair", "unitary_extension"])
def test_family_scenarios_recover_exact_families(name):
    sc = family_scenario(name, seed=11)
    out = straighten_family(sc.small, sc.large, sc.infinite_vertices, sc.fields)
    res = condition_o_residuals(sc.large, sc.infinite_vertices, out)
    assert max(res.values()) <= 1e-10
    # small-graph fields come back as the same objects
    for e in sc.small.edges:
        assert out[e[0]] is sc.fields[e[0]]
    # a thousandth of noise is healed at the cost of at most a hundredth
    for eid in sc.new_edge_ids:
        assert (out[eid] - sc.fields[eid]).norm() <= 1e-2
    # quotient compatibility: exact partial isometries at the last fiber stay put
    for eid in sc.new_edge_ids:
        g = out[eid].grid_size
        assert partial_isometry_defect(MatField([out[eid].fiber(g)])) <= 1e-10


def test_family_orthogonal_pair_ranges_exactly_orthogonal():
    sc = family_scenario("orthogonal_pair", seed=5)
    out = straighten_family(sc.small, sc.large, sc.infinite_vertices, sc.fields)
    cross = (out["e1"].H @ out["e2"]).norm()
    assert cross <= 1e-12


def test_family_cuts_a_new_edge_leak_into_the_small_out_ranges():
    # u emits f0 in the small graph and e in the large one; off the ideal
    # fiber e leaks 5e-11 into f0's range, within the precondition
    # tolerance.  Straightening e inside xi[u] less f0's range removes the
    # leak, so e and f0 come out with exactly orthogonal ranges (o5)
    dim, grid = 6, 4

    def unit(*entries):
        m = np.zeros((dim, dim), dtype=complex)
        for i, j in entries:
            m[i, j] = 1
        return MatField.constant(m, grid)

    small = FiniteGraph({"v", "u", "a"}, [("g", "v", "u"), ("f0", "u", "a"), ("la", "a", "a")])
    large = FiniteGraph(
        {"v", "u", "a", "w"},
        [*small.edges, ("e", "u", "w"), ("lw", "w", "w")],
    )
    leak = np.zeros((grid + 1, dim, dim), dtype=complex)
    leak[:grid, 1, 5] = 5e-11
    fields = {
        "g": unit((3, 1), (4, 2)),
        "f0": unit((1, 0)),
        "la": unit((0, 0)),
        "e": unit((2, 5)) + MatField(leak),
        "lw": unit((5, 5)),
    }
    assert condition_o_residuals(large, {"u"}, fields)["o5"] > 1e-11
    out = straighten_family(small, large, {"u"}, fields)
    assert condition_o_residuals(large, {"u"}, out)["o5"] <= 1e-13


# Each gate of straighten_family passes on a Frobenius screen; the tests
# below make each one fail and read the exact worst norm in its message.


def test_family_rejects_excess_defects(monkeypatch):
    monkeypatch.setattr(scenarios, "FAMILY_NOISE", 0.2)
    sc = family_scenario("unitary_extension", seed=1)
    worst = max(condition_o_residuals(sc.large, sc.infinite_vertices, sc.fields).values())
    with pytest.raises(LabError, match=re.escape(f"family defects {worst:.4g} exceed tol 0.05")):
        straighten_family(sc.small, sc.large, sc.infinite_vertices, sc.fields)


def test_family_rejects_inexact_small_family():
    sc = family_scenario("orthogonal_pair", seed=2)
    fields = dict(sc.fields)
    fields["g"] = 0.99 * fields["g"]
    worst = max(condition_o_residuals(sc.small, sc.infinite_vertices, fields).values())
    with pytest.raises(LabError, match=re.escape(f"small-graph family is not exact (worst residual {worst:.2e})")):
        straighten_family(sc.small, sc.large, sc.infinite_vertices, fields)


@pytest.mark.parametrize("name", ["orthogonal_pair", "unitary_extension"])
def test_family_rejects_a_family_inexact_only_at_the_ideal_fiber(name):
    sc = family_scenario(name, seed=3)
    eid = sc.new_edge_ids[0]
    fibers = sc.fields[eid].fibers.copy()
    fibers[-1] *= 1 + 1e-8
    fields = {**sc.fields, eid: MatField(fibers)}
    assert max(condition_o_residuals(sc.large, sc.infinite_vertices, fields).values()) <= lab.FAMILY_TOL
    ideal = {e: MatField(f.fibers[-1:]) for e, f in fields.items()}
    worst = max(condition_o_residuals(sc.large, sc.infinite_vertices, ideal).values())
    assert worst > lab.EXACT_TOL
    with pytest.raises(LabError, match=re.escape(f"family is not exact at the ideal fiber (residual {worst:.2e})")):
        straighten_family(sc.small, sc.large, sc.infinite_vertices, fields)


def straighten_with_intertwiners_times(monkeypatch, sc, factor):
    """``straighten_family`` with every intertwiner times ``factor``: its
    LabError and the family its final gate checked."""
    families = []
    relation_terms = lab._relation_terms

    def recording(graph, infinite_vertices, fields):
        families.append(fields)
        return relation_terms(graph, infinite_vertices, fields)

    monkeypatch.setattr(lab, "_relation_terms", recording)
    monkeypatch.setattr(lab, "_intertwiner", lambda p, q: factor * _intertwiner(p, q))
    with pytest.raises(LabError) as info:
        straighten_family(sc.small, sc.large, sc.infinite_vertices, sc.fields)
    return str(info.value), families[-1]


def test_family_rejects_an_inexact_straightened_family(monkeypatch):
    sc = family_scenario("unitary_extension", seed=4)
    message, out = straighten_with_intertwiners_times(monkeypatch, sc, 1.001)
    worst = max(condition_o_residuals(sc.large, sc.infinite_vertices, out).values())
    assert worst > lab.EXACT_TOL
    assert message == f"straightened family is not exact (worst residual {worst:.2e})"


def test_family_rejects_a_straightening_that_moves_the_ideal_fiber(monkeypatch):
    # a unit phase keeps every relation and block exact but moves each new edge
    sc = family_scenario("orthogonal_pair", seed=4)
    message, out = straighten_with_intertwiners_times(monkeypatch, sc, np.exp(1e-6j))
    assert max(condition_o_residuals(sc.large, sc.infinite_vertices, out).values()) <= lab.EXACT_TOL
    eid = next(e for e, _, _ in sc.large.edges if e in sc.new_edge_ids)
    moved = (out[eid] - sc.fields[eid]).fiber_norm(out[eid].grid_size)
    assert moved > lab.EXACT_TOL
    assert message == f"straightening moved edge {eid!r} at the ideal fiber (by {moved:.2e})"


def test_intertwiner_rank_mismatch():
    p = np.diag([1.0, 1.0]).astype(complex)
    q = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(LabError):
        _intertwiner_fiber(p, q)


def test_intertwiner_for_close_projections():
    rng = np.random.default_rng(3)
    v = random_partial_isometry(rng, 5, 2)
    p = v @ v.conj().T
    q = v.conj().T @ v
    d = _intertwiner_fiber(p, q)
    assert np.linalg.norm(d @ d.conj().T - p, 2) <= 1e-12
    assert np.linalg.norm(d.conj().T @ d - q, 2) <= 1e-12


def test_intertwiner_names_the_first_bad_fiber_of_a_stack():
    one, two, far = (np.diag(d).astype(complex) for d in ([1.0, 0.0], [1.0, 1.0], [0.0, 1.0]))
    p = MatField([one, one, two, one])
    with pytest.raises(LabError, match=r"rank mismatch: cannot intertwine projections of ranks 1 -> 2"):
        _intertwiner(p, MatField([one, one, one, one]))
    with pytest.raises(LabError, match="too far apart"):
        _intertwiner(MatField([one, one, one, one]), MatField([one, far, two, one]))
    with pytest.raises(LabError, match="rank mismatch"):
        _intertwiner(p, MatField([one, one, one, far]))


def svd_intertwiner(p, q):
    """One fiber's intertwiner from its own decomposition, for equal nonzero ranks."""
    u, sv, vh = np.linalg.svd(p @ q)
    keep = sv > 0.5
    return u[:, keep] @ vh[keep, :]


def test_intertwiner_stack_equals_its_fibers_exactly(monkeypatch):
    pairs = []

    def recording(p, q):
        pairs.append((p, q))
        return _intertwiner(p, q)

    monkeypatch.setattr(lab, "_intertwiner", recording)
    for name in CANONICAL_FAMILY_SCENARIOS:
        for seed in range(3):
            sc = family_scenario(name, seed=seed)
            straighten_family(sc.small, sc.large, sc.infinite_vertices, sc.fields)
    assert len(pairs) == 15
    for p, q in pairs:
        d = _intertwiner(p, q)
        assert (d.fibers == np.stack([_intertwiner_fiber(a, b) for a, b in zip(p.fibers, q.fibers)])).all()
        assert (d.fibers == np.stack([svd_intertwiner(a, b) for a, b in zip(p.fibers, q.fibers)])).all()
        assert (d @ d.H).allclose(p) and (d.H @ d).allclose(q)


def reference_residuals(graph, infinite_vertices, fields):
    """condition_o_residuals term by term, each term's norm fiber by fiber."""

    def norm(x):
        return max(float(np.linalg.norm(a, 2)) for a in x.fibers)

    d = frozenset(infinite_vertices)
    xi, _ = _vertex_projections(graph, d, fields)
    res = dict.fromkeys(("o1", "o2", "o3", "o4", "o5", "o6"), 0.0)
    verts = sorted(graph.vertices)
    for v in verts:
        # every in-edge's e*e must equal the first one's
        candidates = [fields[e].H @ fields[e] for e, _, _ in graph.in_edges(v)]
        for other in candidates[1:]:
            res["o3"] = max(res["o3"], norm(candidates[0] - other))
    for eid, _, _ in graph.edges:
        a = fields[eid].fibers
        res["o1"] = max(res["o1"], norm(MatField(a @ a.conj().swapaxes(-1, -2) @ a - a)))
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            res["o2"] = max(res["o2"], norm(xi[u] @ xi[v]))
    for u in sorted(d):
        out = graph.out_edges(u)
        for i, (e, _, _) in enumerate(out):
            res["o4"] = max(res["o4"], norm((xi[u] @ fields[e]) - fields[e]))
            for g, _, _ in out[i + 1 :]:
                res["o5"] = max(res["o5"], norm(fields[e].H @ fields[g]))
    for u in verts:
        out = graph.out_edges(u)
        if u not in d and out:
            ranges = [fields[e[0]] @ fields[e[0]].H for e in out]
            res["o6"] = max(res["o6"], norm(xi[u] - sum(ranges[1:], ranges[0])))
    return res


@pytest.mark.parametrize("name", CANONICAL_FAMILY_SCENARIOS)
@pytest.mark.parametrize("seed", range(3))
def test_condition_o_residuals_equal_the_per_term_reference_exactly(name, seed):
    sc = family_scenario(name, seed=seed)
    out = straighten_family(sc.small, sc.large, sc.infinite_vertices, sc.fields)
    cases = [(sc.large, sc.fields), (sc.large, out)]
    if sc.small.edges:
        cases.append((sc.small, sc.fields))
    for graph, fields in cases:
        res = condition_o_residuals(graph, sc.infinite_vertices, fields)
        assert list(res) == ["o1", "o2", "o3", "o4", "o5", "o6"]
        assert res == reference_residuals(graph, sc.infinite_vertices, fields)


def test_family_rejects_a_graph_without_edges():
    g = FiniteGraph({"v"}, [])
    with pytest.raises(LabError, match="no edges"):
        straighten_family(g, g, frozenset(), {})
