"""Numerical perturbation-lab tests."""

import numpy as np
import pytest

from graphck import scenarios
from graphck.lab import (
    LabError,
    MatField,
    approximate_unit,
    condition_o_residuals,
    j_residual,
    lemma36_w,
    partial_isometry_defect,
    straighten,
    straighten_family,
    _intertwiner_fiber,
)
from graphck.scenarios import (
    CANONICAL_FAMILY_SCENARIOS,
    CANONICAL_W_SCENARIOS,
    family_scenario,
    injected_defect_trial,
    lemma36_scenario,
    random_partial_isometry,
)

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


def test_matfield_holds_one_read_only_stack():
    f = MatField.scalar([0.5, 1.0, 2.0], 3)
    assert f.fibers.shape == (3, 3, 3) and f.fibers.dtype == complex
    assert (f.grid_size, f.dim) == (2, 3)
    assert not f.fibers.flags.writeable
    with pytest.raises(ValueError):
        f.fibers[1, 0, 0] = 7.0
    for g in (f + f, f - f, f @ f, 2.0 * f, -f, f.H, MatField.zero(2, 3), MatField.constant(np.eye(3), 2)):
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
    ],
    ids=["empty", "empty_stack", "ragged", "ragged_rank", "non_square", "vectors", "four_dim"],
)
def test_matfield_rejects_empty_ragged_and_non_square_fibers(fibers):
    with pytest.raises(LabError):
        MatField(fibers)


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


def test_straighten_idempotent_and_scalar_central():
    trial = injected_defect_trial(7, 1e-2)
    field = MatField.constant(trial.x, 8)
    y = straighten(field)
    again = straighten(y)
    assert (again - y).norm() <= 1e-10
    g = MatField.scalar([0.3 + 0.1 * s for s in range(9)], 6)
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


def test_family_rejects_excess_defects(monkeypatch):
    monkeypatch.setattr(scenarios, "FAMILY_NOISE", 0.2)
    sc = family_scenario("unitary_extension", seed=1)
    with pytest.raises(LabError, match="family defects .* exceed tol 0.05"):
        straighten_family(sc.small, sc.large, sc.infinite_vertices, sc.fields)


def test_family_rejects_inexact_small_family():
    sc = family_scenario("orthogonal_pair", seed=2)
    fields = dict(sc.fields)
    fields["g"] = 0.99 * fields["g"]
    with pytest.raises(LabError):
        straighten_family(sc.small, sc.large, sc.infinite_vertices, fields)


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
