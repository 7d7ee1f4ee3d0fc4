"""Dispersal certificates, bound functions, and the instability verifier."""

import math

import numpy as np
import pytest

from _oracles import tilted_rings
from lohesphere.dynamics import (
    LoheSystem,
    homo_rhs,
    random_configuration,
    random_frequencies,
    zero_frequencies,
)
from lohesphere.network import (
    CouplingGraph,
    complete_graph,
    cycle_graph,
    from_edge_list,
    path_graph,
)
from lohesphere.stability import (
    BoundReport,
    bound_f,
    g1,
    g2,
    is_dispersed,
    lagrange_residual,
    lagrange_roots,
    theorem_rhs,
    twisted_state,
    verify_theorem,
)


def _homo_cycle(N, n, gain=1.0):
    return LoheSystem(cycle_graph(N, gain=gain), zero_frequencies(N, n))


def test_is_dispersed_identical_points():
    x = np.tile([0.0, 1.0, 0.0], (4, 1))
    rep = is_dispersed(x)
    assert not rep.dispersed
    assert rep.hull_min_norm == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rep.witness, [0.0, 1.0, 0.0], atol=1e-9)


def test_is_dispersed_antipodal_pair():
    rep = is_dispersed(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert rep.dispersed
    assert rep.hull_min_norm <= 1e-9
    assert rep.witness is None


def test_is_dispersed_twisted_square():
    rep = is_dispersed(twisted_state(4, 1, n=2))
    assert rep.dispersed
    assert rep.hull_min_norm <= 1e-9


def test_is_dispersed_boundary_counts_as_dispersed():
    # origin sits on the hull boundary (the segment between the first two)
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert is_dispersed(x).dispersed


def test_is_dispersed_witness_soundness():
    rng = np.random.default_rng(17)
    seen_cohesive = 0
    for _ in range(30):
        center = rng.standard_normal(3)
        center /= np.linalg.norm(center)
        x = center + 0.4 * rng.standard_normal((6, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        rep = is_dispersed(x)
        if not rep.dispersed:
            seen_cohesive += 1
            assert np.min(x @ rep.witness) > 0.0
        else:
            assert rep.witness is None
    assert seen_cohesive > 10
    for x in tilted_rings():
        rep = is_dispersed(x)
        assert rep.witness is None if rep.dispersed else np.min(x @ rep.witness) > 0.0


def test_bound_f_phase_synced_zero():
    x = np.tile([1.0, 0.0, 0.0], (5, 1))
    assert bound_f(cycle_graph(5, gain=2.0), x, n=2) == 0.0


def test_bound_f_antipodal_pair():
    g = path_graph(2, gain=1.0)
    x = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    assert bound_f(g, x, n=2) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_bound_f_twisted_fixtures():
    cases = [
        (6, 1, 2, 1.0 / 6.0),
        (4, 1, 2, 2.0 / 3.0),
        (3, 1, 2, 1.5),
        (8, 1, 3, (5.0 - 3.0 * math.sqrt(2.0)) / 4.0),
        (12, 2, 3, 0.375),
    ]
    for N, q, n, expect in cases:
        x = twisted_state(N, q, n)
        assert bound_f(cycle_graph(N, gain=1.0), x, n) == pytest.approx(expect, rel=1e-12)


def test_bound_f_on_even_twisted_equals_g1():
    # all 2m cycle edges sit at angle pi/m, so the N-term sum collapses
    # to the uniform-family value at m agents
    for m in (2, 3, 4):
        for K in (1.0, 0.7):
            for n in (2, 3):
                x = twisted_state(2 * m, 1, n)
                f = bound_f(cycle_graph(2 * m, gain=K), x, n)
                assert f == pytest.approx(g1(K, n, m), rel=1e-12)


def test_bound_f_matches_edge_loop():
    rng = np.random.default_rng(43)
    for _ in range(40):
        N = int(rng.integers(2, 15))
        n = int(rng.integers(1, 4))
        pairs = {(int(rng.integers(0, t)), t) for t in range(1, N)}
        for _ in range(int(rng.integers(0, N))):
            a, b = sorted(int(v) for v in rng.choice(N, size=2, replace=False))
            pairs.add((a, b))
        g = from_edge_list(N, [(a + 1, b + 1, float(rng.uniform(0.1, 3.0))) for a, b in pairs])
        x = random_configuration(rng, N, n)
        loop = 0.0
        for (i, j), k in zip(g.edges, g.gains):
            c = float(np.clip(x[i] @ x[j], -1.0, 1.0))
            loop += k * (n - 1 - c) * (1 - c)
        loop = 2.0 * loop / (N * (n + 1))
        assert abs(bound_f(g, x, n) - loop) <= 1e-13 * max(abs(loop), 1.0)


def test_bound_f_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        bound_f(path_graph(3, gain=1.0), np.eye(3), n=3)


def test_theorem_rhs_values():
    assert theorem_rhs(1.0, 2, 2) == pytest.approx(1.0 / 3.0, rel=1e-14)
    expect = (1.0 - math.sqrt(2.0) / 2.0) ** 2 / 3.0
    assert theorem_rhs(1.0, 2, 4) == pytest.approx(expect, rel=1e-13)
    c = math.sqrt(3.0) / 2.0
    assert theorem_rhs(1.0, 2, 6) == pytest.approx((1 - c) * (1 - c) / 3.0, rel=1e-13)


def test_theorem_rhs_linear_in_K():
    base = theorem_rhs(1.0, 3, 7)
    assert theorem_rhs(2.5, 3, 7) == pytest.approx(2.5 * base, rel=1e-14)


def test_theorem_rhs_factor_two_variant():
    assert theorem_rhs(1.3, 4, 9, factor=2) == pytest.approx(
        2.0 * theorem_rhs(1.3, 4, 9), rel=1e-14
    )
    assert g1(1.3, 4, 9) == theorem_rhs(1.3, 4, 9, factor=2)


def test_theorem_rhs_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        theorem_rhs(1.0, 1, 4)
    with pytest.raises(ValueError, match="K"):
        theorem_rhs(0.0, 2, 4)
    with pytest.raises(ValueError, match="agents"):
        theorem_rhs(1.0, 2, 1)
    with pytest.raises(ValueError, match="factor"):
        theorem_rhs(1.0, 2, 4, factor=3)


def test_g1_closed_forms():
    for K in (1.0, 2.5):
        for n in range(2, 7):
            assert g1(K, n, 2) == pytest.approx(2 * K * (n - 1) / (n + 1), rel=1e-12)
            assert g1(K, n, 3) == pytest.approx(K * (n - 1.5) / (n + 1), rel=1e-12)
            expect4 = K * ((2 - math.sqrt(2)) * n - 1) / (n + 1)
            assert g1(K, n, 4) == pytest.approx(expect4, rel=1e-12)


def test_g2_two_agent_identity():
    # g2 at N=2 exceeds g1 by exactly (2K/(n+1)) cos^2 phi
    for n in (2, 3, 5):
        for phi in np.linspace(math.pi / 2, math.pi, 102)[1:-1]:
            expect = g1(1.0, n, 2) + 2.0 / (n + 1) * math.cos(phi) ** 2
            assert g2(1.0, n, 2, phi) == pytest.approx(expect, rel=1e-12)


def test_g1_beats_g2_for_five_or_more_agents():
    grid = np.linspace(math.pi / 2, math.pi, 102)[1:-1]
    for N in range(5, 13):
        for n in range(2, 7):
            base = g1(1.0, n, N)
            assert all(base < g2(1.0, n, N, phi) for phi in grid)


def test_g2_minus_g1_positive_for_small_N():
    grid = np.linspace(math.pi / 2, math.pi, 102)[1:-1]
    for N in (2, 3, 4):
        for n in (2, 3, 4):
            assert all(g2(1.0, n, N, phi) > g1(1.0, n, N) for phi in grid)


def test_g2_rejects_phi_out_of_range():
    for phi in (0.0, math.pi / 2, math.pi, 4.0):
        with pytest.raises(ValueError, match="phi"):
            g2(1.0, 2, 4, phi)


def test_theorem_rhs_asymptotic_rates():
    # N^4 rate on the 2-sphere, N^2 rate above
    r = lambda n, N: theorem_rhs(1.0, n, N)
    assert abs(r(2, 64) * 64**4 / (r(2, 128) * 128**4) - 1.0) <= 0.05
    assert abs(r(3, 64) * 64**2 / (r(3, 128) * 128**2) - 1.0) <= 0.05


def test_lagrange_uniform_family_is_stationary():
    for N in (3, 5, 8):
        for n in (2, 3):
            theta = math.pi / N
            lam = -2.0 * 1.0 * math.sin(theta) * (n - 2.0 * math.cos(theta)) / (N * (n + 1))
            res = lagrange_residual([theta] * N, lam, n, 1.0, N)
            assert np.max(np.abs(res)) <= 1e-12
            roots = lagrange_roots(lam, n, 1.0, N)
            assert min(abs(rt - theta) for rt in roots) <= 1e-10


def test_lagrange_zero_multiplier_roots_are_endpoints():
    res = lagrange_residual([0.0, math.pi], 0.0, 2, 1.0, 5)
    assert np.max(np.abs(res)) <= 1e-15
    assert lagrange_roots(0.0, 2, 1.0, 5) == [0.0, math.pi]


def test_lagrange_positive_multiplier_has_no_roots():
    for lam in (1e-6, 0.1, 2.0):
        assert lagrange_roots(lam, 2, 1.0, 4) == []
        assert lagrange_roots(lam, 5, 2.0, 7) == []


def test_lagrange_constant_above_peak_has_no_roots():
    # peak of sin t (n - 2 cos t) for n = 2 sits at t = 2 pi / 3, value 3 sqrt(3)/2
    n, N, K = 2, 4, 1.0
    smax = 3.0 * math.sqrt(3.0) / 2.0
    lam = -2.0 * K * (smax * 1.001) / (N * (n + 1))
    assert lagrange_roots(lam, n, K, N) == []
    lam = -2.0 * K * (smax * 0.9) / (N * (n + 1))
    assert len(lagrange_roots(lam, n, K, N)) == 2


def test_lagrange_two_branch_roots_solve_equation():
    n, N, K = 3, 6, 1.3
    lam = -0.08
    roots = lagrange_roots(lam, n, K, N)
    assert len(roots) == 2
    assert roots[0] < roots[1]
    for rt in roots:
        assert abs(lagrange_residual(rt, lam, n, K, N)) <= 1e-10


def test_twisted_state_square_hits_cardinal_points():
    x = twisted_state(4, 1, n=2)
    expect = np.array(
        [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float
    )
    assert np.allclose(x, expect, atol=1e-15)


@pytest.mark.parametrize("N, q, n", [(6, 1, 2), (12, 1, 2), (7, 3, 4)])
def test_twisted_state_is_the_closed_form_bit_for_bit(N, q, n):
    # row i is (cos t_i, sin t_i, 0, ..., 0) with t_i = 2 pi q i / N, as one
    # agent at a time computes it: the start of every twisted run
    expect = np.zeros((N, n + 1))
    for i in range(N):
        phase = 2.0 * math.pi * q * i / N
        expect[i, :2] = math.cos(phase), math.sin(phase)
    assert np.array_equal(twisted_state(N, q, n), expect)


def test_twisted_states_are_cycle_equilibria():
    for N in range(3, 10):
        for q in (1, 2):
            for n in (1, 2, 3):
                x = twisted_state(N, q, n)
                g = cycle_graph(N, gain=1.0)
                field = homo_rhs(g, x)
                assert np.max(np.linalg.norm(field, axis=1)) <= 1e-12


def test_twisted_states_q1_dispersed():
    for N in range(3, 10):
        assert is_dispersed(twisted_state(N, 1, n=2)).dispersed


def test_twisted_state_validation():
    with pytest.raises(ValueError, match="N >= 3"):
        twisted_state(2, 1, n=2)
    with pytest.raises(ValueError, match="winding"):
        twisted_state(4, 0, n=2)
    with pytest.raises(ValueError, match="winding"):
        twisted_state(4, 4, n=2)
    with pytest.raises(ValueError, match="dimension"):
        twisted_state(4, 1, n=0)


def test_verify_theorem_homogeneous_twisted():
    sys = _homo_cycle(6, 2)
    rep = verify_theorem(sys, twisted_state(6, 1, n=2))
    assert rep.premise_holds
    assert rep.conclusion_holds
    assert rep.violated_links == ()
    assert rep.dispersed.dispersed
    assert rep.f_value == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert rep.linearization.beta >= rep.f_value - 1e-12
    assert rep.linearization.beta == pytest.approx(1.0, abs=1e-9)


def test_verify_theorem_frequency_below_budget():
    N, n = 6, 2
    rng = np.random.default_rng(1)
    budget = theorem_rhs(1.0, n, N)
    omegas = random_frequencies(rng, N, n, total_norm=0.9 * budget)
    sys = LoheSystem(cycle_graph(N, gain=1.0), omegas)
    rep = verify_theorem(sys, twisted_state(N, 1, n))
    assert rep.premise_holds
    assert rep.conclusion_holds
    assert rep.linearization.alpha_re > 0
    assert rep.violated_links == ()


def test_verify_theorem_synchronized_state_has_no_conclusion():
    # The top eigenvalue there is 0; the symmetric solve returns it as +eps.
    rng = np.random.default_rng(0)
    for make in (cycle_graph, path_graph, complete_graph):
        for N in (4, 7, 12, 30):
            for n in (2, 3):
                x = np.repeat(random_configuration(rng, 1, n), N, axis=0)
                rep = verify_theorem(LoheSystem(make(N, gain=1.0), zero_frequencies(N, n)), x)
                assert abs(rep.linearization.alpha_re) <= 1e-12
                assert not rep.conclusion_holds


def test_verify_theorem_frequency_above_budget():
    N, n = 6, 2
    rng = np.random.default_rng(2)
    budget = theorem_rhs(1.0, n, N)
    omegas = random_frequencies(rng, N, n, total_norm=10.0 * budget)
    sys = LoheSystem(cycle_graph(N, gain=1.0), omegas)
    rep = verify_theorem(sys, twisted_state(N, 1, n))
    assert not rep.premise_holds
    assert isinstance(rep.conclusion_holds, bool)
    assert isinstance(rep, BoundReport)


def test_verify_theorem_factor_two_variant():
    sys = _homo_cycle(4, 2)
    r1 = verify_theorem(sys, twisted_state(4, 1, n=2), factor=1)
    r2 = verify_theorem(sys, twisted_state(4, 1, n=2), factor=2)
    assert r2.theorem_rhs == pytest.approx(2.0 * r1.theorem_rhs, rel=1e-14)
    assert r2.factor == 2


def test_chain_inequality_on_twisted_fixtures():
    for N in range(3, 13):
        for q in (1, 2):
            for n in (2, 3):
                sys = _homo_cycle(N, n)
                rep = verify_theorem(sys, twisted_state(N, q, n))
                assert rep.linearization.beta >= rep.f_value - 1e-9
                assert rep.violated_links == ()


def test_perturbation_inequality_on_random_pairs():
    rng = np.random.default_rng(99)
    for _ in range(200):
        N = int(rng.integers(3, 13))
        q = int(rng.integers(1, 3))
        n = int(rng.integers(2, 4))
        scale = float(rng.uniform(0.0, 2.0))
        omegas = random_frequencies(rng, N, n, total_norm=scale)
        sys = LoheSystem(cycle_graph(N, gain=1.0), omegas)
        rep = verify_theorem(sys, twisted_state(N, q, n))
        assert rep.linearization.kahan_gap <= rep.linearization.omega_norm + 1e-8


def test_bound_report_json_keys():
    sys = _homo_cycle(4, 2)
    rep = verify_theorem(sys, twisted_state(4, 1, n=2))
    d = rep.to_json_dict()
    required = {
        "beta",
        "alpha_re",
        "kahan_gap",
        "omega_norm",
        "theorem_rhs",
        "premise_holds",
        "conclusion_holds",
        "spectrum_A",
    }
    assert required <= set(d)
    assert d["dispersed"] is True
    assert d["violated_links"] == []
