"""Integrator, equilibrium refinement, and cap-radius diagnostics."""

import itertools
import math
import pickle

import numpy as np
import pytest

from lohesphere import dynamics
from lohesphere.dynamics import (
    LoheSystem,
    disagreement,
    extended_rhs,
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
from lohesphere.geometry import pairwise_angle
from lohesphere.simulate import (
    EquilibriumResult,
    IntegrationDiverged,
    Trajectory,
    _SphereRK4,
    _edge_angles,
    find_equilibrium,
    integrate,
    integrate_kuramoto,
    sync_radius,
)
from lohesphere.stability import is_dispersed, twisted_state
from lohesphere import hull


def _homo(graph, n=2):
    return LoheSystem(graph, zero_frequencies(graph.n_nodes, n))


def test_synced_state_is_constant():
    g = complete_graph(4, gain=1.0)
    sys = _homo(g)
    x0 = np.tile([0.0, 0.0, 1.0], (4, 1))
    traj = integrate(sys, x0, dt=1e-2, t_end=1.0, sample_every=10)
    assert np.allclose(traj.states, x0[None], atol=1e-14)
    assert np.all(traj.disagreement == 0.0)


def test_energy_descent_on_homogeneous_path():
    g = path_graph(5, gain=1.0)
    sys = _homo(g)
    rng = np.random.default_rng(7)
    x0 = random_configuration(rng, 5, 2)
    traj = integrate(sys, x0, dt=2e-3, t_end=20.0, sample_every=200)
    v = traj.disagreement
    assert np.all(np.diff(v) <= 1e-10)
    assert v[-1] < v[0]


def test_single_agent_rotation_matches_closed_form():
    # one agent, no edges: xdot = Omega x, exactly a rotation in the
    # e1-e2 plane, x(t) = (cos t, -sin t, 0)
    g = CouplingGraph(1, (), ())
    omega = np.array([[[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
    sys = LoheSystem(g, omega)
    x0 = np.array([[1.0, 0.0, 0.0]])
    traj = integrate(sys, x0, dt=1e-3, t_end=math.pi / 2, sample_every=100)
    for t, state in zip(traj.times, traj.states):
        expect = np.array([math.cos(t), -math.sin(t), 0.0])
        assert np.linalg.norm(state[0] - expect) < 1e-6
    assert np.linalg.norm(traj.final_state[0] - [0.0, -1.0, 0.0]) < 1e-6


def test_norm_drift_small_and_first_row_zero():
    g = cycle_graph(4, gain=1.0)
    sys = _homo(g)
    rng = np.random.default_rng(3)
    x0 = random_configuration(rng, 4, 2)
    traj = integrate(sys, x0, dt=1e-3, t_end=0.5, sample_every=50)
    assert traj.norm_drift[0] == 0.0
    assert np.max(traj.norm_drift) <= 1e-9
    norms = np.linalg.norm(traj.states, axis=2)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_order_of_convergence_at_least_two():
    # halving dt must cut the endpoint error against a dt/8 reference by
    # 8x or more; RK4 actually gives ~16x
    g = path_graph(6, gain=1.0)
    sys = _homo(g)
    rng = np.random.default_rng(11)
    x0 = random_configuration(rng, 6, 2)

    def endpoint(dt):
        return integrate(sys, x0, dt=dt, t_end=1.0, sample_every=10 ** 9).final_state

    ref = endpoint(0.0025)
    e1 = np.max(np.abs(endpoint(0.02) - ref))
    e2 = np.max(np.abs(endpoint(0.01) - ref))
    assert e1 / e2 >= 8.0


def test_non_finite_initial_state_raises():
    g = path_graph(2, gain=1.0)
    sys = _homo(g)
    x0 = np.array([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(IntegrationDiverged) as exc:
        integrate(sys, x0, dt=1e-2, t_end=1.0)
    assert exc.value.time == 0.0


def test_blowup_raises_with_positive_time():
    g = path_graph(2, gain=1.0)
    omega = np.zeros((2, 3, 3))
    omega[0] = 1e160 * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    sys = LoheSystem(g, omega)
    x0 = np.eye(3)[:2]
    # pytest turns a RuntimeWarning into an error: the overflow on the way warns nothing
    with pytest.raises(IntegrationDiverged) as exc:
        integrate(sys, x0, dt=1e160, t_end=1e162)
    assert exc.value.time > 0.0
    assert "diverged" in str(exc.value)


def test_integration_diverged_survives_pickling():
    # sweep workers hand the error back to the parent through pickle
    err = pickle.loads(pickle.dumps(IntegrationDiverged(1.5, "agent norm collapsed")))
    assert err.time == 1.5
    assert str(err) == "integration diverged at t=1.5: agent norm collapsed"


def test_sampling_grid_and_fractional_last_step():
    g = path_graph(2, gain=1.0)
    sys = _homo(g)
    x0 = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    traj = integrate(sys, x0, dt=0.004, t_end=0.05, sample_every=5)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 0.05
    assert np.all(np.diff(traj.times) > 0)
    # interior samples land on multiples of 5 * dt
    assert traj.times[1] == pytest.approx(0.02)


def test_integrate_rejects_bad_parameters():
    g = path_graph(2, gain=1.0)
    sys = _homo(g)
    x0 = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    with pytest.raises(ValueError, match="dt"):
        integrate(sys, x0, dt=-1.0)
    with pytest.raises(ValueError, match="t_end"):
        integrate(sys, x0, t_end=0.0)
    with pytest.raises(ValueError, match="sample_every"):
        integrate(sys, x0, sample_every=0)
    # a start off the sphere would be recorded unnormalized as sample 0
    with pytest.raises(ValueError, match="unit"):
        integrate(sys, 2.0 * x0)
    with pytest.raises(ValueError, match="unit"):
        integrate(sys, x0 * (1.0 + 2e-9))


def _reference_rk4(system, x0, dt, t_end):
    """Plain RK4 over the public extended_rhs, renormalizing after each step."""
    x = np.array(x0, dtype=float)
    n_steps = int(math.ceil(t_end / dt - 1e-12))
    for step in range(1, n_steps + 1):
        h = dt if step < n_steps else t_end - dt * (n_steps - 1)
        k1 = extended_rhs(system, x)
        k2 = extended_rhs(system, x + (h / 2) * k1)
        k3 = extended_rhs(system, x + (h / 2) * k2)
        k4 = extended_rhs(system, x + h * k3)
        xt = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        x = xt / np.linalg.norm(xt, axis=1, keepdims=True)
    return x


@pytest.mark.parametrize("make_graph", [path_graph, cycle_graph, complete_graph])
@pytest.mark.parametrize("n", [2, 3])
def test_integrate_matches_reference_rk4_loop(make_graph, n):
    rng = np.random.default_rng(40 + n)
    g = make_graph(7, gain=1.3)
    sys = LoheSystem(g, random_frequencies(rng, 7, n, total_norm=0.9))
    x0 = random_configuration(rng, 7, n)
    traj = integrate(sys, x0, dt=1e-2, t_end=3.005, sample_every=50)
    ref = _reference_rk4(sys, x0, 1e-2, 3.005)
    assert np.max(np.abs(traj.final_state - ref)) <= 1e-13


def _plain_sphere_step(system, x, h):
    """One plain RK4 step over the public extended_rhs, then renormalization; returns
    the new state and the largest row-norm deviation before renormalization."""
    k1 = extended_rhs(system, x)
    k2 = extended_rhs(system, x + (h / 2) * k1)
    k3 = extended_rhs(system, x + (h / 2) * k2)
    k4 = extended_rhs(system, x + h * k3)
    xt = x + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    norms = np.linalg.norm(xt, axis=1, keepdims=True)
    return xt / norms, np.max(np.abs(norms - 1.0))


def _gained_graph(rng, N):
    """A connected graph on N nodes with gains in [0.5, 2]: a path plus random chords."""
    if N == 1:
        return CouplingGraph(n_nodes=1, edges=(), gains=())
    pairs = {(i, i + 1) for i in range(N - 1)}
    pairs |= {tuple(sorted(p)) for p in rng.integers(0, N, size=(N, 2)).tolist() if p[0] != p[1]}
    return from_edge_list(N, [(i + 1, j + 1, rng.uniform(0.5, 2.0)) for i, j in sorted(pairs)])


@pytest.mark.parametrize("N", [1, 2, 10, 40, 300])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("drift", [0.0, 0.8])
def test_kernel_step_is_a_plain_rk4_step_over_extended_rhs(N, d, drift):
    rng = np.random.default_rng([N, d, int(10 * drift)])
    g = _gained_graph(rng, N)
    omegas = (random_frequencies(rng, N, d - 1, drift * N) if drift
              else zero_frequencies(N, d - 1))
    sys = LoheSystem(g, omegas)
    x = random_configuration(rng, N, d - 1)
    kernel = _SphereRK4(sys, x)
    # the block product reads W; above BLOCK_MAX the kernel calls the graph's neighbour sum
    assert ("neighbor_sum" in g.__dict__) is (N * d > dynamics.BLOCK_MAX)
    assert (N * d <= dynamics.BLOCK_MAX) is (N <= 10 or (N == 40 and d < 4))
    for step, h in enumerate((0.05, 0.05, 0.0125), start=1):
        ref, ref_deviation = _plain_sphere_step(sys, x, h)
        deviation = kernel.step(h, step * 0.05)
        assert np.max(np.abs(kernel.x - ref)) <= 1e-14
        assert abs(deviation - ref_deviation) <= 1e-14
        x = ref


def test_kernel_first_step_from_a_start_unit_to_within_1e_9():
    # the drift and the base point use x0 as given, the coupling x0 / |x0|
    rng = np.random.default_rng(11)
    sys = LoheSystem(_gained_graph(rng, 6), random_frequencies(rng, 6, 2, 2.0))
    x0 = random_configuration(rng, 6, 2) * (1.0 + 9e-10 * rng.choice([-1.0, 1.0], size=(6, 1)))
    ref, _ = _plain_sphere_step(sys, x0, 0.1)
    traj = integrate(sys, x0, dt=0.1, t_end=0.1, sample_every=1)
    assert np.array_equal(traj.states[0], x0)
    assert np.max(np.abs(traj.final_state - ref)) <= 1e-14
    # the next step couples through the renormalized state
    kernel = _SphereRK4(sys, x0)
    kernel.step(0.1, 0.1)
    kernel.step(0.1, 0.2)
    assert np.max(np.abs(kernel.x - _plain_sphere_step(sys, ref, 0.1)[0])) <= 1e-14


def test_kernel_divergence_messages_carry_the_step_end_time():
    # a stage input that collapses: agent 1 at 1e-10 e_1 has k1 = 0 (no drift, and its
    # neighbour pulls it along its own direction), so stage 2 sees a row norm of 1e-10
    g = path_graph(2, gain=1.0)
    kernel = _SphereRK4(_homo(g, 1), np.array([[1e-10, 0.0], [1.0, 0.0]]))
    with pytest.raises(IntegrationDiverged, match="agent norm collapsed") as exc:
        kernel.step(0.25, 3.25)
    assert exc.value.time == 3.25
    # drift past the float range: the step's end is non-finite, and no warning is raised
    sys = LoheSystem(g, np.array([[[0.0, -1e300], [1e300, 0.0]]] * 2))
    with pytest.raises(IntegrationDiverged, match="non-finite state") as exc:
        integrate(sys, np.array([[1.0, 0.0], [0.0, 1.0]]), dt=0.5, t_end=2.0)
    assert exc.value.time == 0.5
    # the stage-4 collapse of the command-line test, stamped with that step's end
    w, dt = 0.6734296154702647, 2.4121854658376325
    sys = LoheSystem(g, np.array([[[0.0, -w], [w, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]))
    x0 = np.array([[1.0, 0.0], [0.20663672864359825, 0.9784177340867611]])
    with pytest.raises(IntegrationDiverged, match="agent norm collapsed") as exc:
        integrate(sys, x0, dt=dt, t_end=dt, sample_every=1)
    assert exc.value.time == dt


def test_integrate_validates_state_once_not_per_step(monkeypatch):
    import lohesphere.dynamics

    calls = []
    check = lohesphere.dynamics._check_config

    def counting(*args):
        calls.append(1)
        return check(*args)

    monkeypatch.setattr(lohesphere.dynamics, "_check_config", counting)
    rng = np.random.default_rng(5)
    sys = LoheSystem(path_graph(4, gain=1.0), random_frequencies(rng, 4, 2, total_norm=0.5))
    x0 = random_configuration(rng, 4, 2)
    dt = 2.0**-7
    counts = []
    for steps in (100, 1000):  # one sample at t = 0 and one at t_end either way
        calls.clear()
        traj = integrate(sys, x0, dt=dt, t_end=steps * dt, sample_every=steps)
        assert len(traj.times) == 2
        counts.append(len(calls))
    assert counts[0] == counts[1] < 100


def test_trajectory_validates_column_lengths():
    t = np.array([0.0, 1.0])
    ok = dict(
        times=t,
        states=np.zeros((2, 1, 3)),
        disagreement=np.zeros(2),
        sync_radius=np.zeros(2),
        min_edge_angle=np.zeros(2),
        max_edge_angle=np.zeros(2),
        norm_drift=np.zeros(2),
    )
    Trajectory(**ok)
    bad = dict(ok, disagreement=np.zeros(3))
    with pytest.raises(ValueError, match="length"):
        Trajectory(**bad)
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(**dict(ok, times=np.array([0.0, 0.0])))


def test_csv_round_trip_and_determinism(tmp_path):
    g = cycle_graph(3, gain=2.0)
    sys = _homo(g)
    rng = np.random.default_rng(5)
    x0 = random_configuration(rng, 3, 2)
    traj = integrate(sys, x0, dt=1e-2, t_end=0.5, sample_every=10)

    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    traj.write_csv(p1)
    traj.write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()

    lines = p1.read_text().strip().split("\n")
    assert lines[0] == "t,V,sync_radius,min_edge_angle,max_edge_angle,norm_drift"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    # 17 significant digits round-trips doubles exactly
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1], traj.disagreement)
    assert np.array_equal(data[:, 2], traj.sync_radius)


def test_final_json_contents():
    g = complete_graph(3, gain=1.0)
    sys = _homo(g)
    x0 = np.tile([1.0, 0.0, 0.0], (3, 1))
    traj = integrate(sys, x0, dt=1e-2, t_end=0.1, sample_every=5)
    final = traj.final_json_dict()
    assert final["t"] == pytest.approx(0.1)
    assert final["practically_synced"] is True
    assert np.allclose(final["points"], x0)
    assert final["disagreement"] == 0.0


def test_sync_radius_identical_points_zero():
    x = np.tile([0.0, 1.0, 0.0], (5, 1))
    assert sync_radius(x) == 0.0


def test_sync_radius_antipodal_pair_is_half_pi():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert abs(sync_radius(x) - math.pi / 2) < 1e-6


def test_sync_radius_twisted_square_is_half_pi():
    x = twisted_state(4, 1, n=2)
    r = sync_radius(x)
    assert r >= math.pi / 2 - 1e-9
    assert r <= math.pi / 2 + 1e-6


def test_sync_radius_matches_hull_duality_on_cohesive_cluster():
    # for a cluster inside an open hemisphere the max-min value equals
    # the norm of the minimum-norm hull point
    rng = np.random.default_rng(21)
    for _ in range(10):
        center = rng.standard_normal(4)
        center /= np.linalg.norm(center)
        x = np.array([center + 0.3 * rng.standard_normal(4) for _ in range(6)])
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        p, _ = hull.min_norm_point(x)
        assert abs(sync_radius(x) - math.acos(np.linalg.norm(p))) < 1e-6


def test_sync_radius_range_and_single_agent():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = random_configuration(rng, 5, 2)
        r = sync_radius(x)
        assert 0.0 <= r <= math.pi
    assert sync_radius(np.array([[0.0, 0.0, 1.0]])) == 0.0


def test_sync_radius_cohesive_is_hull_value_for_any_budget():
    # a cohesive radius comes from the hull direction alone
    rng = np.random.default_rng(47)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        center = rng.standard_normal(d)
        center /= np.linalg.norm(center)
        x = center + rng.uniform(0.05, 0.6) * rng.standard_normal((int(rng.integers(2, 10)), d))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        p, _ = hull.min_norm_point(x)
        expected = float(np.arccos(min(float(np.min(x @ (p / np.linalg.norm(p)))), 1.0)))
        assert sync_radius(x) == expected


def test_sync_radius_below_half_pi_exactly_when_cohesive():
    rng = np.random.default_rng(59)
    for _ in range(200):
        x = random_configuration(rng, int(rng.integers(2, 13)), int(rng.integers(1, 5)))
        r = sync_radius(x)
        assert 0.0 <= r <= math.pi
        assert (r < math.pi / 2) == (not is_dispersed(x).dispersed)


def _dispersed_radius_oracle(x):
    """Cap radius of a dispersed, full-dimensional x from every d-subset.

    Each facet plane of the hull passes through d of the points with all
    points on one side; the cap radius is pi/2 + arcsin of the smallest
    facet offset.
    """
    N, d = x.shape
    P = x[np.array(list(itertools.combinations(range(N), d)))]
    _, sv, vt = np.linalg.svd(P[:, 1:] - P[:, :1])
    n = vt[:, -1]
    c = np.vecdot(n, P[:, 0])
    h = x @ n.T - c
    spans = sv[:, -1] > 1e-9
    rho = min(np.min(c[spans & np.all(h <= 1e-12, axis=0)], initial=np.inf),
              np.min(-c[spans & np.all(h >= -1e-12, axis=0)], initial=np.inf))
    return math.pi / 2 + math.asin(rho)


def test_sync_radius_dispersed_matches_exhaustive_oracle():
    rng = np.random.default_rng(71)
    checked = 0
    for _ in range(300):
        d = int(rng.integers(2, 6))
        x = random_configuration(rng, int(rng.integers(d + 1, 13)), d - 1)
        if not is_dispersed(x).dispersed:
            continue
        checked += 1
        r = sync_radius(x)
        assert r >= math.pi / 2
        assert abs(r - _dispersed_radius_oracle(x)) <= 1e-12
    assert checked >= 50


def _unit_rows(a):
    a = np.asarray(a, dtype=float)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _degenerate_fixtures():
    """(name, points, exact boundary distance of the hull from the origin)."""
    octahedron = np.vstack([np.eye(3), -np.eye(3)])
    m = 8
    phase = 2 * np.pi * np.arange(m) / m
    ring = np.column_stack([np.cos(phase), np.sin(phase), np.zeros(m)])
    c = math.cos(math.pi / m)
    return [
        ("cube", _unit_rows(list(itertools.product([-1, 1], repeat=3))), 1 / math.sqrt(3)),
        ("octahedron", octahedron, 1 / math.sqrt(3)),
        ("4-cube", _unit_rows(list(itertools.product([-1, 1], repeat=4))), 0.5),
        ("4-cross-polytope", np.vstack([np.eye(4), -np.eye(4)]), 0.5),
        # bipyramid over the ring: facet (r_k, r_k+1, pole) has normal
        # (a cos(mid), a sin(mid), b) with a cos(pi/m) = b
        ("ring+poles", np.vstack([ring, [[0, 0, 1.0], [0, 0, -1.0]]]), c / math.sqrt(1 + c * c)),
        ("duplicated rows", np.vstack([octahedron, octahedron[::-1]]), 1 / math.sqrt(3)),
    ]


@pytest.mark.parametrize("name, x, rho", _degenerate_fixtures())
def test_sync_radius_exact_on_degenerate_hulls(name, x, rho):
    assert abs(sync_radius(x) - (math.pi / 2 + math.asin(rho))) <= 1e-12


def test_sync_radius_flat_or_boundary_origin_is_exactly_half_pi():
    half_sphere = _unit_rows([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    flat = [twisted_state(6, 1, 2), twisted_state(7, 2, 3), half_sphere,
            np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]),
            np.column_stack([twisted_state(5, 1, 2), np.zeros(5)])]
    for x in flat:
        assert sync_radius(x) == math.pi / 2


def test_sync_radius_independent_of_row_order():
    rng = np.random.default_rng(83)
    configs = [x for _, x, _ in _degenerate_fixtures()]
    configs += [random_configuration(rng, int(rng.integers(4, 13)), int(rng.integers(1, 5)))
                for _ in range(30)]
    for x in configs:
        r = sync_radius(x)
        for _ in range(5):
            # 4 ulp at pi: the order changes rounding only
            assert abs(sync_radius(x[rng.permutation(len(x))]) - r) <= 2e-15


def test_sync_radius_facet_cap_warns_and_bounds_from_above(monkeypatch):
    x = random_configuration(np.random.default_rng(89), 300, 2)
    exact = sync_radius(x)
    monkeypatch.setattr(hull, "MAX_FACETS", 20)
    with pytest.warns(RuntimeWarning, match="upper bound"):
        capped = sync_radius(x)
    assert exact < capped <= math.pi


def test_edge_angles_match_pairwise_loop():
    rng = np.random.default_rng(8)
    for _ in range(20):
        N = int(rng.integers(2, 12))
        g = complete_graph(N)
        x = random_configuration(rng, N, int(rng.integers(1, 4)))
        angles = [pairwise_angle(x[i], x[j]) for i, j in g.edges]
        lo, hi = _edge_angles(g, x)
        assert abs(lo - min(angles)) <= 1e-15 and abs(hi - max(angles)) <= 1e-15
    assert _edge_angles(CouplingGraph(n_nodes=1, edges=(), gains=()), np.ones((1, 3))) == (0.0, 0.0)


def test_sync_radius_rejects_bad_shape():
    with pytest.raises(ValueError, match="shape"):
        sync_radius(np.ones(3))


def test_is_practically_synced():
    # the final-state verdict: every agent inside an open cap of half angle pi/4
    tight = np.array([[1.0, 0.0, 0.0], [math.cos(0.1), math.sin(0.1), 0.0]])
    spread = np.array([[1.0, 0.0], [-1.0, 0.0]])
    for x, synced in ((tight, True), (spread, False)):
        traj = integrate(_homo(path_graph(2), x.shape[1] - 1), x, dt=1e-3, t_end=1e-3)
        assert traj.final_json_dict()["practically_synced"] is synced


def test_find_equilibrium_accepts_twisted_state_immediately():
    g = cycle_graph(6, gain=1.0)
    sys = _homo(g)
    x0 = twisted_state(6, 1, n=2)
    res = find_equilibrium(sys, x0, tol=1e-10)
    assert res.converged
    assert res.residual <= 1e-12
    assert res.iterations == 0
    assert np.allclose(res.config, x0, atol=1e-15)


def test_find_equilibrium_homogeneous_random_reaches_sync():
    g = path_graph(4, gain=1.0)
    sys = _homo(g)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        x0 = random_configuration(rng, 4, 2)
        res = find_equilibrium(sys, x0, tol=1e-10, max_time=80.0)
        assert res.converged
        assert res.residual <= 1e-10
        assert disagreement(g, res.config) < 1e-8


def test_find_equilibrium_fast_rotation_reports_failure():
    # on the circle an equilibrium needs |w_i| <= sum_j k_ij, so none
    # exists at this frequency budget and the search must report failure
    g = path_graph(3, gain=1.0)
    rng = np.random.default_rng(0)
    sys = LoheSystem(g, random_frequencies(rng, 3, 1, total_norm=100.0))
    x0 = random_configuration(rng, 3, 1)
    res = find_equilibrium(sys, x0, tol=1e-10, max_time=5.0)
    assert isinstance(res, EquilibriumResult)
    assert not res.converged
    assert res.residual > 1e-10


def test_find_equilibrium_never_loses_ground():
    g = cycle_graph(5, gain=1.0)
    rng = np.random.default_rng(4)
    sys = LoheSystem(g, random_frequencies(rng, 5, 2, total_norm=0.05))
    x0 = twisted_state(5, 1, n=2)
    res = find_equilibrium(sys, x0, tol=1e-10, max_time=0.0)
    from lohesphere.dynamics import hetero_rhs

    start = float(np.max(np.linalg.norm(hetero_rhs(sys, x0), axis=1)))
    assert res.residual <= start + 1e-15


def test_find_equilibrium_newton_needs_no_finite_differences(monkeypatch):
    import lohesphere.simulate
    import lohesphere.spectral

    g = complete_graph(4, gain=1.0)
    rng = np.random.default_rng(21)
    sys = LoheSystem(g, random_frequencies(rng, 4, 2, total_norm=0.3))
    x0 = random_configuration(rng, 4, 2) * 0.2 + np.array([0.0, 0.0, 1.0])
    eq = find_equilibrium(sys, x0, tol=1e-12, max_time=60.0)
    assert eq.converged

    def no_fd(*args, **kwargs):
        raise AssertionError("Newton must use the exact linearization")

    monkeypatch.setattr(lohesphere.spectral, "fd_jacobian", no_fd)
    monkeypatch.setattr(lohesphere.simulate, "fd_jacobian", no_fd, raising=False)
    start = eq.config + 1e-3 * rng.standard_normal(eq.config.shape)
    res = find_equilibrium(sys, start, tol=1e-10, max_time=0.0)
    assert res.converged
    assert res.residual <= 1e-10
    assert 1 <= res.iterations <= 5
    assert np.max(np.abs(res.config - eq.config)) <= 1e-8


def test_find_equilibrium_signature_has_no_tuning_knobs():
    import inspect

    assert list(inspect.signature(find_equilibrium).parameters) == [
        "system", "x0", "tol", "max_time"]


@pytest.mark.parametrize("bad_row", [[np.nan, 0.0, 1.0], [0.0, 0.0, 0.0]])
def test_find_equilibrium_rejects_bad_start_rows(bad_row):
    sys = _homo(cycle_graph(4, gain=1.0))
    x0 = twisted_state(4, 1, n=2)
    x0[2] = bad_row
    for max_time in (0.0, 5.0):
        with pytest.raises(IntegrationDiverged) as exc:
            find_equilibrium(sys, x0, max_time=max_time)
        assert exc.value.time == 0.0
    with pytest.raises(ValueError, match="dimension mismatch"):
        find_equilibrium(sys, x0[:, :2])


def test_find_equilibrium_flow_divergence_is_stamped_with_the_step_time(monkeypatch):
    # no equilibrium exists at this budget, so the flow runs past t = 7;
    # the patched kernel's field turns non-finite from the first stage of
    # step 701, which ends at t = 7.01, inside the second 5-second chunk
    import lohesphere.simulate

    g = path_graph(3, gain=1.0)
    rng = np.random.default_rng(0)
    sys = LoheSystem(g, random_frequencies(rng, 3, 1, total_norm=100.0))
    x0 = random_configuration(rng, 3, 1)
    calls = [0]

    class FailingKernel(lohesphere.simulate._SphereRK4):
        def __init__(self, system, x0):
            super().__init__(system, x0)
            self._stages = tuple(map(self._failing, range(1, 5), self._stages))

        def _failing(self, s, stage):
            def run():
                calls[0] += 1
                stage()
                if calls[0] > 4 * 700:
                    self._stack[s] = np.nan

            return run

    monkeypatch.setattr(lohesphere.simulate, "_SphereRK4", FailingKernel)
    with pytest.raises(IntegrationDiverged) as exc:
        find_equilibrium(sys, x0, tol=1e-10, max_time=20.0)
    assert exc.value.time == pytest.approx(7.01, abs=1e-9)
    assert calls[0] == 4 * 700 + 4


def test_find_equilibrium_builds_no_kernel_when_no_flow_runs(monkeypatch):
    # only the flow builds the RK4 kernel; residuals take the graph's neighbour sum, which
    # is the dense product on the 12-cycle and segment sums, with no W, on the 600-cycle
    import lohesphere.simulate

    def refuse(system, x0):
        raise AssertionError("the RK4 kernel was built")

    monkeypatch.setattr(lohesphere.simulate, "_SphereRK4", refuse)
    for max_time in (0.0, 200.0):  # an exact start is within 10 * tol, so no flow runs
        for N in (12, 600):
            g = cycle_graph(N, gain=1.0)
            res = find_equilibrium(_homo(g), twisted_state(N, 1, 2), tol=1e-10,
                                   max_time=max_time)
            assert res.converged
            assert ("weight_matrix" in g.__dict__) is (N == 12)


def test_find_equilibrium_converges_from_twisted_start_under_drift():
    # Newton on A alone, without the normal blocks x_i S_i^T, takes no
    # step from this start
    sys = LoheSystem(complete_graph(6, gain=1.0),
                     random_frequencies(np.random.default_rng([7, 2, 20]), 6, 2, 0.2))
    res = find_equilibrium(sys, twisted_state(6, 1, 2), tol=1e-10, max_time=0.0)
    assert res.converged
    assert res.residual <= 1e-10
    assert res.iterations >= 1


def test_kuramoto_identical_frequencies_hold_equal_angles():
    g = complete_graph(3, gain=1.0)
    omega = np.zeros(3)
    theta0 = np.array([0.7, 0.7, 0.7])
    times, angles = integrate_kuramoto(omega, g, theta0, dt=1e-2, t_end=1.0, sample_every=10)
    assert np.allclose(angles, 0.7, atol=1e-12)
    assert times[-1] == pytest.approx(1.0)


def test_kuramoto_pair_closes_gap():
    g = path_graph(2, gain=1.0)
    omega = np.zeros(2)
    theta0 = np.array([0.0, 1.0])
    _, angles = integrate_kuramoto(omega, g, theta0, dt=1e-3, t_end=10.0, sample_every=1000)
    gaps = np.abs(angles[:, 1] - angles[:, 0])
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] < 1e-3
