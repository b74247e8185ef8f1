"""Chart model, metric families, connection coefficients and decay probes."""

import functools
import math

import numpy as np
import pytest
import sympy as sp

from weylmass.engine import frame_jet1, frame_jet2
from weylmass.errors import ChartDomainError, MassNotDefinedError
from weylmass.families import (METRIC_BUILDERS, conformal_sweep, flat_product,
                               hopf_model, kaluza_perturbation, log_slow_profile, mixed_lee,
                               radial_lee, radial_profile, random_local_metric,
                               sqrt_slow_profile, zero_lee)
from weylmass.model import ModelSpace, sphere_volume
from weylmass.probes import (PROBE_RADII, _fit_decay, adapted_metric_check, geometric_radii, lee_probes,
                             metric_probes, probe_grid, probe_tensor_field, require_alf)
from weylmass.weyl import WeylStructure, christoffel, weyl_curvature

from oracles import (FDEngine, inverse, metric_compat_residual, probe_jet, probe_lee_jet, random_adapted_scalar,
                     ricci_trace_convention, sphere_block_test, unit_scalar)


def test_model_validation():
    with pytest.raises(ValueError):
        ModelSpace(m=2)
    with pytest.raises(ValueError):
        ModelSpace(m=4, fibration="hopf")
    with pytest.raises(ValueError):
        ModelSpace(m=3, fibration="moebius")


def test_sphere_volume_values():
    assert sphere_volume(3) == pytest.approx(4 * math.pi)
    assert sphere_volume(4) == pytest.approx(2 * math.pi**2)


def test_christoffel_rejects_points_in_the_excised_ball(model, engine):
    kal = kaluza_perturbation(model, mu=1.0)
    with pytest.raises(ChartDomainError):
        christoffel(engine, model, kal, model.point([0.5, 0.0, 0.0], 0.0))


# --- Hopf chart ------------------------------------------------------------


def _hopf_chart_map(space, coords):
    """Chart point -> R^4 via the standard section and fiber rotation."""
    x = np.asarray(coords[:3], dtype=float)
    t = float(coords[3])
    r = np.linalg.norm(x)
    theta = math.acos(x[2] / r)
    phi = math.atan2(x[1], x[0])
    z1 = math.cos(theta / 2)
    z2 = math.sin(theta / 2) * complex(math.cos(phi), math.sin(phi))
    rot = complex(math.cos(2 * math.pi * t / space.L), math.sin(2 * math.pi * t / space.L))
    q = math.sqrt(r) * rot * np.array([z1, z2], dtype=complex)
    return np.array([q[0].real, q[0].imag, q[1].real, q[1].imag])


def _contact_form_r4(space, q, v):
    """(L/2pi) Im(conj(z1) dz1 + conj(z2) dz2)/|q|^2 evaluated on a tangent v."""
    z = np.array([complex(q[0], q[1]), complex(q[2], q[3])])
    dv = np.array([complex(v[0], v[1]), complex(v[2], v[3])])
    val = (np.conj(z) * dv).sum().imag / (np.abs(z) ** 2).sum()
    return space.L / (2 * math.pi) * val


def test_hopf_connection_is_standard_contact_form(hopf_space):
    """Pull the rescaled contact form back through the chart map by FD."""
    space = hopf_space
    p = np.array([1.3, 0.7, 0.9, 1.1])
    h = 1e-6
    pulled = np.zeros(4)
    q0 = _hopf_chart_map(space, p)
    for c in range(4):
        up, dn = p.copy(), p.copy()
        up[c] += h
        dn[c] -= h
        tangent = (_hopf_chart_map(space, up) - _hopf_chart_map(space, dn)) / (2 * h)
        pulled[c] = _contact_form_r4(space, q0, tangent)
    A = space.connection_potential(p[:3])
    expected = np.array([A[0], A[1], A[2], 1.0])
    assert np.max(np.abs(pulled - expected)) < 1e-8


def test_hopf_frame_metric_matches_coordinate_oracle(hopf_space):
    """Expand dx^2 + eta (x) eta in chart coordinates, then change basis."""
    space = hopf_space
    p = space.point([1.3, 0.7, 0.9], 1.1)
    A = space.connection_potential(p[:3])
    h_coord = np.zeros((4, 4))
    h_coord[:3, :3] = np.eye(3) + np.outer(A, A)
    h_coord[:3, 3] = A
    h_coord[3, :3] = A
    h_coord[3, 3] = 1.0
    # frame vectors as columns: X_a = d/dx_a - A_a d/dt, T = d/dt
    J = np.zeros((4, 4))
    J[:3, :3] = np.eye(3)
    J[3, :3] = -A
    J[3, 3] = 1.0
    frame_metric = J.T @ h_coord @ J
    got = hopf_model(space).as_field().values(p)
    assert np.max(np.abs(frame_metric - np.eye(4))) < 1e-12
    assert np.allclose(got, np.eye(4))


def test_hopf_deta_matches_fd_of_potential(hopf_space):
    space = hopf_space
    x = np.array([1.3, 0.7, 0.9])
    h = 1e-6
    dA = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            up, dn = x.copy(), x.copy()
            up[a] += h
            dn[a] -= h
            dA[a, b] = (space.connection_potential(up)[b] - space.connection_potential(dn)[b]) / (2 * h)
    omega_fd = dA - dA.T
    assert np.max(np.abs(omega_fd - space.deta(x))) < 1e-8


def _fd_jacobian(fn, x, h=1e-6):
    """out[b, ...] = d fn / dx_b by central differences, on a batch of points."""
    rows = []
    for b in range(x.shape[0]):
        up, dn = x.copy(), x.copy()
        up[b] += h
        dn[b] -= h
        rows.append((fn(up) - fn(dn)) / (2 * h))
    return np.stack(rows)


HOPF_POINTS = np.array([[1.3, -2.1, 0.4], [0.7, 0.2, 1.8], [0.9, -1.1, -2.5]])


def test_hopf_connection_jacobian_matches_fd(hopf_space):
    J = hopf_space.connection_jacobian(HOPF_POINTS)
    assert J.shape == (3, 3, 3)
    fd = _fd_jacobian(hopf_space.connection_potential, HOPF_POINTS)
    assert np.max(np.abs(J - fd)) < 1e-8
    # its antisymmetric part is the curvature form: omega_ab = d_a A_b - d_b A_a
    assert np.max(np.abs(J - np.swapaxes(J, 0, 1) - hopf_space.deta(HOPF_POINTS))) < 1e-14


def test_hopf_deta_jacobian_matches_fd(hopf_space):
    dw = hopf_space.deta_jacobian(HOPF_POINTS)
    assert np.max(np.abs(dw - _fd_jacobian(hopf_space.deta, HOPF_POINTS))) < 1e-8
    dC = hopf_space.structure_jacobian(np.vstack([HOPF_POINTS, np.zeros((1, 3))]))
    assert np.array_equal(dC[:3, :3, :3, 3], -dw)
    assert not np.any(dC[3]) and not np.any(dC[:, :, :, :3])


def _off_seam_points(count: int = 200, seed: int = 7) -> np.ndarray:
    """count random points with 1.2 < r < 6 and rho / r > 0.05, off the seam of the Hopf potential."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(3, 4 * count))
    u /= np.linalg.norm(u, axis=0)
    return u[:, np.hypot(u[0], u[1]) > 0.05][:, :count] * rng.uniform(1.2, 6.0, size=count)


@pytest.mark.parametrize("points", ["fixed", "random"])
def test_hopf_curvature_is_closed(hopf_space, points):
    """d omega = 0: the cyclic sum of deta_jacobian, d_b omega_ac + d_c omega_ba + d_a omega_cb, vanishes."""
    x = HOPF_POINTS if points == "fixed" else _off_seam_points()
    dw = hopf_space.deta_jacobian(x)
    assert np.max(np.abs(dw + dw.transpose(1, 2, 0, 3) + dw.transpose(2, 0, 1, 3))) < 1e-14


@pytest.mark.parametrize("evaluator,values", [("_hopf_potential", "connection_potential"),
                                              ("_hopf_curvature", "deta")])
def test_hopf_chart_jets_carry_the_array_values(hopf_space, evaluator, values):
    """The one evaluator of A (of omega) gives the same bits on seeds as on arrays, so the Jacobians are
    jets of the values the frame calculus uses."""
    from weylmass import autodiff as am

    x = np.concatenate([HOPF_POINTS, _off_seam_points()], axis=1)
    want = getattr(hopf_space, values)(x)
    val = am.collect_jet(getattr(hopf_space, evaluator)(am.seed_point(x, order=1)), want.shape[:-1], 3, x.shape[1:])[0]
    assert val.tobytes() == np.ascontiguousarray(want).tobytes()


def test_trivial_chart_jacobians_vanish(model):
    assert not np.any(model.connection_jacobian(HOPF_POINTS))
    assert not np.any(model.deta_jacobian(HOPF_POINTS))


def test_frame_hessian_matches_fd_of_frame_derivative(hopf_space, engine):
    """E_p E_i F, including the -(X_p A_i) dF/dt term, against FD of frame_jet1."""
    from weylmass import autodiff as am
    from weylmass.engine import Field

    fld = Field(lambda c: am.sin(0.7 * c[0] - 0.4 * c[1] + 0.3 * c[2] + c[3]) * c[2], shape=())
    p = hopf_space.point([1.2, -0.8, 1.5], 0.6)
    _, d1, d2 = engine.jet2(fld, p)
    got = hopf_space.frame_hessian_from_coord(d1, d2, p[:3])
    frame_d1 = Field(lambda c: frame_jet1(engine, hopf_space, fld, np.asarray(c, dtype=float))[1], shape=(4,))
    _, oracle = frame_jet1(FDEngine(), hopf_space, frame_d1, p)
    assert np.max(np.abs(got - oracle)) < 1e-9
    # the frame is anholonomic: E_a E_b - E_b E_a = C_ab^k E_k
    C = hopf_space.structure_constants(p)
    assert np.max(np.abs(got - got.T - C @ frame_jet1(engine, hopf_space, fld, p)[1])) < 1e-12


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_frame_conversion_copies_only_to_correct(request, engine, chart):
    """frame_from_coord returns its input itself where no fiber correction applies (trivial chart, or
    dF/dt = 0) and a corrected new array otherwise; neither conversion changes the caller's jets.

    t + x1 x2 has dF/dt = 1 but no t-row in its Hessian, so only the Jacobian term of
    frame_hessian_from_coord corrects it there, on a copy."""
    from weylmass import autodiff as am
    from weylmass.engine import Field

    space = request.getfixturevalue(chart)
    pts = np.vstack([HOPF_POINTS, [[0.3, 1.1, 2.0]]])
    fields = {
        "invariant": Field(lambda c: am.sin(0.7 * c[0] - 0.4 * c[1]) * c[2], shape=()),
        "linear_t": Field(lambda c: c[3] + c[0] * c[1], shape=()),
        "mixed": Field(lambda c: am.sin(0.7 * c[0] - 0.4 * c[1] + 0.3 * c[2] + c[3]) * c[2], shape=()),
    }
    for name, fld in fields.items():
        _, d1, d2 = engine.jet2(fld, pts)
        d1_before, d2_before = d1.copy(), d2.copy()
        e1 = space.frame_from_coord(d1, HOPF_POINTS)
        e2 = space.frame_hessian_from_coord(d1, d2, HOPF_POINTS)
        assert np.array_equal(d1, d1_before) and np.array_equal(d2, d2_before), name
        if space.holonomic or name == "invariant":
            assert e1 is d1, name
        else:
            assert not np.shares_memory(e1, d1), name
            A = space.connection_potential(HOPF_POINTS)
            assert np.array_equal(e1, np.concatenate([d1[:3] - A * d1[3], d1[3:]])), name
        if space.holonomic:
            assert np.array_equal(e2, d2), name
        elif name != "invariant":
            assert not np.array_equal(e2, d2) and not np.shares_memory(e2, d2), name


def test_hopf_seam_rejected(hopf_space):
    with pytest.raises(ChartDomainError):
        hopf_space.connection_potential(np.array([0.0, 0.0, -2.0]))


def test_hopf_bundle_quantization(hopf_space):
    # integral of d(eta) over a sphere equals the fiber period L
    from weylmass.quadrature import sphere_rule

    u, w = sphere_rule(3, 26)
    r = 2.0
    x = r * u
    omega = hopf_space.deta(x)
    # flux of the 2-form through the r-sphere: omega(e_theta, e_phi) dA = (omega . rhat) dA
    dual = np.stack([omega[1, 2], omega[2, 0], omega[0, 1]])
    flux = np.sum(np.sum(dual * u, axis=0) * w * r**2)
    assert flux == pytest.approx(hopf_space.L, rel=1e-12)


# --- connection coefficients -------------------------------------------------


def test_christoffel_flat_zero(model, engine):
    gam = christoffel(engine, model, flat_product(model), model.point([2, 1, -1], 0.5))[0]
    assert np.max(np.abs(gam)) == 0.0


def test_christoffel_conformally_flat_symbolic_oracle(model, engine):
    """g = (1 + 2/r) delta against the closed-form conformal coefficients."""
    x1, x2, x3 = sp.symbols("x1 x2 x3", real=True, positive=False)
    r = sp.sqrt(x1**2 + x2**2 + x3**2)
    f = 1 + 2 / r
    xs = (x1, x2, x3)
    n = 4

    def df(a):
        return sp.diff(f, xs[a]) if a < 3 else sp.Integer(0)

    point = {x1: 2.0, x2: 1.0, x3: -0.5}
    gam_sym = np.zeros((n, n, n))
    fval = float(f.subs(point))
    dfv = [float(df(a).subs(point)) for a in range(4)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                val = 0.0
                if k == j:
                    val += dfv[i]
                if k == i:
                    val += dfv[j]
                if i == j:
                    val -= dfv[k]
                gam_sym[i, j, k] = val / (2.0 * fval)

    fam = conformal_sweep(flat_product(model), radial_profile(model, beta=2.0, power=-1.0))
    gam = christoffel(engine, model, fam, model.point([2.0, 1.0, -0.5], 0.3))[0]
    assert np.max(np.abs(gam - gam_sym)) < 1e-10


@functools.lru_cache(maxsize=None)
def _compact_lee_sympy(amplitude, r0, r1):
    """Value, gradient and Hessian of compact_lee inside its support, in closed form: (4,), (4, 4), (4, 4, 4)."""
    amplitude, r0, r1 = (sp.nsimplify(v) for v in (amplitude, r0, r1))
    xs = sp.symbols("x1 x2 x3")
    r = sp.sqrt(sum(x**2 for x in xs))
    s = (2 * r - (r0 + r1)) / (r1 - r0)
    comps = [amplitude * sp.exp(-1 / (1 - s**2)) * x / r for x in xs]
    grad = [[sp.diff(c, x) for c in comps] for x in xs]
    jets = sp.lambdify(xs, [comps, grad, [[[sp.diff(c, y) for c in row] for y in xs] for row in grad]], "numpy")

    def at(point):
        val, grad, hess = (np.array(a, dtype=float) for a in jets(*point[:3]))
        out = np.zeros(4), np.zeros((4, 4)), np.zeros((4, 4, 4))
        out[0][:3], out[1][:3, :3], out[2][:3, :3, :3] = val, grad, hess
        return out

    return at


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_compact_lee_jets_match_sympy_and_stay_finite_at_the_support_edge(request, chart):
    """compact_lee is a jet through two ``autodiff.where``: inside (r0, r1) its dual jet2 is the sympy
    closed form; at r = r0 and r = r1 exactly, and 1 ulp inside each, the dual jets are exactly zero
    and the fd jets finite, with no floating-point error under the CLI's errstate."""
    from weylmass.engine import DerivativeEngine, Field
    from weylmass.families import compact_lee

    space = request.getfixturevalue(chart)
    amplitude, r0, r1 = 0.7, 2.0, 4.0
    lee = compact_lee(space, amplitude=amplitude, r0=r0, r1=r1)
    fld = Field(lee.fn, shape=(space.dim,))
    closed = _compact_lee_sympy(amplitude, r0, r1)
    dual, fd = DerivativeEngine(), FDEngine()
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for point in (space.point([2.1, 0.9, -0.6], 0.4), space.point([-1.2, 2.0, 1.1], 1.3),
                      space.point([0.3, -0.2, 3.7], 2.2)):
            got = dual.jet2(fld, point)
            for a, b in zip(got, closed(point)):
                assert np.max(np.abs(a - b)) < 1e-13 * max(1.0, np.max(np.abs(b)))
            assert np.max(np.abs(got[1])) > 1e-3
        for radius in (r0, np.nextafter(r0, np.inf), np.nextafter(r1, 0.0), r1):
            point = space.point([radius, 0.0, 0.0], 0.5)
            assert all(not np.any(a) for a in dual.jet2(fld, point))
            assert all(np.all(np.isfinite(a)) for a in fd.jet2(fld, point))
    # 1 ulp inside, the closed form underflows to the same zeros (exp(-1/(1 - s^2)) ~ exp(-1e15))
    for radius in (np.nextafter(r0, np.inf), np.nextafter(r1, 0.0)):
        assert all(not np.any(a) for a in closed(space.point([radius, 0.0, 0.0], 0.5)))


def test_christoffel_symmetric_on_trivial_fibration(model, engine):
    fam = kaluza_perturbation(model, mu=0.8)
    gam = christoffel(engine, model, fam, model.point([1.7, -0.6, 1.1], 0.2))[0]
    assert np.max(np.abs(gam - np.swapaxes(gam, 0, 1))) < 1e-12


def test_christoffel_antisymmetry_equals_structure_constants_on_hopf(hopf_space, engine):
    fam = hopf_model(hopf_space)
    p = hopf_space.point([1.4, 0.8, 1.0], 0.6)
    gam = christoffel(engine, hopf_space, fam, p)[0]
    C = hopf_space.structure_constants(p)
    assert np.max(np.abs(gam - np.swapaxes(gam, 0, 1) - C)) < 1e-12


def test_christoffel_conformal_change_tensor(model, engine):
    """Gamma(f g) - Gamma(g) equals the closed-form difference tensor at 1e-7."""
    base = kaluza_perturbation(model, mu=0.8)
    f = radial_profile(model, beta=0.5)
    swept = conformal_sweep(base, f)
    p = model.point([2.2, -0.9, 1.3], 0.6)
    gam0 = christoffel(engine, model, base, p)[0]
    gam1 = christoffel(engine, model, swept, p)[0]
    g = base.as_field().values(p)
    fval = float(f.fn(list(p)))
    phi = frame_jet1(engine, model, f.as_field(), p)[1] / (2.0 * fval)
    n = model.dim
    expected = np.zeros((n, n, n))
    phi_sharp = np.linalg.inv(g) @ phi
    for i in range(n):
        for j in range(n):
            for k in range(n):
                val = 0.0
                if k == j:
                    val += phi[i]
                if k == i:
                    val += phi[j]
                val -= g[i, j] * phi_sharp[k]
                expected[i, j, k] = val
    assert np.max(np.abs((gam1 - gam0) - expected)) < 1e-7


def test_metric_compatibility_residual(model, engine):
    from weylmass.families import random_local_metric

    fam = random_local_metric(model, [5])
    res = metric_compat_residual(engine, model, fam, model.point([2.2, 0.4, -0.9], 1.0))
    assert res < 1e-8


def test_metric_compatibility_fd_mode(model, fd_engine):
    fam = kaluza_perturbation(model, mu=1.0)
    res = metric_compat_residual(fd_engine, model, fam, model.point([2.2, 0.4, -0.9], 1.0))
    assert res < 1e-8


# --- curvature of the gauge metric ------------------------------------------


def lc_riemann(engine, model, fam, coords):
    """Riemann tensor of the Levi-Civita connection: ``weyl_curvature`` at theta = 0."""
    return weyl_curvature(engine, WeylStructure(model, fam, zero_lee(model)), coords).R


def test_lc_riemann_flat_zero(model, engine):
    R = lc_riemann(engine, model, flat_product(model), model.point([2, 0.5, -1], 0.1))
    assert np.max(np.abs(R)) < 1e-14


def test_lc_riemann_sphere_block_sectional_curvature(model, engine):
    fam = sphere_block_test(model)
    for x1 in (0.4, 0.8, 1.2):
        p = model.point([x1, 0.7, 2.3], 0.4)
        R = lc_riemann(engine, model, fam, p)
        g = fam.as_field().values(p)
        sec = (R[0, 1, 1, :] @ g[:, 0]) / (g[0, 0] * g[1, 1] - g[0, 1] ** 2)
        assert sec == pytest.approx(1.0, abs=1e-6)
        # a plane through the flat factor stays flat
        sec_flat = (R[0, 2, 2, :] @ g[:, 0]) / (g[0, 0] * g[2, 2])
        assert abs(sec_flat) < 1e-8


def test_lc_riemann_antisymmetry_and_bianchi(model, engine):
    from weylmass.families import random_local_metric

    fam = random_local_metric(model, [9])
    p = model.point([2.5, -0.3, 0.8], 0.9)
    R = lc_riemann(engine, model, fam, p)
    g = fam.as_field().values(p)
    low = np.einsum("ijkl,lm->ijkm", R, g)
    assert np.max(np.abs(low + np.swapaxes(low, 0, 1))) < 1e-10
    bianchi = R + np.moveaxis(R, (0, 1, 2), (1, 2, 0)) + np.moveaxis(R, (0, 1, 2), (2, 0, 1))
    assert np.max(np.abs(bianchi)) < 1e-6


def test_ricci_trace_convention_matches_lowered_trace(model, engine):
    fam = kaluza_perturbation(model, mu=0.6)
    p = model.point([2.0, 1.0, 0.5], 0.0)
    R = lc_riemann(engine, model, fam, p)
    ric = ricci_trace_convention(R)
    assert ric.shape == (4, 4)
    assert np.max(np.abs(ric - ric.T)) < 1e-8


# --- decay probes -------------------------------------------------------------


def test_decay_probe_exact_power(model):
    radii = geometric_radii(8, 128, 5)
    rep = _fit_decay(radii, 1.0 / radii, -1.0, "1/r")
    assert rep.passed and rep.slope == pytest.approx(-1.0, abs=1e-12)


def test_decay_probe_zero_field(model):
    radii = geometric_radii(8, 128, 5)
    rep = _fit_decay(radii, np.zeros_like(radii), -1.0, "zero")
    assert rep.passed and rep.slope == -math.inf


def test_decay_probe_rejects_slow_field(model):
    radii = geometric_radii(8, 128, 5)
    rep = _fit_decay(radii, 1.0 / np.sqrt(radii), -1.0, "slow")
    assert not rep.passed
    assert rep.slope == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("name,params", [
    ("flat_product", {}),
    ("kaluza_perturbation", {"mu": 1.0}),
    ("kaluza_two_term", {"mu": 1.0, "kappa": 0.5}),
])
def test_builtin_families_pass_alf_probes(model, engine, name, params):
    fam = METRIC_BUILDERS[name](model, **params)
    reports = metric_probes(model, fam.name, probe_jet(engine, fam))
    for rep in reports:
        assert rep.passed, f"{rep.name}: slope {rep.slope} vs {rep.declared}"


def test_hopf_family_passes_probes(hopf_space, engine):
    fam = hopf_model(hopf_space)
    for rep in metric_probes(hopf_space, fam.name, probe_jet(engine, fam)):
        assert rep.passed
    x, _ = hopf_space.split(probe_grid(hopf_space))
    rep = probe_tensor_field(hopf_space.deta(x), 1 - hopf_space.m, "hopf:deta", PROBE_RADII)
    assert rep.passed
    assert rep.slope == pytest.approx(1 - hopf_space.m, abs=0.05)


@pytest.mark.parametrize("chart,fiber", [("model", False), ("model", True),
                                         ("hopf_space", False), ("hopf_space", True)])
def test_grad2_probe_matches_nested_fd(request, engine, chart, fiber):
    """The closed-form grad2_h g against an fd-mode frame jet of the grad_h g field."""
    from weylmass import probes
    from weylmass.engine import Field
    from weylmass.identities import _rng, trial_point
    from weylmass.weyl import lc_form_block

    space = request.getfixturevalue(chart)
    fam = random_local_metric(space, [46], fiber_dependence=fiber)
    n = space.dim
    def probe_values(c):
        c = np.asarray(c, dtype=float)
        return probes._metric_probe_values(space, c, frame_jet2(engine, space, fam.as_field(), c))

    grad = Field(lambda c: probe_values(c)[1], shape=(n, n, n))
    rng = _rng(46, 35, 0)
    pts = np.stack([trial_point(space, rng) for _ in range(3)], axis=1)
    G, dG = frame_jet1(FDEngine(), space, grad, pts)
    oracle = lc_form_block(dG, G, space.lc_coeffs_h(pts), 3)
    got = probe_values(pts)[2]
    assert np.max(np.abs(got - oracle)) < 1e-9 * np.max(np.abs(oracle))


@pytest.mark.parametrize("chart", ["model", "hopf_space"])
def test_batched_probe_norms_equal_per_radius_norms(request, engine, monkeypatch, chart):
    """Each suite's one jet over all radii gives bitwise the norms of one jet per radius (dual mode)."""
    from weylmass import probes
    from weylmass.families import directional_profile, random_local_lee

    space = request.getfixturevalue(chart)

    def run_suites():
        reports = []
        for fam in (kaluza_perturbation(space, mu=1.0), random_local_metric(space, [3], fiber_dependence=True)):
            reports += probes.metric_probes(space, fam.name, probe_jet(engine, fam))
        for lee in (radial_lee(space, 0.4), random_local_lee(space, [3], fiber_dependence=True)):
            reports += probes.lee_probes(space, lee.name, probe_lee_jet(engine, lee))
        for f in (radial_profile(space, beta=0.3), random_adapted_scalar(space, seed=5),
                  directional_profile(space, beta=0.3)):
            reports += probes.adapted_metric_check(space, f.name, probe_jet(engine, f))
        x, _ = space.split(probes.probe_grid(space))
        return reports + [probes.probe_tensor_field(space.deta(x), 1 - space.m, f"{space.fibration}:deta",
                                                    probes.PROBE_RADII)]

    batched = run_suites()
    alone = []
    for r in probes.PROBE_RADII:
        monkeypatch.setattr(probes, "PROBE_RADII", np.array([r]))
        alone.append(run_suites())
    assert len(batched) == 2 * 3 + 2 * 2 + 3 * 3 + 1
    for k, rep in enumerate(batched):
        assert rep.norms == [reports[k].norms[0] for reports in alone], rep.name


def test_trivial_connection_probe(model):
    x, _ = model.split(probe_grid(model))
    rep = probe_tensor_field(model.deta(x), 1 - model.m, "trivial:deta", PROBE_RADII)
    assert rep.passed and rep.slope == -math.inf


def test_lee_probes(model, engine):
    for lee in (radial_lee(model, 0.5), mixed_lee(model, 0.5, 0.3)):
        for rep in lee_probes(model, lee.name, probe_lee_jet(engine, lee)):
            assert rep.passed


def test_swept_family_passes_probes(model, engine):
    fam = conformal_sweep(kaluza_perturbation(model, mu=1.0), radial_profile(model, beta=0.4))
    require_alf(model, fam.name, probe_jet(engine, fam))


def test_require_alf_rejects_slow_metric(model, engine):
    fam = conformal_sweep(flat_product(model), sqrt_slow_profile(model, beta=1.0))
    with pytest.raises(MassNotDefinedError):
        require_alf(model, fam.name, probe_jet(engine, fam))


def test_adapted_metric_check_cases(model, engine):
    def check(f):
        return adapted_metric_check(model, f.name, probe_jet(engine, f))

    assert all(r.passed for r in check(unit_scalar(model)))
    assert all(r.passed for r in check(radial_profile(model, beta=1.0)))
    assert not all(r.passed for r in check(log_slow_profile(model)))
    assert not all(r.passed for r in check(sqrt_slow_profile(model)))


def test_scalar_inverse_roundtrip(model, engine):
    f = radial_profile(model, beta=0.7)
    finv = inverse(f)
    p = model.point([3.0, 1.0, 0.5], 0.2)
    pt = list(p)
    assert f.fn(pt) * finv.fn(pt) == pytest.approx(1.0, abs=1e-14)
    fv, gf = engine.jet1(f.as_field(), p)
    gfi = engine.jet1(finv.as_field(), p)[1]
    # d(1/f) = -df/f^2
    assert np.max(np.abs(gfi + gf / fv**2)) < 1e-14
