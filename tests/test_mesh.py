"""Mesh construction, tags, quadrature weights, resampling and serialization."""

import io
import math

import numpy as np
import pytest

from coneyamabe import (
    BoundaryTag,
    ConeModel,
    Field,
    ReducedDomain,
    assemble,
    build_mesh,
    read_field_table,
    resample,
    truncation_family,
    write_field_table,
)
from coneyamabe.mesh import _CHUNK_ROWS


def make_domain(n=3, d=1, h=1.0, omega_min=0.1, r0=0.5, r1=2.0):
    return ReducedDomain(ConeModel(n, d, h), r0, r1, omega_min)


def test_domain_validation():
    cone = ConeModel(3, 1, 1.0)
    with pytest.raises(ValueError):
        ReducedDomain(cone, 2.0, 0.5, 0.1)  # reversed radii
    with pytest.raises(ValueError):
        ReducedDomain(cone, 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        ReducedDomain(cone, 0.5, 2.0, cone.theta)  # omega_min >= theta
    with pytest.raises(ValueError):
        ReducedDomain(cone, 0.5, 2.0, -0.1)


def test_build_mesh_rejects_degenerate_parameters():
    dom = make_domain()
    with pytest.raises(ValueError):
        build_mesh(dom, 3, 16)
    with pytest.raises(ValueError):
        build_mesh(dom, 16, 3)
    with pytest.raises(ValueError):
        build_mesh(dom, 16, 16, grading=0.5)
    with pytest.raises(ValueError):
        build_mesh(ReducedDomain(ConeModel(3, 1, 1.0), 0.5, 2.0, 0.0), 16, 16)


def test_linear_grading_gives_uniform_angular_nodes():
    dom = make_domain(omega_min=0.1)
    mesh = build_mesh(dom, 8, 5, grading=1.0)
    theta = dom.cone.theta
    expected = np.linspace(0.1, theta, 5)
    assert np.allclose(mesh.angular_nodes, expected, atol=1e-15)


def test_grading_map_and_log_uniform_radii():
    dom = make_domain()
    mesh = build_mesh(dom, 12, 9, grading=2.0)
    theta = dom.cone.theta
    s = np.linspace(0.0, 1.0, 9)
    assert np.allclose(mesh.angular_nodes, 0.1 + (theta - 0.1) * s**2, atol=1e-15)
    xi = np.log(mesh.radial_nodes)
    assert np.allclose(np.diff(xi), np.diff(xi)[0], atol=1e-14)
    assert mesh.radial_nodes[0] == pytest.approx(0.5)
    assert mesh.radial_nodes[-1] == pytest.approx(2.0)


def test_tags_partition_boundary_and_corners_are_dirichlet():
    mesh = build_mesh(make_domain(), 10, 8, 2.0)
    nr, na = mesh.n_radial, mesh.n_angular
    tags = mesh.tags.reshape(nr, na)
    # corners on the Dirichlet side
    for i in (0, nr - 1):
        for j in (0, na - 1):
            assert tags[i, j] == BoundaryTag.DIRICHLET_RADIAL
    assert np.all(tags[0, :] == BoundaryTag.DIRICHLET_RADIAL)
    assert np.all(tags[-1, :] == BoundaryTag.DIRICHLET_RADIAL)
    assert np.all(tags[1:-1, 0] == BoundaryTag.DIRICHLET_INNER_ANGULAR)
    assert np.all(tags[1:-1, -1] == BoundaryTag.ROBIN_CONE)
    assert np.all(tags[1:-1, 1:-1] == BoundaryTag.INTERIOR)
    # partition: every boundary node carries exactly one tag by construction
    boundary = np.zeros((nr, na), dtype=bool)
    boundary[[0, -1], :] = True
    boundary[:, [0, -1]] = True
    assert np.all((tags != BoundaryTag.INTERIOR) == boundary)


def test_weights_positive_and_match_analytic_integral():
    # sum of node weights approximates the analytic integral of
    # rho_polar^(n-d) sin^(n-d-1) within 1% at 64x64 for n=3, d=1
    dom = make_domain(3, 1, 1.0, omega_min=0.1)
    weights = assemble(build_mesh(dom, 64, 64, 2.0)).volume_mass
    assert np.all(weights > 0)
    theta = dom.cone.theta
    exact = (2.0**3 - 0.5**3) / 3.0 * (math.cos(0.1) - math.cos(theta))
    total = weights.sum()
    assert abs(total - exact) / exact < 0.01


def test_weights_integral_other_dimensions():
    # n=5, d=2: integrand rho^3 sin^2, closed form via sin^2 = (1-cos2)/2
    dom = make_domain(5, 2, 1.0, omega_min=0.2)
    weights = assemble(build_mesh(dom, 64, 64, 2.0)).volume_mass
    theta = dom.cone.theta
    radial = (2.0**4 - 0.5**4) / 4.0
    ang = 0.5 * (theta - 0.2) - 0.25 * (math.sin(2 * theta) - math.sin(0.4))
    exact = radial * ang
    assert abs(weights.sum() - exact) / exact < 0.01
    # codimension-one case d = n-1: angular weight is flat
    dom = make_domain(4, 3, 1.0, omega_min=0.2)
    weights = assemble(build_mesh(dom, 64, 64, 2.0)).volume_mass
    exact = (2.0**2 - 0.5**2) / 2.0 * (dom.cone.theta - 0.2)
    assert abs(weights.sum() - exact) / exact < 0.01


def test_robin_weights_live_on_cone_face_only():
    mesh = build_mesh(make_domain(), 12, 10, 2.0)
    weights = assemble(mesh).boundary_mass
    rob = mesh.robin_mask
    assert np.all(weights[rob] > 0)
    assert np.all(weights[~rob] == 0)
    # surface weight: rho_polar^(n-d) sin^(n-d-1)(theta) per unit log-radius
    theta = mesh.domain.cone.theta
    p = mesh.domain.cone.n - mesh.domain.cone.d
    i = 5
    idx = mesh.index(i, mesh.n_angular - 1)
    xi = np.log(mesh.radial_nodes)
    dxi = 0.5 * (xi[i + 1] - xi[i - 1])
    expected = mesh.radial_nodes[i] ** p * math.sin(theta) ** (p - 1) * dxi
    assert weights[idx] == pytest.approx(expected, rel=1e-13)


def test_resample_is_exact_on_bilinear_fields():
    # a field bilinear in (log rho_polar, omega) is its own bilinear
    # interpolant, whatever the two grids
    dom = make_domain(3, 1, 1.0, omega_min=0.1)
    coarse, fine = build_mesh(dom, 12, 12, 2.0), build_mesh(dom, 20, 20, 1.5)

    def bilinear(mesh):
        xi, om = np.log(mesh.rho_polar), mesh.omega
        return 2.0 + 0.7 * xi - 1.3 * om + 0.9 * xi * om

    u = resample(Field(coarse, bilinear(coarse)), fine)
    assert u.mesh is fine
    assert np.max(np.abs(u.values - bilinear(fine))) <= 1e-12
    back = resample(Field(fine, bilinear(fine)), coarse)
    assert np.max(np.abs(back.values - bilinear(coarse))) <= 1e-12


def test_resample_refuses_meshes_of_different_domains():
    mesh = build_mesh(make_domain(omega_min=0.1), 12, 12, 2.0)
    u = Field.full(mesh, 1.0)
    for other in (make_domain(omega_min=0.2), make_domain(r1=3.0), make_domain(h=2.0)):
        with pytest.raises(ValueError, match="different domains"):
            resample(u, build_mesh(other, 20, 20, 2.0))


def test_refinement_scales_node_count_and_preserves_tags():
    dom = make_domain()
    coarse = build_mesh(dom, 10, 8, 2.0)
    fine = build_mesh(dom, 20, 16, 2.0)
    assert fine.n_nodes == 4 * coarse.n_nodes
    for m in (coarse, fine):
        tags = m.tags.reshape(m.n_radial, m.n_angular)
        assert np.all(tags[0, :] == BoundaryTag.DIRICHLET_RADIAL)
        assert np.all(tags[1:-1, -1] == BoundaryTag.ROBIN_CONE)


def test_distance_field_values():
    dom = make_domain()
    mesh = build_mesh(dom, 8, 8, 1.0)
    rho = mesh.rho
    assert np.all(rho > 0)
    assert np.allclose(rho, mesh.rho_polar * np.sin(mesh.omega), atol=1e-15)
    # node on the cone face at rho_polar = 1 with h = 1: rho = sin(pi/4)
    cone = ConeModel(3, 1, 1.0)
    dom2 = ReducedDomain(cone, 1.0, 2.0, 0.1)
    mesh2 = build_mesh(dom2, 8, 8, 1.0)
    idx = mesh2.index(0, mesh2.n_angular - 1)
    assert mesh2.rho[idx] == pytest.approx(1.0 / math.sqrt(2), abs=1e-14)
    # node at (rho_polar, omega) = (2, pi/6) has distance 2 sin(pi/6) = 1
    dom3 = ReducedDomain(cone, 2.0, 4.0, math.pi / 6)
    mesh3 = build_mesh(dom3, 8, 8, 1.0)
    assert mesh3.rho[mesh3.index(0, 0)] == pytest.approx(1.0, abs=1e-14)


def test_interior_nodes_have_four_neighbors():
    mesh = build_mesh(make_domain(), 7, 6, 2.0)
    nr, na = mesh.n_radial, mesh.n_angular
    tags = mesh.tags.reshape(nr, na)
    for i in range(nr):
        for j in range(na):
            if tags[i, j] == BoundaryTag.INTERIOR:
                assert 0 < i < nr - 1 and 0 < j < na - 1


def test_truncation_family_nesting():
    base = build_mesh(make_domain(omega_min=0.1), 10, 12, 2.0)
    fam = truncation_family(base, 4, nodes_per_octave=6)
    assert len(fam) == 4
    for k, m in enumerate(fam):
        assert m.domain.omega_min == pytest.approx(0.1 / 2**k)
        assert m.angular_nodes[0] == pytest.approx(0.1 / 2**k)
    for k in range(1, 4):
        off = fam[k].angular_offset_of(fam[k - 1])
        assert off == 6
        # shared nodes are bitwise identical
        assert np.array_equal(fam[k].angular_nodes[off:], fam[k - 1].angular_nodes)
        assert np.array_equal(fam[k].radial_nodes, fam[k - 1].radial_nodes)
    with pytest.raises(ValueError):
        fam[1].angular_offset_of(build_mesh(make_domain(omega_min=0.07), 10, 12, 2.0))


def test_field_validation_and_serialization_roundtrip():
    mesh = build_mesh(make_domain(), 6, 5, 1.5)
    with pytest.raises(ValueError):
        Field(mesh, np.ones(3))
    with pytest.raises(ValueError):
        Field(mesh, np.full(mesh.n_nodes, np.nan))
    values = np.linspace(0.0, 1.0, mesh.n_nodes)
    buf = io.StringIO()
    write_field_table(buf, mesh, values)
    buf.seek(0)
    rp, om, tags, vals = read_field_table(buf)
    assert np.array_equal(vals, values)
    assert np.array_equal(rp, mesh.rho_polar)
    assert np.array_equal(om, mesh.omega)
    assert tags[0] == "DIRICHLET_RADIAL"
    assert tags.count("ROBIN_CONE") == mesh.robin_mask.sum()


def test_field_table_matches_the_per_row_format():
    # the chunked writer against the one-row-at-a-time f-string form, on
    # more rows than one chunk plus a remainder; every float reads back
    # bit-exactly
    mesh = build_mesh(make_domain(), 70, 70, 2.0)
    assert mesh.n_nodes > _CHUNK_ROWS and mesh.n_nodes % _CHUNK_ROWS
    rng = np.random.default_rng(5)
    values = rng.standard_normal(mesh.n_nodes) * 10.0 ** rng.integers(-300, 300, mesh.n_nodes)
    special = [0.0, 1e-300, 2.0, -3.5, 1e300, -0.0, 5e-324]
    values[:7] = special
    values[-7:] = special
    buf = io.StringIO()
    write_field_table(buf, mesh, values)
    rp, om, tg = mesh.rho_polar, mesh.omega, mesh.tags
    ref = "rho_polar,omega,tag,value\n" + "".join(
        f"{rp[k]:.17g},{om[k]:.17g},{BoundaryTag(tg[k]).name},{values[k]:.17g}\n"
        for k in range(mesh.n_nodes)
    )
    got, want = buf.getvalue().splitlines(), ref.splitlines()
    assert len(got) == len(want)
    assert [(a, b) for a, b in zip(got, want) if a != b][:1] == []
    assert buf.getvalue() == ref
    buf.seek(0)
    rp2, om2, tags, vals = read_field_table(buf)
    assert rp2.tobytes() == rp.tobytes()
    assert om2.tobytes() == om.tobytes()
    assert vals.tobytes() == values.tobytes()
    assert tags == [BoundaryTag(t).name for t in tg]
