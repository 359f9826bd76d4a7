"""Iwasawa pieces of su(1, n) and the deformed simply transitive families."""

from dataclasses import replace

import numpy as np
import pytest

from riccitype import core, geometry, lie
from riccitype.transitive import iwasawa as iwa
from riccitype.transitive import nilpotent as nil


@pytest.fixture(scope="module")
def su12():
    return iwa.iwasawa_su1n(2)


@pytest.fixture(scope="module")
def su13():
    return iwa.iwasawa_su1n(3)


def test_dimensions_n2(su12):
    assert su12.transvection.algebra.dim == 8
    assert su12.transvection.k_part.dim == 4
    assert su12.abelian_part.dim == 1
    assert su12.centralizer_m.dim == 1
    assert su12.nilpotent_part.dim == 3


def test_dimensions_n3(su13):
    assert su13.transvection.algebra.dim == 15
    assert su13.transvection.k_part.dim == 9
    assert su13.abelian_part.dim == 1
    assert su13.centralizer_m.dim == 4
    assert su13.nilpotent_part.dim == 5


def test_iwasawa_dimension_count(su12, su13):
    for data in (su12, su13):
        n = data.n
        assert (data.transvection.k_part.dim + data.abelian_part.dim
                + data.nilpotent_part.dim) == (n + 1) ** 2 - 1


@pytest.mark.parametrize("fixture", ["su12", "su13"])
def test_nilpotent_part_heisenberg(fixture, request):
    data = request.getfixturevalue(fixture)
    cert = lie.series_certificate(data.nilpotent_part)
    assert cert.heisenberg
    assert cert.dimension == 2 * data.n - 1


def test_nilpotent_part_is_ad_invariant(su12):
    for b in su12.nilpotent_part.basis:
        img = lie.bracket(su12.a_generator, b)
        norm = max(1.0, float(np.linalg.norm(img)))
        assert su12.nilpotent_part.distance(img / norm) <= 1e-9


def test_ad_spectrum_on_g(su13):
    # the real-rank-one Iwasawa split: n is the +1 and +2 eigenspaces of ad(a)
    vals = np.linalg.eigvalsh(lie.ad_matrix(su13.transvection.algebra, su13.a_generator))
    lams, mults = np.unique(np.round(vals).astype(int), return_counts=True)
    assert np.max(np.abs(vals - np.round(vals))) <= 1e-9
    assert dict(zip(lams.tolist(), mults.tolist())) == {-2: 1, -1: 4, 0: 5, 1: 4, 2: 1}


def test_nonsymmetric_ad_matrix_is_refused(monkeypatch):
    # ad(a) is self-adjoint for the symmetric a; a skewed matrix must not be eigensolved
    def skewed(s, x):
        mat = lie.ad_matrix(s, x)
        return mat + np.triu(np.full(mat.shape, 1e-6), 1)
    monkeypatch.setattr(iwa, "ad_matrix", skewed)
    with pytest.raises(ValueError, match="ad\\(a\\) is not symmetric"):
        iwa.iwasawa_su1n(2)


def test_a_generator_membership(su12):
    a = su12.a_generator
    assert su12.transvection.p_part.distance(a / np.linalg.norm(a)) <= 1e-9
    model = su12.model
    assert core.sp_residual(model.omega, a) <= 1e-12


def test_build_a_phi_zero_is_classical(su12):
    h_phi, gen = iwa.build_a_phi(su12, np.zeros(1))
    assert np.max(np.abs(gen - su12.a_generator)) == 0
    cert = lie.series_certificate(h_phi)
    assert cert.solvable and h_phi.dim == 4


@pytest.mark.parametrize("n,phi", [(2, [0.9]), (2, [-1.4]), (3, [0.5, -1.1])])
def test_build_a_phi_deformed(n, phi, request):
    data = request.getfixturevalue("su12" if n == 2 else "su13")
    phi = np.array(phi)
    h_phi, gen = iwa.build_a_phi(data, phi)
    assert h_phi.dim == 2 * n
    cert = lie.series_certificate(h_phi)
    assert cert.solvable and not cert.abelian
    # [a_phi, n] stays inside n
    for b in data.nilpotent_part.basis:
        img = lie.bracket(gen, b)
        norm = max(1.0, float(np.linalg.norm(img)))
        assert data.nilpotent_part.distance(img / norm) <= 1e-8


def test_build_a_phi_rejects_non_m_matrix(su12):
    # the torus element is checked against m: against a wrong m it is refused
    wrong = replace(su12, centralizer_m=su12.abelian_part)
    with pytest.raises(ValueError, match="centralizer m"):
        iwa.build_a_phi(wrong, np.array([0.9]))


def spectrum_on_n(data, phi):
    return lie.ad_eigenvalues(data.nilpotent_part, iwa.build_a_phi(data, np.array(phi))[1])


def test_phi_changes_eigenvalue_multiset(su12):
    base = spectrum_on_n(su12, [0.0])
    assert np.max(np.abs(base.imag)) <= 1e-9
    assert np.allclose(np.sort(base.real), [1.0, 1.0, 2.0])
    for phi in ([0.9], [-1.4]):
        spectrum = spectrum_on_n(su12, phi)
        assert np.max(np.abs(spectrum.imag)) > 0.1
        assert not np.allclose(np.sort_complex(spectrum), np.sort_complex(base), atol=1e-8)


def test_distinct_phis_distinct_spectra(su13):
    s1 = spectrum_on_n(su13, [0.5, -1.1])
    s2 = spectrum_on_n(su13, [1.5, 0.3])
    assert not np.allclose(np.sort_complex(s1), np.sort_complex(s2), atol=1e-8)


@pytest.mark.parametrize("n,phi", [(2, None), (2, [0.9]), (2, [-1.4]),
                                   (3, None), (3, [0.5, -1.1])])
def test_rank_certificate_on_ball(n, phi, request):
    data = request.getfixturevalue("su12" if n == 2 else "su13")
    _, gen = iwa.build_a_phi(data, np.zeros(n - 1) if phi is None else np.array(phi))
    points = iwa.sample_ball_points(n, 100, seed=5)
    fields = geometry.fundamental_fields(data.model, [gen, *data.nilpotent_part.basis], points)
    cert = nil.simply_transitive_certificate(data.model, fields)
    assert cert["witness"] is None
    assert cert["min_rank"] == 2 * n


def test_torus_element_traceless_and_in_m(su13):
    phi = iwa.torus_element(3, np.array([0.7, -0.3]))
    assert abs(np.trace(phi)) <= 1e-12
    assert su13.centralizer_m.distance(phi / np.linalg.norm(phi)) <= 1e-9
    assert np.max(np.abs(lie.bracket(phi, su13.a_generator))) <= 1e-12


def test_ball_points_inside_ball():
    points = iwa.sample_ball_points(3, 50, seed=2)
    assert points.shape == (50, 6)
    for cp in points:
        assert np.linalg.norm(cp) < 1.0
