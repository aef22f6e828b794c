import numpy as np
import pytest
from reference_kvectors import simple_from_columns

from roughbody import multivec
from roughbody.mesh import kvectors, simplex_volumes


def test_basis_dimensions():
    assert multivec.dim(3, 0) == 1
    assert multivec.dim(3, 1) == 3
    assert multivec.dim(3, 2) == 3
    assert multivec.dim(3, 3) == 1
    assert multivec.dim(2, 1) == 2


def _wedge(a, k, b, r, n):
    """The wedge of a k-(co)vector with an r-(co)vector, contracted against wedge_tensor."""
    return np.einsum("i,j,ijo->o", a, b, multivec.wedge_tensor(n, k, r))


def test_wedge_antisymmetry():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    a = _wedge(e1, 1, e2, 1, 3)
    b = _wedge(e2, 1, e1, 1, 3)
    assert np.allclose(a, -b)
    assert np.allclose(_wedge(e1, 1, e1, 1, 3), 0.0)


def test_wedge_associativity_to_volume():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    e12 = _wedge(e1, 1, e2, 1, 3)
    e123 = _wedge(e12, 2, e3, 1, 3)
    assert np.allclose(e123, [1.0])


def test_contract_defining_identity():
    # <psi, phi -| xi> == <phi ^ psi, xi> on random data
    rng = np.random.default_rng(3)
    n, k, r = 3, 1, 3
    phi = rng.normal(size=multivec.dim(n, k))
    xi = rng.normal(size=multivec.dim(n, r))
    mu = multivec.contract(phi, k, xi, r, n)
    for _ in range(10):
        psi = rng.normal(size=multivec.dim(n, r - k))
        lhs = float(np.dot(psi, mu))
        rhs = float(np.dot(_wedge(phi, k, psi, r - k, n), xi))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_contract_normal_gives_rotated_tangent():
    # in 2D: nu* -| (e1^e2) rotates the normal by +90 degrees
    vol = np.array([1.0])
    nu = np.array([1.0, 0.0])
    t = multivec.contract(nu, 1, vol, 2, 2)
    assert np.allclose(t, [0.0, 1.0])


def test_simple_from_columns_matches_det():
    E = np.array([[2.0, 1.0], [0.0, 3.0]])
    comps = simple_from_columns(E)
    assert comps[0] == pytest.approx(np.linalg.det(E))


def test_multivector_norm_is_euclidean():
    # the triangle with edges e_1 and 3 e_2 + 4 e_3 has 2-vector (3, 4, 0), mass 5
    C = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 3.0, 4.0]]])
    assert np.allclose(kvectors(C), [[3.0, 4.0, 0.0]])
    assert simplex_volumes(C)[0] == pytest.approx(5.0 / 2)
