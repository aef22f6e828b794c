import numpy as np
import pytest

from roughbody.poly import derivative_tensor, integrate_over_simplex, multiply, powers, substitution

TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# coefficients over the degree-1 table in two variables: 1, x, y
X = np.array([0.0, 1.0, 0.0])
Y = np.array([0.0, 0.0, 1.0])


def value(coef, x):
    degree = {1: 0, 3: 1, 6: 2, 10: 3}[len(coef)]
    return float(coef @ powers(np.asarray(x, dtype=float), degree))


def integral(coef, coords, volume):
    return float(integrate_over_simplex(np.asarray(coef)[None], np.asarray(coords)[None], np.array([volume]))[0])


def test_affine_eval():
    p = np.array([3.0, 2.0, -1.0])
    assert value(p, [1.0, 2.0]) == pytest.approx(3.0)


def test_mul_and_diff():
    xy = multiply(X, Y, 2)
    assert value(xy, [3.0, 4.0]) == pytest.approx(12.0)
    assert value(xy @ derivative_tensor(2, 2)[0], [3.0, 4.0]) == pytest.approx(4.0)


def test_integrate_constant_gives_volume():
    one = np.array([1.0])
    assert integral(one, TRI, 0.5) == pytest.approx(0.5)


def test_integrate_monomials_on_reference_triangle():
    # int_T x = 1/6, int_T x y = 1/24, int_T x^2 = 1/12 over the unit right triangle
    assert integral(X, TRI, 0.5) == pytest.approx(1.0 / 6.0)
    assert integral(multiply(X, Y, 2), TRI, 0.5) == pytest.approx(1.0 / 24.0)
    assert integral(multiply(X, X, 2), TRI, 0.5) == pytest.approx(1.0 / 12.0)
    # degree three, against the closed form int x^2 y = 1/60
    assert integral(multiply(multiply(X, X, 2), Y, 2), TRI, 0.5) == pytest.approx(1.0 / 60.0)


def test_integration_against_quadrature_oracle(rng):
    """Random quadratics over a random triangle against dense Monte Carlo."""
    V = rng.normal(size=(3, 2))
    E = (V[1:] - V[0]).T
    vol = abs(np.linalg.det(E)) / 2.0
    # coefficients of 1, x, y, x^2, x y, y^2
    p = np.array([rng.normal() for _ in range(6)])
    exact = integral(p, V, vol)
    # midpoint-subdivision oracle on a fine barycentric grid
    N = 300
    total = 0.0
    count = 0
    for i in range(N):
        for j in range(N - i):
            l1 = (i + 1.0 / 3.0) / N
            l2 = (j + 1.0 / 3.0) / N
            pt = V[0] + l1 * (V[1] - V[0]) + l2 * (V[2] - V[0])
            total += value(p, pt)
            count += 1
    approx = total / count * vol
    assert exact == pytest.approx(approx, rel=2e-2, abs=2e-2)


def test_compose_affine():
    p = np.array([0.0, 1.0, 1.0])  # x + y
    M = np.array([[2.0, 0.0], [0.0, 3.0]])
    c = np.array([1.0, -1.0])
    q = p @ substitution(np.concatenate([c[:, None], M], axis=1)[None], 1)[0]  # (1 + 2u) + (-1 + 3v)
    u = np.array([1.0, 1.0])
    assert value(q, u) == pytest.approx(value(p, c + M @ u))


def test_segment_integral():
    seg = np.array([[0.0, 0.0], [3.0, 4.0]])
    # int over segment of x dH^1 = length * mean(x) = 5 * 1.5
    assert integral(X, seg, 5.0) == pytest.approx(7.5)
