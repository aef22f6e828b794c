"""The one scatter-add (from_terms) against the dict loops it replaced.

Values must agree bitwise and keys come in ascending order, also where a
running sum cancels to exactly 0.0 and a later term revives the key; the
±1 inputs are there to make that happen.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_coefficients as ref_coeffs
from roughbody.chains import Chain, elementary
from roughbody.errors import DegreeMismatch
from roughbody.forms import Cochain
from roughbody.generate import cube_mesh, grid_mesh, random_chain, random_cochain, random_halfspace
from roughbody.maps import PAMap, pushforward
from roughbody.mesh import barycentric_refine, build_complex, refine_by_halfspace


def _bits(coeffs: dict) -> list[tuple[int, str]]:
    return [(i, float(a).hex()) for i, a in coeffs.items()]


def _assert_same(got: Chain, want: dict) -> None:
    assert _bits(got.coeffs) == sorted(_bits(want))


def _unit_chain(cx, k, rng, density=1.0) -> Chain:
    m = cx.n_simplices(k)
    keep = rng.uniform(size=m) < density
    return Chain(cx, k, {i: float(s) for i, s in enumerate(rng.choice([-1.0, 1.0], size=m)) if keep[i]})


def _chains(cx, rng):
    for k in range(cx.top_degree + 1):
        for density in (1.0, 0.5):
            yield _unit_chain(cx, k, rng, density)
        yield random_chain(cx, k, rng)
        yield elementary(cx, k, cx.n_simplices(k) // 2, -1.5)


def _folded_strip(n: int) -> PAMap:
    """A strip of n unit cells folded like an accordion onto its first cell.

    Cell i's diagonal alternates with i, so every cell's two triangles land
    on the first cell's, with orientation signs alternating along the strip.
    """
    verts = [(i, j) for i in range(n + 1) for j in (0, 1)]
    tris = []
    for i in range(n):
        a, b, c, d = 2 * i, 2 * i + 2, 2 * i + 3, 2 * i + 1  # (i,0) (i+1,0) (i+1,1) (i,1)
        tris += [(a, b, c), (a, c, d)] if i % 2 == 0 else [(a, b, d), (b, c, d)]
    cx = build_complex(np.array(verts, dtype=float), {2: tris})
    images = [(i % 2, j) for i in range(n + 1) for j in (0, 1)]
    return PAMap(cx, np.array(images, dtype=float))


@pytest.mark.parametrize("make", [lambda: cube_mesh(2, 2, 2), lambda: grid_mesh(6, 6)])
def test_boundary_matches_the_dict_loop(make):
    cx = make()
    rng = np.random.default_rng(11)
    revived = 0
    for T in _chains(cx, rng):
        if T.degree == 0:
            continue
        want, r = ref_coeffs.boundary(T)
        revived += r
        _assert_same(T.boundary(), want)
    assert revived > 0  # the ±1 chains revive keys below the top degree


def test_sum_matches_the_dict_loop():
    cx = cube_mesh(2, 2, 2)
    rng = np.random.default_rng(12)
    for k in range(cx.top_degree + 1):
        A, B = _unit_chain(cx, k, rng, 0.6), _unit_chain(cx, k, rng, 0.6)
        C = random_chain(cx, k, rng)
        for P, Q in ((A, B), (A, -A), (B, A), (A, C), (C, A.scale(0.5)), (C, Chain(cx, k))):
            _assert_same(P + Q, ref_coeffs.add(P, Q)[0])
            _assert_same(P - Q, ref_coeffs.add(P, Q.scale(-1.0))[0])


def test_pushforward_through_a_fold_matches_the_dict_loop():
    F = _folded_strip(7)
    src = F.source
    assert F.image_complex.n_simplices(2) == 2
    rng = np.random.default_rng(13)
    revived = 0
    for T in _chains(src, rng):
        want, r = ref_coeffs.pushforward(F, T)
        revived += r
        _assert_same(pushforward(F, T), want)
    assert revived > 0  # alternating signs on one image simplex cancel and come back


def test_carry_matches_the_dict_loop():
    cx = cube_mesh(2, 2, 2)
    rng = np.random.default_rng(14)
    refinements = [refine_by_halfspace(cx, random_halfspace(rng, cx)) for _ in range(3)]
    refinements.append(barycentric_refine(cx, 1))
    for ref in refinements:
        for T in _chains(cx, rng):
            _assert_same(ref.carry_chain(T), ref_coeffs.carry_chain(ref, T)[0])


def test_from_terms_orders_keys_ascending_after_a_revival():
    cx = grid_mesh(2, 2)
    keys = [3, 1, 3, 2, 3, 1, 1]
    values = [1.0, 2.0, -1.0, 5.0, 4.0, -2.0, 0.5]
    got = Chain.from_terms(cx, 1, keys, values)
    assert list(got.coeffs.items()) == [(1, 0.5), (2, 5.0), (3, 4.0)]
    assert Chain.from_terms(cx, 1, [], []).is_zero()


@pytest.mark.parametrize("cls", [Chain, Cochain])
def test_unsorted_dict_iterates_in_ascending_order(cls):
    cx = grid_mesh(2, 2)
    got = cls(cx, 1, {7: 1.0, 2: -3.0, 5: 0.0, 0: 0.25, 11: 2.0})
    assert list(got.coeffs) == [0, 2, 7, 11]
    idx = got.idx
    assert idx.tolist() == [0, 2, 7, 11]


@pytest.mark.parametrize("make", [lambda: cube_mesh(2, 2, 2), lambda: grid_mesh(6, 6)])
def test_sum_commutes_bitwise(make):
    cx = make()
    rng = np.random.default_rng(16)
    for k in range(cx.top_degree + 1):
        for _ in range(20):
            A, B = random_chain(cx, k, rng), random_chain(cx, k, rng)
            AB, BA = A + B, B + A
            assert list(AB.coeffs.items()) == list(BA.coeffs.items())
            assert AB.mass().hex() == BA.mass().hex()


def test_vector_is_dense_over_the_degree():
    cx = grid_mesh(3, 3)
    X = random_cochain(cx, 1, np.random.default_rng(15))
    T = Chain(cx, 1, {4: 2.0, 0: -1.0})
    assert np.array_equal(X.vector(), [X.coeffs[i] for i in range(cx.n_simplices(1))])
    assert np.array_equal(np.flatnonzero(T.vector()), [0, 4]) and T.vector()[4] == 2.0


def test_cochain_sum_of_different_degrees_is_a_degree_mismatch():
    cx = grid_mesh(2, 2)
    X, Y = Cochain(cx, 0, {0: 1.0}), Cochain(cx, 1, {0: 1.0})
    with pytest.raises(DegreeMismatch):
        X + Y
    with pytest.raises(DegreeMismatch):
        Chain(cx, 0, {0: 1.0}) + Chain(cx, 1, {0: 1.0})


@pytest.mark.parametrize("cls", [Chain, Cochain])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_coefficient_is_rejected(cls, bad):
    cx = grid_mesh(2, 2)
    with pytest.raises(ValueError, match="simplex 3"):
        cls(cx, 1, {0: 1.0, 3: bad, 5: bad})


@pytest.mark.parametrize("cls", [Chain, Cochain])
def test_fractional_key_is_rejected(cls):
    cx = grid_mesh(2, 2)
    with pytest.raises(ValueError, match="0.7"):
        cls(cx, 1, {0.7: 1.0, 2.9: 3.0})
    for bad in ("a", None):
        with pytest.raises(ValueError, match=repr(bad)):
            cls(cx, 1, {1: 1.0, bad: 2.0})
    got = cls(cx, 1, {np.int64(7): 1.0, 2: -3.0, np.int32(4): 0.5, np.uint8(5): 2.0})
    assert got.coeffs == {2: -3.0, 4: 0.5, 5: 2.0, 7: 1.0}


def _assert_canonical(T) -> None:
    assert T.idx.dtype == np.intp and T.val.dtype == np.float64
    assert T.idx.shape == T.val.shape == (len(T.idx),)
    assert (np.diff(T.idx) > 0).all()
    assert (T.val != 0.0).all() and np.isfinite(T.val).all()
    assert not T.idx.flags.writeable and not T.val.flags.writeable


_FOLD = _folded_strip(4)
_CUT = random_halfspace(np.random.default_rng(17), _FOLD.source)
_CARRIES = (barycentric_refine(_FOLD.source, 1), refine_by_halfspace(_FOLD.source, _CUT))
_VALUES = st.one_of(
    st.floats(-1e100, 1e100, allow_nan=False), st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324])
)


@st.composite
def _two_term_lists(draw):
    k = draw(st.integers(0, _FOLD.source.top_degree))
    terms = st.lists(st.tuples(st.integers(0, _FOLD.source.n_simplices(k) - 1), _VALUES), max_size=30)
    return k, draw(terms), draw(terms)


@settings(max_examples=80, deadline=None)
@given(_two_term_lists(), st.floats(-1e100, 1e100, allow_nan=False))
def test_every_operation_keeps_two_canonical_arrays(terms, factor):
    cx = _FOLD.source
    k, a, b = terms
    A = Chain.from_terms(cx, k, [i for i, _ in a], [v for _, v in a])
    B, X = Chain(cx, k, dict(b)), Cochain(cx, k, dict(a))
    gone = A.scale(1e-300).scale(1e-300)  # every |value| <= 3e101 underflows to 0
    results = [A, B, X, A + B, A - B, X - X, -B, A.scale(factor), gone, pushforward(_FOLD, B)]
    results += [ref.carry_chain(T) for ref in _CARRIES for T in (A, B)]
    if k:
        results += [A.boundary(), (A + B).boundary()]
    for T in results:
        _assert_canonical(T)
    assert gone.is_zero() and (A - A).is_zero()
    if not A.is_zero():
        with pytest.raises(ValueError):
            A.scale(float("nan"))
