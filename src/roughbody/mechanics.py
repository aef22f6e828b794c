"""Configurations, virtual velocities, Cauchy fluxes and stress reports.

A Cauchy flux is a black-box evaluator on (surface chain, velocity) pairs
with declared balance constants; trust is never assumed, the constants are
audited empirically.  The constructive correspondence with tuples of flat
(n-1)-cochains is implemented in both directions and round-trips exactly
on simplicial data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chains import Chain
from .errors import (
    ComplexMismatch,
    DeclaredConstantViolated,
    ExtensionDependence,
    OrientationReversal,
)
from .flatnorm import cochain_flat_norm
from .forms import (
    Cochain,
    EvaluableCurrent,
    FormField,
    chain_as_current,
    coboundary,
    interior_product,
    whitney_realize,
)
from .maps import PAMap, lip_seminorm, pullback_form, pushforward
from .mesh import Complex
from .sharp import SharpField, multiply

EXTENSION_TOL = 1e-9


class Configuration:
    """A PA map validated as an embedding; the deformed mesh is its image."""

    def __init__(self, pamap: PAMap):
        verdict = pamap.embedding()
        if not verdict.ok:
            raise ValueError(f"configuration map is not an embedding: {verdict.witness}")
        self.map = pamap
        self.c = verdict.c
        self.d = verdict.d

    @property
    def source(self) -> Complex:
        return self.map.source

    @property
    def image_complex(self) -> Complex:
        return self.map.image_complex

    def push(self, T: Chain) -> Chain:
        return pushforward(self.map, T)


class VirtualVelocity:
    """n-tuple of sharp fields on the deformed (image) mesh."""

    def __init__(self, fields):
        fields = tuple(fields)
        cx = fields[0].complex
        if any(f.complex is not cx for f in fields):
            raise ComplexMismatch("velocity components live on different complexes")
        if len(fields) != cx.dim:
            raise ValueError(f"need {cx.dim} components, got {len(fields)}")
        self.fields = fields
        self.complex = cx

    def __getitem__(self, i: int) -> SharpField:
        return self.fields[i]

    def __len__(self) -> int:
        return len(self.fields)

    @classmethod
    def constant(cls, cx: Complex, vector) -> "VirtualVelocity":
        vector = np.asarray(vector, dtype=float)
        nv = cx.vertices.shape[0]
        return cls([SharpField(cx, np.full(nv, v)) for v in vector])


@dataclass
class CauchyFlux:
    """Component evaluators (surface chain, scalar velocity) -> power, with constants."""

    components: list[Callable[[Chain, SharpField], float]]
    s: float
    b: float
    complex: Complex

    def evaluate(self, surface: Chain, velocity: VirtualVelocity) -> float:
        return sum(comp(surface, velocity[i]) for i, comp in enumerate(self.components))

    def component(self, i: int, surface: Chain, u: SharpField) -> float:
        return self.components[i](surface, u)


def flux_from_cochains(cochains) -> CauchyFlux:
    """The Cauchy flux Phi(S, v) = sum_i X_i(v_i S) of a cochain tuple.

    Declared constants follow the duality estimates: s is the
    largest component flat norm and b is (n+1) times it.
    """
    cochains = tuple(cochains)
    cx = cochains[0].complex
    if any(X.complex is not cx for X in cochains):
        raise ComplexMismatch("cochain components live on different complexes")
    if len(cochains) != cx.dim or any(X.degree != cx.dim - 1 for X in cochains):
        raise ValueError(f"need {cx.dim} {cx.dim - 1}-cochain components")
    forms = [whitney_realize(X) for X in cochains]

    def make(i):
        w = forms[i]

        def comp(surface: Chain, u: SharpField) -> float:
            return multiply(u, surface).evaluate(w)

        return comp

    C = max(cochain_flat_norm(X) for X in cochains)
    return CauchyFlux([make(i) for i in range(cx.dim)], s=C, b=C * (cx.dim + 1), complex=cx)


@dataclass
class CochainRecovery:
    cochains: tuple[Cochain, ...]
    flat_norms: list[float]
    bound: float  # max{s, b} declared by the flux
    bound_ok: bool
    max_extension_deviation: float


def _hat_extension(cx: Complex, facet_idx: int) -> SharpField:
    """PL field equal to 1 on a facet's vertices and 0 elsewhere."""
    values = np.zeros(cx.vertices.shape[0])
    values[cx.arrays[cx.top_degree - 1][facet_idx]] = 1.0
    return SharpField(cx, values)


def cochains_from_flux(flux: CauchyFlux) -> CochainRecovery:
    """Recover the flat (n-1)-cochain tuple of a balanced flux.

    For each facet, the coefficient is the flux of the elementary facet
    chain against the constant-1 velocity; independence of the extension is
    checked against a hat field that tapers within one neighbour ring, and
    a disagreement beyond EXTENSION_TOL of the facet's own scale (the larger
    of |coefficient| and s times its volume) raises ExtensionDependence (the
    flux is not balanced).  The recovered flat norms must stay within 1e-9
    of max{s, b}, relative.
    """
    cx = flux.complex
    n = cx.dim
    k = n - 1
    ones = SharpField(cx, np.ones(cx.vertices.shape[0]))
    cochains = []
    max_dev = 0.0
    vols = cx.volumes(k)
    for i in range(n):
        values = []
        for idx in range(cx.n_simplices(k)):
            elem = Chain.from_terms(cx, k, [idx], [1.0])
            a = flux.component(i, elem, ones)
            alt = flux.component(i, elem, _hat_extension(cx, idx))
            dev = abs(a - alt)
            max_dev = max(max_dev, dev)
            if dev > EXTENSION_TOL * max(abs(a), flux.s * vols[idx]):
                raise ExtensionDependence(
                    f"component {i}, facet {idx}: extensions give {a} and {alt}"
                )
            values.append(a)
        cochains.append(Cochain.from_terms(cx, k, np.arange(len(values)), values))
    norms = [cochain_flat_norm(X) for X in cochains]
    bound = max(flux.s, flux.b)
    ok = all(f <= bound * (1.0 + 1e-9) for f in norms)
    return CochainRecovery(tuple(cochains), norms, bound, ok, max_dev)


@dataclass
class BalanceEstimate:
    s_emp: float
    b_emp: float
    s_witness: tuple | None
    b_witness: tuple | None


def _carrier_region(chain: Chain) -> list[int]:
    cx = chain.complex
    return np.unique(cx.containing_tops(chain.degree, chain.idx)).tolist()


def _max_ratio(flux: CauchyFlux, chains: list[Chain], velocities, of_boundary: bool) -> tuple[float, tuple | None]:
    """Max of |Phi^i(S, v_i)| / (||v_i||_Lip M(T)) over the nonzero chains T, and its witness.

    S is T itself with the Lipschitz norm over T's carrier tops, or, with
    of_boundary, bd T with the norm over T's own simplices.  The witness is
    (chain index, velocity index, component).
    """
    best, witness = 0.0, None
    for ti, T in enumerate(chains):
        if T.is_zero():
            continue
        S, region = (T.boundary(), T.idx.tolist()) if of_boundary else (T, _carrier_region(T))
        mass = T.mass()
        for vi, v in enumerate(velocities):
            for i in range(len(flux.components)):
                denom = lip_seminorm(v[i], region) * mass
                if denom <= 0.0:
                    continue
                ratio = abs(flux.component(i, S, v[i])) / denom
                if ratio > best:
                    best, witness = ratio, (ti, vi, i)
    return best, witness


def estimate_balance_constants(
    flux: CauchyFlux,
    surfaces: list[Chain],
    velocities: list[VirtualVelocity],
    bodies: list[Chain] | None = None,
    enforce: bool = True,
) -> BalanceEstimate:
    """Empirical balance constants over sampled surfaces, bodies and velocities.

    Ratios |Phi^i| / (||v_i||_Lip * M) are maximized over the samples; with
    enforce=True an excess over the declared constants by more than 1e-9
    of them raises DeclaredConstantViolated with the witness sample.
    """
    s_emp, s_wit = _max_ratio(flux, surfaces, velocities, of_boundary=False)
    b_emp, b_wit = _max_ratio(flux, bodies or [], velocities, of_boundary=True)
    if enforce:
        if s_emp > flux.s * (1.0 + 1e-9):
            raise DeclaredConstantViolated(f"empirical s {s_emp} exceeds declared {flux.s} at {s_wit}")
        if b_emp > flux.b * (1.0 + 1e-9):
            raise DeclaredConstantViolated(f"empirical b {b_emp} exceeds declared {flux.b} at {b_wit}")
    return BalanceEstimate(s_emp, b_emp, s_wit, b_wit)


# -- strain and power ---------------------------------------------------------


def strain(config: Configuration, T: Chain, v: VirtualVelocity) -> tuple[EvaluableCurrent, ...]:
    """Kinematic interpolation eps_i = v_i bd(k# T) - bd(v_i k# T) = d(alpha_{v_i}) -| k# T."""
    B = config.push(T)
    if v.complex is not config.image_complex:
        raise ComplexMismatch("velocity does not live on the deformed mesh")
    return tuple(interior_product(whitney_realize(coboundary(v[i].as_cochain())), B) for i in range(len(v)))


@dataclass
class VirtualPowerReport:
    surface_power: float
    body_power: float
    internal_power: float

    @property
    def residual(self) -> float:
        return abs(self.surface_power + self.body_power - self.internal_power)


def virtual_power_report(
    cochains, config: Configuration, T: Chain, v: VirtualVelocity
) -> VirtualPowerReport:
    """The three power terms of the virtual-power identity.

    surface = sum X_i(v_i k# bd T), body = -sum dX_i(v_i k# T),
    internal = sum X_i(strain_i); surface + body = internal holds to
    quadrature exactness.
    """
    cochains = tuple(cochains)
    B = config.push(T)
    bndB = B.boundary()
    eps = strain(config, T, v)
    surface = body = internal = 0.0
    for i, X in enumerate(cochains):
        w = whitney_realize(X)
        surface += multiply(v[i], bndB).evaluate(w)
        body -= multiply(v[i], B).evaluate(w.d())
        internal += eps[i].evaluate(w)
    return VirtualPowerReport(surface, body, internal)


@dataclass
class StressReport:
    spatial: tuple[float, float, float]  # surface, body, internal powers
    material: tuple[float, float, float]
    max_deviation: float
    piola_kirchhoff: tuple[FormField, ...]
    cauchy: tuple[FormField, ...]


def stress_report(
    cochains, config: Configuration, T: Chain, v: VirtualVelocity
) -> StressReport:
    """Material-frame power integrals cross-checked against spatial evaluations.

    Per component, the n-forms d(v_i w_i), -v_i dw_i and dv_i ^ w_i of the
    spatial powers are pulled back to the source (maps.pullback_form) and
    paired with T as a current, so T's orientation counts as it does in the
    spatial frame; the Piola-Kirchhoff tuple is the pullback of the Cauchy
    stress forms.
    """
    cochains = tuple(cochains)
    n = config.source.dim
    if config.map.target_dim != n:
        raise OrientationReversal("material frame needs equal source and target dimensions")
    flipped = T.idx[config.map.dets[T.idx] <= 0.0]
    if flipped.size:
        raise OrientationReversal(f"simplex {flipped[0]} has non-positive Jacobian")

    vp = virtual_power_report(cochains, config, T, v)
    forms = [whitney_realize(X) for X in cochains]
    body = chain_as_current(T)
    material = np.zeros(3)
    for i, w in enumerate(forms):
        vi = v[i].form
        terms = (vi.wedge(w).d(), vi.wedge(w.d()).scale(-1.0), vi.d().wedge(w))
        material += [body.evaluate(pullback_form(config.map, term)) for term in terms]

    spatial = (vp.surface_power, vp.body_power, vp.internal_power)
    material = tuple(material.tolist())
    dev = max(abs(a - b) for a, b in zip(spatial, material))
    pk = tuple(pullback_form(config.map, w) for w in forms)
    return StressReport(spatial, material, dev, pk, tuple(forms))
