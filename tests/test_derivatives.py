import re

import numpy as np
import pytest

from asymlab import derivatives
from asymlab.derivatives import (
    StencilConfig,
    derivative_by_multiindex,
    jacobian,
    multiindex_to_axes,
    partials,
)
from asymlab.generators import preset_generator
from asymlab.multiindex import all_multiindices, mi_poly_derivative, mi_power


def poly_fn(terms):
    """terms: list of (coef per output, exponent tuple)."""

    def f(z):
        return np.sum([c * mi_power(z, e) for c, e in terms], axis=0)

    return f


def poly_derivative(terms, z, alpha):
    out = 0.0
    for c, e in terms:
        coef, rest = mi_poly_derivative(alpha, e)
        out = out + c * coef * mi_power(z, rest)
    return np.asarray(out)


def random_poly(rng, d, d_x, n_terms=6, max_order=4):
    terms = []
    for _ in range(n_terms):
        e = tuple(int(v) for v in rng.multinomial(rng.integers(0, max_order + 1),
                                                  np.ones(d) / d))
        terms.append((rng.normal(size=d_x), e))
    return terms


def test_multiindex_to_axes():
    assert multiindex_to_axes((2, 0, 1)) == (0, 0, 2)
    assert multiindex_to_axes((0, 0)) == ()


def test_jacobian_exact_on_linear():
    A = np.array([[1.0, -2.0], [0.5, 3.0], [2.0, 0.0]])
    J = jacobian(lambda z: A @ z, [0.3, -0.7])
    assert J.shape == (3, 2)
    assert np.allclose(J, A, atol=1e-12)


def test_polynomial_derivatives_all_orders():
    rng = np.random.default_rng(11)
    cfg = StencilConfig()
    for trial in range(3):
        terms = random_poly(rng, 3, 2)
        f = poly_fn(terms)
        z = rng.uniform(-1, 1, size=3)
        J = jacobian(f, z, cfg)
        for i in range(3):
            e = tuple(int(i == j) for j in range(3))
            assert np.allclose(J[:, i], poly_derivative(terms, z, e), atol=1e-8)
        for alpha in all_multiindices(3, 2) + all_multiindices(3, 3):
            got = derivative_by_multiindex(f, z, alpha, cfg)
            want = poly_derivative(terms, z, alpha)
            assert np.allclose(got, want, atol=1e-5), (alpha, got, want)


def test_trig_third_derivative():
    w = np.array([0.7, -1.1])

    def f(z):
        return np.array([np.sin(w @ z)])

    z = np.array([0.2, 0.4])
    # D_001 sin(w.z) = -w0^2 w1 cos(w.z)
    got = derivative_by_multiindex(f, z, (2, 1))
    want = -(w[0] ** 2) * w[1] * np.cos(w @ z)
    assert abs(got[0] - want) < 1e-5


def test_mixed_partial_symmetry():
    # D_0 D_2 f = D_2 D_0 f: the mixed stencil agrees with a central
    # difference of either first partial along the other axis
    rng = np.random.default_rng(5)
    terms = random_poly(rng, 3, 1)
    f = poly_fn(terms)
    z = rng.uniform(-0.5, 0.5, size=3)
    mixed = derivative_by_multiindex(f, z, (1, 0, 1))
    h = 1e-3
    for outer, inner in ((0, (0, 0, 1)), (2, (1, 0, 0))):
        e = h * np.eye(3)[outer]
        nested = (derivative_by_multiindex(f, z + e, inner)
                  - derivative_by_multiindex(f, z - e, inner)) / (2 * h)
        assert np.allclose(mixed, nested, atol=1e-5)


def test_bad_inputs():
    f = lambda z: np.array([z[0] ** 2])
    with pytest.raises(ValueError):
        derivative_by_multiindex(f, [0.0], (4,))
    with pytest.raises(ValueError):
        derivative_by_multiindex(f, [0.0], (1, 0))
    with pytest.raises(ValueError):
        derivative_by_multiindex(f, [0.0], (-1,))


def test_nonfinite_rejected():
    def f(z):
        return np.array([np.inf if z[0] > 0 else z[0]])

    with pytest.raises((ValueError, FloatingPointError)):
        jacobian(f, [0.0])


def test_order_zero_is_evaluation():
    f = lambda z: np.array([z[0] + 2 * z[1]])
    out = derivative_by_multiindex(f, [1.0, 2.0], (0, 0))
    assert np.allclose(out, [5.0])


class _Counting:
    """A batched test function that records the shape of every call."""

    batched = True

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, Z):
        self.calls.append(np.shape(Z))
        return self.f(np.asarray(Z))


def test_engine_evaluates_once_on_distinct_points():
    # per probe: the centre, 4 axis points at h1, 4 at h2, 4 corners at h2,
    # and 6 points for D_001 (outer in 0 at h3 around the (0, 1) corners;
    # the two outer shifts share the corners (0, +-h3))
    f = _Counting(lambda Z: np.stack([np.sin(Z[:, 0]) * Z[:, 1], Z[:, 0] ** 2], axis=1))
    alphas = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)]
    Z = np.random.default_rng(0).uniform(-0.5, 0.5, size=(5, 2))
    values, evaluations = partials(f, Z, alphas)
    assert f.calls == [(5 * 19, 2)]
    assert evaluations == 5 * 19
    assert values.shape == (5, len(alphas), 2)
    single = np.stack([[derivative_by_multiindex(lambda z: f.f(z[None])[0], z, a)
                        for a in alphas] for z in Z])
    # the same stencils; only the order of the weighted sums differs
    assert np.allclose(values, single, rtol=0, atol=1e-8)


def test_nonfinite_point_is_named():
    z = np.zeros(2)
    bad = np.array([1e-4, 0.0])  # the stencil point z + h1 e_0

    def single(p):
        return np.array([np.nan if p[0] > 0 else 1.0])

    batched = _Counting(lambda Z: np.where(Z[:, :1] > 0, np.nan, 1.0))
    for f in (single, batched):
        with pytest.raises(FloatingPointError, match=re.escape(str(bad))):
            partials(f, z[None], [(1, 0)])


def _closed_form(spec, z, alpha):
    """D^alpha of a GeneratorSpec at z, term by term: monomials through
    mi_poly_derivative, sin/cos/exp of affine forms through the chain rule."""
    d = spec.partition.latent_dim
    out = np.zeros(spec.out_dim)
    k = sum(alpha)
    for sf, block in zip(spec.slot_functions, spec.partition.blocks):
        for feat, col in zip(sf.features, sf.coefficients.T):
            if feat.kind == "mon":
                e = [0] * d
                for i, p in zip(block, feat.exponents):
                    e[i] = p
                coef, rest = mi_poly_derivative(alpha, e)
                out += col * coef * mi_power(z, rest)
                continue
            w = np.zeros(d)
            w[list(block)] = feat.weights
            t = w @ z + feat.bias
            scale = np.prod(w ** np.array(alpha))
            if feat.kind == "sin":
                out += col * scale * np.sin(t + k * np.pi / 2)
            elif feat.kind == "cos":
                out += col * scale * np.cos(t + k * np.pi / 2)
            else:
                out += col * scale * np.exp(t)
    for a, c in spec.interactions.terms:
        coef, rest = mi_poly_derivative(alpha, a)
        out += c * coef * mi_power(z, rest)
    return out


@pytest.mark.parametrize("n", [0, 1, 2])
def test_engine_matches_closed_form_on_presets(n):
    cfg = StencilConfig()
    spec = preset_generator(n, rng_seed=50 + n)
    d = spec.partition.latent_dim
    Z = np.random.default_rng(n).uniform(-0.8, 0.8, size=(4, d))
    alphas = [a for o in (1, 2, 3) for a in all_multiindices(d, o)]
    est, _ = partials(spec, Z, alphas, cfg)
    for z, row in zip(Z, est):
        exact = np.stack([_closed_form(spec, z, a) for a in alphas])
        M = float(np.max(np.abs(exact)))
        for a, got, want in zip(alphas, row, exact):
            h = cfg.step(sum(a))
            assert np.max(np.abs(got - want)) <= h * h * (1.0 + M), a


def test_request_is_validated_once(monkeypatch):
    # the multi-indices of a request are checked when its table is built,
    # and a bad request is refused every time
    derivatives._weight_table.cache_clear()
    calls = []
    real = derivatives.validate_multiindex
    monkeypatch.setattr(derivatives, "validate_multiindex",
                        lambda a, d=None: calls.append(a) or real(a, d=d))
    f = lambda z: np.array([z[0] * z[1] + z[2]])
    Z = np.zeros((2, 3))
    alphas = [(1, 0, 0), (1, 1, 0), (0, 1, 2)]
    first, _ = partials(f, Z, alphas)
    n = len(calls)
    again, _ = partials(f, Z, [np.array(a) for a in alphas])
    assert n == len(alphas) and len(calls) == n
    assert np.array_equal(first, again)
    for _ in range(2):
        with pytest.raises(ValueError, match="unsupported derivative order"):
            partials(f, Z, [(1, 0, 0), (2, 2, 0)])
        with pytest.raises(ValueError, match="multi-index entries must be >= 0"):
            partials(f, Z, [(1, 0, -1)])
