"""The closed-form generator reference against partials worked out by hand."""

import itertools

import numpy as np
import pytest

from reference import ClosedFormGenerator, axes_to_exponents, central_difference_jacobian

# f(z) = 2 z0^2 z1 + 3 sin(t1) - cos(t2) + 0.5 exp(t3)      (slot {z0, z1})
#        + 1.5 z2^3 - 0.7 sin(t4)                            (slot {z2})
#        + 0.8 z0 z2                                         (cross term)
# t1 = 0.3 z0 - 0.2 z1 + 0.1, t2 = 0.5 z0 + 0.4 z1 - 0.2, t3 = 0.1 z0 + 0.2 z1,
# t4 = 0.7 z2 + 0.3
SPEC = {
    "partition": {"latent_dim": 3, "blocks": [[1, 2], [3]]},
    "out_dim": 1,
    "slot_functions": [
        {"slot_index": 1,
         "features": [{"kind": "mon", "exponents": [2, 1]},
                      {"kind": "sin", "weights": [0.3, -0.2], "bias": 0.1},
                      {"kind": "cos", "weights": [0.5, 0.4], "bias": -0.2},
                      {"kind": "exp", "weights": [0.1, 0.2], "bias": 0.0}],
         "coefficients": [[2.0, 3.0, -1.0, 0.5]]},
        {"slot_index": 2,
         "features": [{"kind": "mon", "exponents": [3]},
                      {"kind": "sin", "weights": [0.7], "bias": 0.3}],
         "coefficients": [[1.5, -0.7]]},
    ],
    "interactions": {"order_bound": 2, "terms": [{"alpha": [1, 0, 1], "c": [0.8]}]},
}


def _t(z):
    z0, z1, z2 = z
    return (0.3 * z0 - 0.2 * z1 + 0.1, 0.5 * z0 + 0.4 * z1 - 0.2,
            0.1 * z0 + 0.2 * z1, 0.7 * z2 + 0.3)


def by_hand(z):
    z0, z1, z2 = z
    t1, t2, t3, t4 = _t(z)
    s, c, e = np.sin, np.cos, np.exp
    return {
        (): 2 * z0**2 * z1 + 3 * s(t1) - c(t2) + 0.5 * e(t3) + 1.5 * z2**3
            - 0.7 * s(t4) + 0.8 * z0 * z2,
        (0,): 4 * z0 * z1 + 0.9 * c(t1) + 0.5 * s(t2) + 0.05 * e(t3) + 0.8 * z2,
        (2,): 4.5 * z2**2 - 0.49 * c(t4) + 0.8 * z0,
        (0, 1): 4 * z0 + 0.18 * s(t1) + 0.2 * c(t2) + 0.01 * e(t3),
        (1, 1): -0.12 * s(t1) + 0.16 * c(t2) + 0.02 * e(t3),
        (0, 2): 0.8,
        (1, 2): 0.0,
        (0, 0, 1): 4 + 0.054 * c(t1) - 0.1 * s(t2) + 0.001 * e(t3),
        (0, 1, 1): -0.036 * c(t1) - 0.08 * s(t2) + 0.002 * e(t3),
        (1, 1, 1): 0.024 * c(t1) - 0.064 * s(t2) + 0.004 * e(t3),
        (2, 2, 2): 9 + 0.2401 * c(t4),
        (0, 0, 2): 0.0,
        (0, 1, 2): 0.0,
    }


POINTS = [np.array([0.3, -0.7, 0.5]), np.array([-0.9, 0.2, -0.4]), np.zeros(3)]


@pytest.mark.parametrize("z", POINTS)
def test_partials_match_hand_derivation(z):
    ref = ClosedFormGenerator(SPEC)
    for axes, want in by_hand(z).items():
        got = ref.partial_by_axes(z[None], axes)[0, 0]
        assert got == pytest.approx(want, abs=1e-13), axes


@pytest.mark.parametrize("z", POINTS)
def test_partials_do_not_depend_on_index_order(z):
    ref = ClosedFormGenerator(SPEC)
    for axes in itertools.product(range(3), repeat=3):
        first = ref.partial_by_axes(z[None], axes)
        for perm in itertools.permutations(axes):
            assert np.array_equal(ref.partial_by_axes(z[None], perm), first)


def test_batch_rows_are_independent():
    ref = ClosedFormGenerator(SPEC)
    Z = np.stack(POINTS)
    batch = ref.partial(Z, (1, 1, 0))
    for i, z in enumerate(POINTS):
        assert np.array_equal(batch[i], ref.partial(z[None], (1, 1, 0))[0])


def test_top_order_cross_terms():
    assert ClosedFormGenerator(SPEC).top_order_cross_nonzero(2)
    zeroed = dict(SPEC, interactions={"order_bound": 2,
                                      "terms": [{"alpha": [1, 0, 1], "c": [0.0]}]})
    assert not ClosedFormGenerator(zeroed).top_order_cross_nonzero(2)
    # order 1: both slots write to the single output row
    assert ClosedFormGenerator(SPEC).top_order_cross_nonzero(1)


def test_axes_to_exponents_rejects_out_of_range():
    assert axes_to_exponents((2, 0, 2), 3) == (1, 0, 2)
    with pytest.raises(ValueError):
        axes_to_exponents((3,), 3)


def test_central_difference_jacobian_of_known_map():
    def f(x):
        return np.array([[x[0, 0] ** 2 * x[1, 0], np.sin(x[1, 1])]])

    x = np.array([[0.4, -1.2], [0.7, 0.3]])
    jac = central_difference_jacobian(f, x)
    want = np.zeros((1, 2, 2, 2))
    want[0, 0, 0, 0] = 2 * 0.4 * 0.7
    want[0, 0, 1, 0] = 0.4**2
    want[0, 1, 1, 1] = np.cos(0.3)
    assert np.allclose(jac, want, atol=1e-9)
