"""``integrate`` against the two-step assembly it replaced, bit for bit.

The reference evaluates each kernel at the atoms and an antiderivative at
the piece ends as separate arrays, concatenates the atom values with the
piece differences primitive(b) - primitive(a) and multiplies by the
weights with ``@``.  ``integrate`` fills one coefficient row in place and
multiplies with ``ndarray.dot``; every elementwise step is the same, so
the results must be equal, not merely close.
"""

import numpy as np
import pytest

from specstab import (ACPiece, Atom, CauchyKernel, MatrixMeasure,
                      PoissonSquareKernel, RegularizedKernel, integrate)

from helpers import random_psd


def _param(v):
    """A scalar parameter as is, a batch as a column against the points."""
    return v[:, None] if isinstance(v, np.ndarray) else v


def _cauchy_point(kernel):
    return _param(kernel.z if kernel.pole is None else kernel.pole)


def _cauchy_primitive(kernel, ys):
    w = _cauchy_point(kernel)
    return np.log(ys - w) if kernel.pole is None else np.log(np.abs(ys - w))


def _regularized_params(kernel):
    """x, m and 1/m² against the block's axes (points, levels, terms), each
    width squared by Python's float power, level by level."""
    w2 = np.array([(1.0 / m) ** 2 for m in np.ravel(kernel.m).tolist()])
    if not isinstance(kernel.m, np.ndarray):
        return _param(kernel.x), kernel.m, w2[0]
    x = kernel.x[:, None, None] if isinstance(kernel.x, np.ndarray) else kernel.x
    return x, kernel.m[:, None], w2[:, None]


def _regularized_values(kernel, ys):
    x, _, w2 = _regularized_params(kernel)
    d = ys - x
    d *= d
    return np.reciprocal(d + w2)


def _regularized_primitive(kernel, ys):
    x, m, _ = _regularized_params(kernel)
    d = np.arctan2(ys - x, 1.0 / m)
    d *= m
    return d


# kernel class -> (values at atom points, primitive at piece ends)
REFERENCE = {
    PoissonSquareKernel: (lambda k, ys: 1.0 / (_param(k.x) - ys) ** 2,
                          lambda k, ys: 1.0 / (_param(k.x) - ys)),
    RegularizedKernel: (_regularized_values, _regularized_primitive),
    CauchyKernel: (lambda k, ys: 1.0 / (ys - _cauchy_point(k)), _cauchy_primitive),
}


def reference_integrate(kernel, omega):
    values, primitive = REFERENCE[type(kernel)]
    coef = values(kernel, omega.xs)
    p = omega.a.size
    if p:
        prim = primitive(kernel, np.concatenate([omega.a, omega.b]))
        coef = np.concatenate((coef, prim[..., p:] - prim[..., :p]), axis=-1)
    if coef.dtype.kind == "c":
        total = coef @ omega._weights
    else:
        total = (coef @ omega._weights_re_im).view(complex)
    if kernel.compensated:
        total -= omega.cauchy_offset
    return total.reshape(*coef.shape[:-1], omega.dim, omega.dim)


N = 3


def _measure(kind):
    rng = np.random.default_rng({"atomic": 11, "pieces": 12, "mixed": 13}[kind])
    atoms, pieces = [], []
    if kind != "pieces":
        xs = np.linspace(-4.0, 4.0, 40) + rng.uniform(-0.02, 0.02, size=40)
        atoms = [Atom(float(x), random_psd(rng, N, int(rng.integers(1, N + 1))))
                 for x in xs]
    if kind != "atomic":
        starts = [-4.9, -3.13, -1.0, 0.37, 2.0, 3.5]
        pieces = [ACPiece(s, s + 0.8, random_psd(rng, N)) for s in starts]
    return MatrixMeasure(N, atoms, pieces)


# off every term of all three measures
OFF = np.array([-6.2, -4.95 + 0.9, 0.3 + 0.05, 4.7, 5.55])


def _off_support(omega):
    pts = OFF[~omega.on_support(OFF)]
    assert pts.size >= 3
    return pts


def _kernels(omega):
    off = _off_support(omega)
    x = float(off[0])
    z = complex(0.7, 0.25)
    zs = np.array([-2.3 + 0.1j, 0.05 - 0.4j, 1.9 + 3.0j, 4.4 + 1e-3j])
    kernels = {
        "poisson scalar real": PoissonSquareKernel(x),
        "poisson real batch": PoissonSquareKernel(off),
        "regularized scalar real": RegularizedKernel(x, 7.5),
        "regularized at a support point": RegularizedKernel(omega.support_bounds()[0], 1e3),
        "regularized level batch": RegularizedKernel(x, np.array([0.3, 1.0, 7.5, 1e3, 3.14])),
        "regularized level batch at a support point": RegularizedKernel(
            omega.support_bounds()[0], np.array([1e3, 1.0, 7.5])),
        "regularized point batch": RegularizedKernel(np.append(off, omega.support_bounds()), 3.14),
        "cauchy scalar real": CauchyKernel(x),
        "cauchy real batch": CauchyKernel(off),
        "cauchy scalar complex": CauchyKernel(z),
        "cauchy complex batch": CauchyKernel(zs),
    }
    if omega.a.size:    # the principal value inside a piece, off every atom
        kernels["cauchy finite part in a piece"] = CauchyKernel(
            float(omega.a[0] + 0.37 * (omega.b[0] - omega.a[0])))
    return kernels


@pytest.mark.parametrize("kind", ["atomic", "pieces", "mixed"])
def test_integrate_equals_the_two_step_assembly(kind):
    omega = _measure(kind)
    kernels = _kernels(omega)
    assert ("cauchy finite part in a piece" in kernels) == (kind != "atomic")
    for name, kernel in kernels.items():
        # in a piece interior no term is within tol_x: the finite part drops
        # nothing, and is the principal value
        drop = omega._at(kernel.pole)[3] if name.endswith("in a piece") else None
        assert not drop
        got, want = integrate(kernel, omega, drop), reference_integrate(kernel, omega)
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("kind", ["atomic", "pieces", "mixed"])
def test_a_point_and_level_block_is_the_reference_formula(kind):
    # integrate has no product to match for a (G, L, K+2P) block: the scan
    # integrates its rows one by one, so the block itself is compared
    omega = _measure(kind)
    k = omega.xs.size
    xs = np.append(_off_support(omega), omega.support_bounds())
    kernel = RegularizedKernel(xs, np.array([0.3, 1.0, 7.5, 1e3, 3.14]))
    block = kernel.coefficients(omega._pts, k)
    want = np.concatenate([_regularized_values(kernel, omega.xs),
                           _regularized_primitive(kernel, omega._pts[k:])], axis=-1)
    assert block.shape == want.shape == (xs.size, 5, omega._pts.size)
    assert block.tobytes() == want.tobytes()
