"""The criterion's arithmetic helpers against the numpy calls they replaced.

``measure._fro`` runs the sums of ``np.linalg.norm`` without its wrapper,
and ``hermitian_part`` halves its sum in place where it halved a copy, so
both must equal the old expressions bit for bit, not merely closely.  On
``bench/instances.mixed_instance`` measures the evidence residuals of both
criteria are checked against the old ``np.linalg.norm`` formulas, written
out here.  The stored weights and C are their own Hermitian parts, and so
are T(x) and M(x) at real points: the property that lets ``t_matrix``,
``boundary_value`` and ``max_mult_test`` skip ``hermitian_part``.
``RegularizedKernel`` over a batch of points and levels fills one block
whose rows are the one-point, one-level kernels' rows, and
``scan_forbidden`` built from those blocks, in chunks of any size, gives
the records of the old loop of one kernel per point and level.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from specstab import (ACPiece, Atom, HerglotzMatrix, MatrixMeasure,
                      RegularizedKernel, ScanConfig, boundary_value, hermitian_part,
                      integrate, is_divergent, max_mult_test, max_mult_test_via,
                      scan_forbidden, t_matrix)
from specstab.herglotz import integrate_cauchy
from specstab.measure import Kernel, _fro
from specstab import scan
from specstab.scan import GridRecord

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import instances  # noqa: E402

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64)
ANY = st.one_of(FINITE, st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 1e300]))


@st.composite
def _matrices(draw, elements, shapes):
    """A real or complex float64 array of one of the shapes."""
    shape = draw(shapes)
    re = draw(hnp.arrays(np.float64, shape, elements=elements))
    if not draw(st.booleans()):
        return re
    z = np.empty(shape, dtype=complex)      # re + 1j·im would turn an infinite im into NaN
    z.real, z.imag = re, draw(hnp.arrays(np.float64, shape, elements=elements))
    return z


def _bits(v) -> bytes:
    return np.asarray(v, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(a=_matrices(ANY, st.sampled_from([(3, 3), (1, 1), (2, 4)])),
       view=st.sampled_from(["as is", "T", "conj T", "F order", "real part"]))
def test_fro_of_one_matrix_is_np_linalg_norm_bitwise(a, view):
    a = {"as is": a, "T": a.T, "conj T": a.conj().T,
         "F order": np.asfortranarray(a), "real part": a.real}[view]
    with np.errstate(all="ignore"):
        want, got = np.linalg.norm(a), _fro(a)
    assert isinstance(got, float)
    assert _bits(got) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(a=_matrices(ANY, st.sampled_from([(1, 3, 3), (5, 3, 3), (0, 3, 3), (2, 3, 2, 2)])),
       transposed=st.booleans())
def test_fro_of_a_stack_is_np_linalg_norm_bitwise(a, transposed):
    if transposed:
        a = a.swapaxes(-1, -2)
    with np.errstate(all="ignore"):
        want, got = np.linalg.norm(a, axis=(-2, -1)), _fro(a)
    assert got.shape == a.shape[:-2]
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.int32, bool])
@pytest.mark.parametrize("shape", [(3, 3), (1, 1), (2, 4), (5, 3, 3), (2, 3, 2, 2), (0, 3, 3)])
def test_fro_of_a_real_array_is_np_linalg_norm_bitwise(dtype, shape):
    # the inputs of the real-only branch _fro no longer has: np.linalg.norm
    # sums a bool or integer array as floats, where a bool dot is a logical or
    rng = np.random.default_rng(7)
    for scale in (1, 3, 4_000_000_000):     # the last squares past the int64 range
        a = (rng.integers(-2, 3, size=shape) * scale).astype(dtype)
        want = np.linalg.norm(a, axis=(-2, -1)) if a.ndim > 2 else np.linalg.norm(a)
        assert _bits(_fro(a)) == _bits(want), (dtype, shape, scale)


def _subnormal_case():
    """5e-324j everywhere but a zero at [0, 1]: h *= 0.5 gave +0.0 at
    [0, 1].imag, where 0.5 * (a + a*) gives -0.0."""
    a = np.full((3, 3), 5e-324j)
    a[0, 1] = 0.0
    return a


@settings(max_examples=300, deadline=None)
@given(a=_matrices(st.one_of(FINITE, st.sampled_from([np.inf, -np.inf, -0.0, 1e308])),
                   st.sampled_from([(3, 3), (1, 1), (6, 3, 3), (2, 2, 4, 4)])),
       read_only=st.booleans(), f_order=st.booleans())
@example(a=_subnormal_case(), read_only=False, f_order=False)
def test_hermitian_part_is_the_halved_sum_bitwise(a, read_only, f_order):
    if f_order:
        a = np.asfortranarray(a)
    before = a.copy()
    a.setflags(write=not read_only)
    with np.errstate(all="ignore"):
        want, got = 0.5 * (a + a.conj().swapaxes(-1, -2)), hermitian_part(a)
    assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert a.tobytes() == before.tobytes()          # the input is left alone


@settings(max_examples=100, deadline=None)
@given(a=_matrices(ANY, st.sampled_from([(3, 3), (4, 3, 3)])))
def test_hermitian_part_keeps_nan_where_the_halved_sum_has_it(a):
    # np.multiply(0.5, h, h) is 0.5 * h with its operands in the same order,
    # so the products of a complex multiply with NaN match too, sign and payload
    with np.errstate(all="ignore"):
        want, got = 0.5 * (a + a.conj().swapaxes(-1, -2)), hermitian_part(a)
    assert got.tobytes() == want.tobytes()


def _mixed_cases(seed):
    """(m, d, d', x) over the queries of one mixed instance: D = M(x+i0)
    where that is finite, else M(x + 0.05 + i0) (at the atoms)."""
    inst = instances.mixed_instance(np.random.default_rng(seed))
    m = HerglotzMatrix.from_measure(inst.layout.matrix_measure())
    for q in inst.queries:
        shift = 0.05 if q.kind == instances.AT_ATOM else 0.0
        d = boundary_value(m, q.x + shift).m_boundary
        yield m, d, d + q.gap, q.x


@pytest.mark.parametrize("seed", [1, 2, 3, 99])
def test_evidence_residuals_are_the_old_norm_formulas(seed):
    kinds = set()
    for m, d, dp, x in _mixed_cases(seed):
        ev = max_mult_test(m, d, x)
        want = (float(np.linalg.norm(ev.m_boundary - d))
                if ev.m_boundary is not None else np.inf)
        assert _bits(ev.residual) == _bits(want)
        ev = max_mult_test_via(m, d, dp, x)
        target = np.linalg.inv(dp - d)
        want = (float(np.linalg.norm(ev.m_boundary - target))
                / max(1.0, float(np.linalg.norm(target)))
                if ev.m_boundary is not None else np.inf)
        assert _bits(ev.residual) == _bits(want)
        kinds.add((ev.verdict, np.isfinite(ev.residual), ev.t_finite))
    assert {(True, True, True), (False, True, False)} <= kinds


@pytest.mark.parametrize("seed", [1, 2, 3, 99])
def test_batched_residuals_are_the_old_stacked_norm(seed):
    cases = list(_mixed_cases(seed))
    m, d = cases[0][0], cases[0][1]
    xs = np.array([x for *_, x in cases])
    evidence = max_mult_test(m, d, xs)
    off = ~m.omega.on_support(xs)
    mb = np.array([ev.m_boundary for ev, o in zip(evidence, off) if o])
    want = np.linalg.norm(mb - d, axis=(1, 2))
    got = [ev.residual for ev, o in zip(evidence, off) if o]
    assert len(got) > 10 and _bits(got) == _bits(want)


def _evidence_bytes(m, d, dp, x) -> bytes:
    """Every field of both criteria's evidence at x, as bytes."""
    out = []
    for ev in (max_mult_test(m, d, x), max_mult_test_via(m, d, dp, x)):
        for v in (ev.t_value, ev.m_boundary):
            out.append(repr(v).encode() if v is None or is_divergent(v) else v.tobytes())
        out.append(_bits([ev.x, ev.residual]) + bytes([ev.verdict, ev.via]))
    return b"|".join(out)


@pytest.mark.parametrize("seed", [1, 2])
def test_evidence_is_the_same_from_a_primed_matrix(seed):
    # boundary_value keeps T(x) and M(x) of its last point on the matrix:
    # primed at x or at another point, both criteria answer as a fresh one
    cases = list(_mixed_cases(seed))
    kinds = set()
    for (m, d, dp, x), (*_, other) in zip(cases, cases[1:] + cases[:1]):
        kinds.add("atom" if x in m.omega.xs.tolist() else
                  "piece" if m.omega.on_support(x) else "off")
        want = _evidence_bytes(HerglotzMatrix(m.C, m.omega), d, dp, x)
        for prime in (x, other):
            primed = HerglotzMatrix(m.C, m.omega)
            boundary_value(primed, prime)
            assert _evidence_bytes(primed, d, dp, x) == want, (x, prime)
    assert kinds == {"atom", "piece", "off"}


# -- Hermitian by construction -----------------------------------------------


@st.composite
def _hermitian(draw, n, kind, psd=True):
    """An n x n matrix of one kind: exactly Hermitian, Hermitian to about
    1e-13, or real diagonal with signed zeros off the diagonal."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "diagonal":
        a = np.zeros((n, n), dtype=complex)
        a.real[np.diag_indices(n)] = rng.uniform(0.0, 2.0, size=n) * (rng.random(n) < 0.8)
        zeros = (rng.random((n, n)) < 0.5) & ~np.eye(n, dtype=bool)
        a.real[zeros] = -0.0
        a.imag[rng.random((n, n)) < 0.5] = -0.0
        return a
    rank = draw(st.integers(1, n))
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    a = g @ g.conj().T if psd else g @ rng.normal(size=(rank, n))
    a = hermitian_part(a)
    if kind == "rounding":
        a += 1e-13 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return a


@st.composite
def _herglotz(draw):
    """M of a measure with atoms and pieces in disjoint cells of [-5, 5],
    its off-support points (the cell edges and ±7) and piece midpoints."""
    n = draw(st.integers(1, 4))
    kinds = st.sampled_from(["exact", "rounding", "diagonal"])
    atoms, pieces = [], []
    for lo in range(-5, 5, 2):
        term = draw(st.sampled_from(["atom", "piece", "piece", None]))
        if term == "atom":
            atoms.append(Atom(lo + draw(st.floats(0.3, 1.7)), draw(_hermitian(n, draw(kinds)))))
        elif term == "piece":
            a = lo + draw(st.floats(0.2, 0.9))
            pieces.append(ACPiece(a, a + draw(st.floats(0.2, 0.9)),
                                  draw(_hermitian(n, draw(kinds)))))
    if not atoms and not pieces:
        atoms.append(Atom(0.0, np.eye(n)))
    if all(not np.trace(t.W if isinstance(t, Atom) else t.rho).real > 0.0
           for t in atoms + pieces):
        atoms.append(Atom(5.5, np.eye(n)))
    omega = MatrixMeasure(n, atoms, pieces)
    c = draw(st.one_of(st.none(), kinds.flatmap(lambda k: _hermitian(n, k, psd=False))))
    m = HerglotzMatrix.from_measure(omega, c)
    off = np.array([-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 7.0])
    mids = [0.5 * (p.a + p.b) for p in pieces]
    return m, off[~omega.on_support(off)], mids


def _own_hermitian_part(v) -> bool:
    return hermitian_part(v).tobytes() == v.tobytes()


@settings(max_examples=200, deadline=None)
@given(case=_herglotz())
def test_weights_c_and_real_point_integrals_are_their_own_hermitian_parts(case):
    m, off, mids = case
    n = m.dim
    assert _own_hermitian_part(m.omega.W.reshape(-1, n, n))
    assert _own_hermitian_part(m.omega.rho.reshape(-1, n, n))
    assert _own_hermitian_part(m.C)
    assert _own_hermitian_part(t_matrix(m, off))
    assert _own_hermitian_part(integrate_cauchy(m, off))
    for x in off.tolist():
        assert _own_hermitian_part(t_matrix(m, x))
        assert _own_hermitian_part(integrate_cauchy(m, x))
        assert _own_hermitian_part(boundary_value(m, x).m_boundary)
    for x in mids:      # the finite part C + PV∫ in a piece interior
        assert _own_hermitian_part(boundary_value(m, x).m_boundary)


# -- one coefficient block per scan point -------------------------------------


def _old_regularized_row(pts, k, x, m):
    """The coefficients of one level m as the one-level kernel formed them."""
    d = pts - x
    v, e = d[:k], d[k:]
    v *= v
    v += (1.0 / m) ** 2
    np.reciprocal(v, out=v)
    np.arctan2(e, 1.0 / m, out=e)
    e *= m
    return d


class _OldRegularized(Kernel):
    def __init__(self, x, m):
        self.x, self.m = x, m

    def coefficients(self, pts, k):
        return _old_regularized_row(pts, k, self.x, self.m)


def _old_scan(omega, config):
    """scan_forbidden as a loop of one kernel and one integrate call per level."""
    h = HerglotzMatrix.from_measure(omega)
    grid = config.grid()
    records = []
    for x, in_support in zip(grid.tolist(), omega.on_support(grid).tolist()):
        t = t_matrix(h, x)
        reg = {int(m): integrate(_OldRegularized(x, float(m)), omega).real.diagonal().tolist()
               for m in config.m_schedule}
        records.append(GridRecord(x, in_support, not is_divergent(t), t, reg))
    return records


def _record_bits(r):
    t = _bits(np.asarray(r.t_value).view(float)) if r.t_finite else r.t_value.directions
    return (r.x, r.in_support, r.t_finite, t,
            [(m, _bits(v)) for m, v in r.regularized_diagonals.items()])


SCAN = ScanConfig(-4.0, 4.0, 17)    # grid step 0.5, every point exact


@st.composite
def _scan_case(draw):
    """A measure whose terms sit at the points of SCAN's grid: an atom on a
    point or within tol_x of it, a piece ending or starting at a point or
    holding it inside; some terms carry no trace."""
    n = draw(st.integers(1, 3))
    tol_x = MatrixMeasure(1, [Atom(0.0, [[1.0]])]).tols.tol_x
    kinds = st.sampled_from(["exact", "rounding", "diagonal", "zero"])

    def weight():
        kind = draw(kinds)
        return np.zeros((n, n)) if kind == "zero" else draw(_hermitian(n, kind))

    atoms, pieces = [], []
    for x in SCAN.grid().tolist():
        term = draw(st.sampled_from(["atom on", "atom near", "piece ending", "piece starting",
                                     "piece around", None]))
        if term == "atom on":
            atoms.append(Atom(x, weight()))
        elif term == "atom near":
            atoms.append(Atom(x + draw(st.sampled_from([-0.5, 0.9])) * tol_x, weight()))
        elif term == "piece ending":
            pieces.append(ACPiece(x - 0.3, x, weight()))
        elif term == "piece starting":
            pieces.append(ACPiece(x, x + 0.2, weight()))
        elif term == "piece around":
            pieces.append(ACPiece(x - 0.15, x + draw(st.floats(0.01, 0.15)), weight()))
    atoms.append(Atom(4.75, np.eye(n)))     # off the grid: the measure is never trivial
    # at 1.57, 3.14 and 5.77 libm's (1/m) ** 2 is not numpy's (1/m) * (1/m)
    levels = draw(st.lists(st.one_of(st.floats(1e-3, 1e4), st.sampled_from([1.57, 3.14, 5.77])),
                           min_size=1, max_size=5))
    return MatrixMeasure(n, atoms, pieces), np.array(levels + list(SCAN.m_schedule), dtype=float)


@settings(max_examples=60, deadline=None)
@given(case=_scan_case(), cut=st.integers(1, SCAN.steps - 1))
def test_level_blocks_are_the_one_level_rows_and_scans_the_old_loop(case, cut):
    omega, levels = case
    k, grid = omega.xs.size, SCAN.grid()
    block = RegularizedKernel(grid, levels).coefficients(omega._pts, k)
    assert block.shape == (grid.size, levels.size, omega._pts.size)
    for rows, x in zip(block, grid.tolist()):
        assert rows.tobytes() == RegularizedKernel(x, levels).coefficients(omega._pts, k).tobytes()
        for row, m in zip(rows, levels.tolist()):
            one = RegularizedKernel(x, m).coefficients(omega._pts, k)
            assert row.tobytes() == one.tobytes()
            assert one.tobytes() == _old_regularized_row(omega._pts, k, x, m).tobytes()
    for rows, m in zip(block.swapaxes(0, 1), levels.tolist()):     # points at one level
        assert rows.tobytes() == RegularizedKernel(grid, m).coefficients(omega._pts, k).tobytes()
    # two chunks, cut before grid point `cut`, give the rows of the whole grid
    halves = [RegularizedKernel(g, levels).coefficients(omega._pts, k)
              for g in (grid[:cut], grid[cut:])]
    assert np.concatenate(halves).tobytes() == block.tobytes()
    want = [_record_bits(r) for r in _old_scan(omega, SCAN)]
    assert [_record_bits(r) for r in scan_forbidden(omega, SCAN)] == want
    with pytest.MonkeyPatch.context() as mp:    # a scan in chunks of `cut` points
        mp.setattr(scan, "_BLOCK_ENTRIES", cut * len(SCAN.m_schedule) * omega._pts.size)
        assert [_record_bits(r) for r in scan_forbidden(omega, SCAN)] == want
