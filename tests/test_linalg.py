"""Core linear algebra: quadratic forms and the rank-one pencil kernel."""

import numpy as np
import pytest

from secrecy_region import ChannelPair, linalg, spectrum
from secrecy_region.errors import DimensionMismatch, NumericsError

import _oracles


def rand_hermitian(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (m + m.conj().T)


class TestQuadraticForm:
    def test_identity(self):
        v = np.array([1.0, 0.0], dtype=complex)
        assert linalg.quadratic_form(v, np.eye(2), v) == 1.0

    def test_orthogonality(self):
        v = np.array([1.0, 0.0], dtype=complex)
        w = np.array([0.0, 1.0], dtype=complex)
        assert linalg.quadratic_form(v, np.eye(2), w) == 0.0

    def test_rank_one_expansion(self):
        # h^H (I + P g g^H) h == |h|^2 + P |g^H h|^2
        h = np.array([1.5, 0.0], dtype=complex)
        g = np.array([1.801, 0.872], dtype=complex)
        p = 10.0
        m = np.eye(2, dtype=complex) + p * np.outer(g, g.conj())
        direct = linalg.quadratic_form(h, m, h)
        expected = np.linalg.norm(h) ** 2 + p * abs(np.vdot(g, h)) ** 2
        assert abs(direct - expected) <= 1e-12 * abs(expected)
        assert direct.imag == 0.0

    def test_matches_explicit_expansion(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = rand_hermitian(rng, 3)
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            got = linalg.quadratic_form(v, m, w)
            want = _oracles.quadratic_form_expanded(v, m, w)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)

    def test_hermitian_self_form_clamped_real(self):
        rng = np.random.default_rng(4)
        m = rand_hermitian(rng, 3)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert linalg.quadratic_form(v, m, v).imag == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.quadratic_form(
                np.array([1.0, 0.0]), np.eye(2), np.array([1.0, 0.0, 0.0])
            )


class TestAsComplexVector:
    @pytest.mark.parametrize(
        "bad", [complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 0.0)]
    )
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            linalg.as_complex_vector([1.0, bad])


class TestPhaseNormalize:
    def test_largest_component_real_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            v /= np.linalg.norm(v)
            w = linalg.phase_normalize(v)
            idx = int(np.argmax(np.abs(w)))
            assert w[idx].imag == 0.0
            assert w[idx].real >= 0.0
            # phases only differ by a global rotation
            assert abs(abs(np.vdot(v, w)) - 1.0) <= 1e-12

    def test_tie_resolves_to_first_index(self):
        v = np.array([-1.0, 1.0]) / np.sqrt(2)
        w = linalg.phase_normalize(v + 0j)
        assert w[0].real > 0

    def test_row_matches_batch_bitwise(self):
        # a 1-D vector takes the scalar route; it must give the row's bits
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((64, 5)) + 1j * rng.standard_normal((64, 5))
        rows[1] = 0.0
        rows[2] = rows[2, 0]
        rows[3] = rows[3].real
        rows[4, 2] = 0.0
        batch = linalg.phase_normalize(rows)
        for row, want in zip(rows, batch):
            assert linalg.phase_normalize(row).tobytes() == want.tobytes()


#: powers the rank-one kernel is stressed at, from the P = 0 limit to 1e12
STRESS_POWERS = (0.0, 1e-12, 1e-2, 1e3, 1e8, 1e10, 1e12)


def mp_top_pair(u, w, a, b):
    """50-digit top eigenpair of (I + a u u^H, I + b w w^H).

    Gram-Schmidt on span{u, w} and the restricted pencil's characteristic
    quadratic, all in mpmath. Returns (lambda, unit eigenvector or None when
    the top eigenvalue is the orthocomplement's 1, or when every direction
    is an eigenvector). At a = b = 0 the vector is the P -> 0+ limit: the top
    eigenvector of u u^H - w w^H on the span.
    """
    mp = pytest.importorskip("mpmath")
    limit = a == 0.0 and b == 0.0
    with mp.workdps(50):
        a, b = mp.mpf(float(a)), mp.mpf(float(b))

        def dot(x, y):
            return mp.fsum(mp.conj(p) * q for p, q in zip(x, y))

        vecs = [[mp.mpc(complex(z)) for z in v] for v in (u, w)]
        basis = []
        for v in vecs:
            r = list(v)
            for q in basis:
                c = dot(q, r)
                r = [ri - c * qi for ri, qi in zip(r, q)]
            n = mp.sqrt(dot(r, r).real)
            if n > mp.mpf(10) ** -40 * mp.sqrt(dot(v, v).real):  # not rounding noise
                basis.append([ri / n for ri in r])
        if not basis:
            return 1.0, None
        cu = [dot(q, vecs[0]) for q in basis]
        cw = [dot(q, vecs[1]) for q in basis]
        k = len(basis)
        am = [[(i == j) + a * cu[i] * mp.conj(cu[j]) for j in range(k)] for i in range(k)]
        bm = [[(i == j) + b * cw[i] * mp.conj(cw[j]) for j in range(k)] for i in range(k)]
        if limit:
            am = [[cu[i] * mp.conj(cu[j]) - cw[i] * mp.conj(cw[j]) for j in range(k)]
                  for i in range(k)]
            bm = [[mp.mpf(i == j) for j in range(k)] for i in range(k)]
        if k == 1:
            lam = (am[0][0] / bm[0][0]).real
            x = [mp.mpf(1)]
        else:
            qa = (bm[0][0] * bm[1][1] - bm[0][1] * bm[1][0]).real
            qb = -(am[0][0] * bm[1][1] + am[1][1] * bm[0][0]
                   - am[0][1] * bm[1][0] - am[1][0] * bm[0][1]).real
            qc = (am[0][0] * am[1][1] - am[0][1] * am[1][0]).real
            lam = (-qb + mp.sqrt(max(qb * qb - 4 * qa * qc, 0))) / (2 * qa)
            n = [[am[i][j] - lam * bm[i][j] for j in range(2)] for i in range(2)]
            row = 0 if abs(n[0][0]) + abs(n[0][1]) >= abs(n[1][0]) + abs(n[1][1]) else 1
            x = [-n[row][1], n[row][0]]
        if limit:
            lam = mp.mpf(1) if lam >= 0 else mp.mpf(-1)
        if lam < 1:
            return 1.0, None
        e = [mp.fsum(x[j] * basis[j][i] for j in range(k)) for i in range(len(u))]
        norm = mp.sqrt(mp.fsum(abs(z) ** 2 for z in e))
        if norm == 0:
            return float(lam), None
        return float(lam), np.array([complex(z / norm) for z in e])


def sine_between(x, y):
    """Sine of the angle between two unit vectors."""
    return float(np.linalg.norm(x - y * np.vdot(y, x)))


def random_pair(rng, t):
    return (
        rng.standard_normal(t) + 1j * rng.standard_normal(t),
        rng.standard_normal(t) + 1j * rng.standard_normal(t),
    )


class TestTopRankOneEig:
    @pytest.mark.parametrize("t", [2, 3, 8])
    def test_matches_span_oracle(self, t):
        rng = np.random.default_rng(300 + t)
        for _ in range(40):
            h, g = random_pair(rng, t)
            a, b = rng.uniform(0.01, 1000.0, 2)
            res = linalg.top_rank_one_eig(h, g, a, b)
            lam, vec = _oracles.top_gen_eig_oracle(h, g, a, b)
            assert abs(res.lam - lam) <= 1e-9 * lam
            assert sine_between(res.vec, vec) <= 1e-9

    @pytest.mark.parametrize("t", [2, 3, 8])
    @pytest.mark.parametrize("power", STRESS_POWERS)
    def test_forward_accuracy_against_mpmath(self, t, power):
        # forward error of lambda, not merely a small residual: a residual
        # within contract still allows lambda errors of 1e-6 at P = 1e10
        rng = np.random.default_rng([t, STRESS_POWERS.index(power)])
        for _ in range(3):
            h, g = random_pair(rng, t)
            for u, w in ((h, g), (g, h)):
                res = linalg.top_rank_one_eig(u, w, power, power)
                lam, vec = mp_top_pair(u, w, power, power)
                assert abs(res.lam - lam) <= 1e-12 * lam
                assert sine_between(res.vec, vec) <= 1e-12

    @pytest.mark.parametrize("power", STRESS_POWERS)
    def test_parallel_and_zero_vectors(self, power):
        h = np.array([0.3 - 1.2j, 0.7, 2.0j])
        # exactly parallel in floating point: scalings by powers of two and
        # by 1j are exact
        cases = [
            (h, h),  # identical: pencil (A, A), lambda = 1 along h
            (h, 0.5 * h),  # user 1 stronger: eigenvector along h
            (h, 2.0 * h),  # user 2 stronger: top is the complement's 1
            (h, 1j * h),
            (h, -0.5j * h),
            (h, np.zeros(3)),
            (np.zeros(3), h),
            (np.zeros(3), np.zeros(3)),
        ]
        for u, w in cases:
            res = linalg.top_rank_one_eig(u, w, power, power)
            lam, vec = mp_top_pair(u, w, power, power)
            assert abs(res.lam - lam) <= 1e-12 * lam
            assert abs(np.linalg.norm(res.vec) - 1.0) <= 1e-12
            nu, nw = np.linalg.norm(u), np.linalg.norm(w)
            if nu > 0 and nw > nu * (1 + 1e-9):
                # the top eigenvalue lives on the complement of the line
                assert abs(np.vdot(u, res.vec)) <= 1e-12 * nu
            elif vec is not None:
                assert sine_between(res.vec, vec) <= 1e-12

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_entry_magnitudes(self, scale):
        # the pencil only sees a|u|^2 and b|w|^2: rescaling the vectors and
        # the weights together leaves the eigenpair unchanged
        rng = np.random.default_rng(17)
        for t in (2, 3, 8):
            h, g = random_pair(rng, t)
            for power in (1e-2, 10.0, 1e3):
                ref = linalg.top_rank_one_eig(h, g, power, power)
                big = linalg.top_rank_one_eig(
                    scale * h, scale * g, power / scale**2, power / scale**2
                )
                assert abs(big.lam - ref.lam) <= 1e-12 * ref.lam
                assert sine_between(big.vec, ref.vec) <= 1e-12
                lam, _ = mp_top_pair(scale * h, scale * g, power / scale**2, power / scale**2)
                assert abs(big.lam - lam) <= 1e-12 * lam

    def test_zero_weights_give_the_limit_vector(self):
        # a = b = 0: the top eigenvector of u u^H - w w^H
        rng = np.random.default_rng(18)
        for t in (2, 3, 8):
            h, g = random_pair(rng, t)
            res = linalg.top_rank_one_eig(h, g, 0.0, 0.0)
            assert res.lam == 1.0
            _, vecs = np.linalg.eigh(np.outer(h, h.conj()) - np.outer(g, g.conj()))
            assert sine_between(res.vec, vecs[:, -1]) <= 1e-12

    def test_batch_matches_single_calls_bitwise(self):
        rng = np.random.default_rng(19)
        h, g = random_pair(rng, 4)
        a = rng.uniform(0.0, 10.0, 257)
        b = rng.uniform(0.0, 10.0, 257)
        batch = linalg.top_rank_one_eig(h, g, a, b)
        assert batch.lam.shape == (257,) and batch.vec.shape == (257, 4)
        for i in range(0, 257, 16):
            one = linalg.top_rank_one_eig(h, g, a[i], b[i])
            assert one.lam == batch.lam[i]
            assert np.array_equal(one.vec, batch.vec[i])

    @pytest.mark.parametrize("t", [2, 3, 8])
    def test_scalar_path_matches_batch_bitwise(self, t):
        # two 0-d weights run the 2x2 arithmetic on floats; lambda, gap and
        # the vector must carry the bits of the same weights in an array,
        # from 1e-13 to 1e12, at exact zeros and for parallel or zero vectors
        rng = np.random.default_rng(190 + t)
        h, g = random_pair(rng, t)
        zero = np.zeros(t)
        pairs = [
            (h, g), (g, h), (h, h), (h, 0.5 * h), (h, 2.0 * h), (h, 1j * h),
            (h, -0.5j * h), (h, zero), (zero, h), (zero, zero),
        ]
        a = 10.0 ** rng.uniform(-13.0, 12.0, 48)
        b = 10.0 ** rng.uniform(-13.0, 12.0, 48)
        a[:3] = 0.0  # a = b = 0, then a single zero weight each way
        b[[0, 3]] = 0.0
        for u, w in pairs:
            plane = linalg.span_plane(u, w)
            batch = linalg.plane_top(plane, a, b)
            for i in range(a.size):
                one = linalg.plane_top(plane, a[i], b[i])
                assert one.lam.tobytes() == batch.lam[i].tobytes()
                assert one.gap.tobytes() == batch.gap[i].tobytes()
                assert one.vec.tobytes() == batch.vec[i].tobytes()

    @pytest.mark.parametrize("t", [2, 3, 8])
    def test_fallback_vector_is_orthogonal_unit(self, t):
        # with no null vector on the span (parallel u, w with pa < pb, or
        # u = 0) the top is the complement's 1: a unit vector orthogonal to
        # the common direction, with the same bits for floats and in a batch
        # whose last row (b = 0) has a null vector
        rng = np.random.default_rng(200 + t)
        h, _ = random_pair(rng, t)
        a = np.array([1.0, 0.5, 3.0, 2.0])
        b = np.array([1.0, 0.5, 3.0, 0.0])
        for u, w in ((h, 2.0 * h), (0.5j * h, h), (np.zeros(t), h)):
            plane = linalg.span_plane(u, w)
            batch = linalg.plane_top(plane, a, b)
            for i in range(a.size):
                one = linalg.plane_top(plane, float(a[i]), float(b[i]))
                assert one.vec.tobytes() == batch.vec[i].tobytes()
                if i < 3:
                    assert one.lam == 1.0
                    assert abs(np.linalg.norm(one.vec) - 1.0) <= 1e-15
                    assert abs(np.vdot(w, one.vec)) <= 1e-15 * np.linalg.norm(w)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            linalg.top_rank_one_eig(np.ones(2), np.ones(2), -1.0, 1.0)

    @pytest.mark.parametrize("t", [2, 8])
    def test_huge_norm_raises_on_both_paths(self, t):
        # |h|^2 overflows a Python float; the weight check must see it
        h = np.zeros(t)
        g = np.zeros(t)
        h[0], g[0], g[1] = 2e154, 2e154, 2e153
        ch = ChannelPair(h, g, 1e-300, "real")
        with pytest.raises(NumericsError, match="pencil weight overflows"):
            spectrum(ch)
        for a in (1e-300, np.array([1e-300, 0.0])):
            with pytest.raises(NumericsError, match="pencil weight overflows"):
                linalg.plane_top(ch.plane_hg, a, a)

    def test_nan_weight_raises_on_both_paths(self):
        plane = linalg.span_plane(np.ones(2), np.array([1.0, 0.0]))
        for a, b in ((np.nan, 1.0), (1.0, np.nan)):
            for x, y in ((a, b), (np.array([a]), np.array([b]))):
                with pytest.raises(NumericsError):
                    linalg.plane_top(plane, x, y)
