"""Core linear algebra: quadratic forms, rank-one pencil kernel, generic
pencils."""

import numpy as np
import pytest
import scipy.linalg

from secrecy_region import linalg
from secrecy_region.errors import DimensionMismatch, NotPositiveDefinite

import _oracles


def rand_hermitian(rng, n, scale=1.0):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (m + m.conj().T)


def rand_hpd(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m @ m.conj().T + np.eye(n)


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
        m = linalg.identity_plus_rank_one(2, p, g)
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


class TestLargestGenEig:
    def test_identical_pencil(self):
        res = linalg.largest_gen_eig(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
        assert res.eigenvalue == 1.0
        assert res.residual <= 1e-12
        assert res.degenerate

    def test_identity_b_side(self):
        # (I + 3 h h^H, I) with h = [1, 0]: top pair is (4, [1, 0])
        a = linalg.identity_plus_rank_one(2, 3.0, np.array([1.0, 0.0]))
        res = linalg.largest_gen_eig(a, np.eye(2, dtype=complex))
        assert abs(res.eigenvalue - 4.0) <= 1e-12
        np.testing.assert_allclose(res.eigenvector, [1.0, 0.0], atol=1e-12)

    def test_example_pencil_matches_span_oracle(self):
        h = np.array([1.5, 0.0], dtype=complex)
        g = np.array([1.801, 0.872], dtype=complex)
        a = linalg.identity_plus_rank_one(2, 10.0, h)
        b = linalg.identity_plus_rank_one(2, 10.0, g)
        res = linalg.largest_gen_eig(a, b)
        lam, _ = _oracles.top_gen_eig_oracle(h, g, 10.0, 10.0)
        assert abs(res.eigenvalue - lam) <= 1e-9 * lam

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_pencils_residual_and_rayleigh(self, n):
        # residual contract plus lambda_max >= Rayleigh quotient
        rng = np.random.default_rng(200 + n)
        trials = 334
        for _ in range(trials):
            a = rand_hermitian(rng, n, scale=2.0)
            b = rand_hpd(rng, n)
            res = linalg.largest_gen_eig(a, b)
            bound = 1e-9 * (
                np.linalg.norm(a) + abs(res.eigenvalue) * np.linalg.norm(b)
            )
            assert res.residual <= bound
            assert abs(np.linalg.norm(res.eigenvector) - 1.0) <= 1e-12
            x = rng.standard_normal((n, 100)) + 1j * rng.standard_normal((n, 100))
            x /= np.linalg.norm(x, axis=0)
            rayleigh = np.einsum("ij,ij->j", x.conj(), a @ x).real / np.einsum(
                "ij,ij->j", x.conj(), b @ x
            ).real
            assert res.eigenvalue >= rayleigh.max() - 1e-9 * abs(res.eigenvalue)

    def test_matches_scipy_generalized(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 4):
            for _ in range(50):
                a = rand_hermitian(rng, n, scale=2.0)
                b = rand_hpd(rng, n)
                res = linalg.largest_gen_eig(a, b)
                ref = scipy.linalg.eigh(a, b, eigvals_only=True)[-1]
                assert abs(res.eigenvalue - ref) <= 1e-9 * max(abs(ref), 1.0)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(10)
        a = rand_hermitian(rng, 3)
        b = rand_hpd(rng, 3)
        r1 = linalg.largest_gen_eig(a, b)
        r2 = linalg.largest_gen_eig(a, b)
        assert r1.eigenvalue == r2.eigenvalue
        assert np.array_equal(r1.eigenvector, r2.eigenvector)
        assert r1.residual == r2.residual

    def test_not_positive_definite_propagates(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.largest_gen_eig(
                np.eye(2, dtype=complex), np.diag([1.0, -2.0]).astype(complex)
            )


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

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            linalg.top_rank_one_eig(np.ones(2), np.ones(2), -1.0, 1.0)
