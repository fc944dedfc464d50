import math

import numpy as np
import pytest

from pballs import montecarlo
from pballs.moments import f_endpoint, f_gamma
from pballs.montecarlo import (
    MCConfig,
    _stream_rng,
    estimate_f,
    estimate_f_factored,
    sample_ball,
)
from pballs.pball import normalized_second_moment

SMALL = MCConfig(samples=200_000, seed=7, streams=4)


class TestMCConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            MCConfig(samples=10, streams=3)

    @pytest.mark.parametrize("kwargs", [{"samples": 0}, {"streams": 0}])
    def test_positivity(self, kwargs):
        with pytest.raises(ValueError):
            MCConfig(**kwargs)


class TestSampleBall:
    @pytest.mark.parametrize("n,p", [(1, 2.0), (2, 1.0), (3, 1.5), (4, math.inf), (5, 3.0), (20, 2.0)])
    def test_membership(self, n, p):
        rng = _stream_rng(3, (0,))
        x = sample_ball(n, p, rng, size=20_000)
        if math.isinf(p):
            norms = np.abs(x).max(axis=1)
        else:
            norms = (np.abs(x) ** p).sum(axis=1)
        assert float(norms.max()) <= 1.0

    def test_shapes(self):
        rng = _stream_rng(3, (0,))
        assert sample_ball(3, 2.0, rng).shape == (3,)
        assert sample_ball(3, 2.0, rng, size=5).shape == (5, 3)

    @pytest.mark.parametrize("size", [0, -1, 2.5])
    def test_rejects_bad_size(self, size):
        with pytest.raises(ValueError):
            sample_ball(3, 2.0, _stream_rng(3, (0,)), size=size)

    def test_one_dimensional_p2_moment(self):
        # B_2^1 is just [-1, 1], so E[x^2] = 1/3
        rng = _stream_rng(11, (0,))
        x = sample_ball(1, 2.0, rng, size=200_000)
        sq = x[:, 0] ** 2
        band = 3.0 * float(sq.std(ddof=1)) / math.sqrt(x.shape[0])
        assert abs(float(sq.mean()) - 1.0 / 3.0) <= band

    @pytest.mark.parametrize("n", [3, 20])
    def test_p2_squared_norm_mean_is_exact(self, n):
        # |x|^2 ~ Beta(n/2, 1) on B_2^n, so E|x|^2 = n / (n + 2)
        rng = _stream_rng(37, (0,))
        x = sample_ball(n, 2.0, rng, size=200_000)
        sq = np.einsum("ij,ij->i", x, x)
        band = 4.0 * float(sq.std(ddof=1)) / math.sqrt(x.shape[0])
        assert abs(float(sq.mean()) - n / (n + 2)) <= band

    @pytest.mark.parametrize("n,p", [(4, 1.5), (2, 1.0), (3, math.inf)])
    def test_second_moment_matches_closed_form(self, n, p):
        rng = _stream_rng(13, (0,))
        x = sample_ball(n, p, rng, size=200_000)
        sq = x[:, 0] ** 2
        target = normalized_second_moment(n, p)
        band = 4.0 * float(sq.std(ddof=1)) / math.sqrt(x.shape[0])
        assert abs(float(sq.mean()) - target) <= band

    def test_mean_is_centred(self):
        rng = _stream_rng(17, (0,))
        x = sample_ball(3, 1.5, rng, size=200_000)
        band = 4.0 * float(x[:, 0].std(ddof=1)) / math.sqrt(x.shape[0])
        assert abs(float(x[:, 0].mean())) <= band

    def test_coordinate_exchangeability(self):
        rng = _stream_rng(19, (0,))
        x = sample_ball(3, 1.3, rng, size=200_000)
        diff = x[:, 0] ** 2 - x[:, 1] ** 2
        band = 4.0 * float(diff.std(ddof=1)) / math.sqrt(x.shape[0])
        assert abs(float(diff.mean())) <= band

    def test_normalized_second_moment_cross_check(self):
        # the closed-form moment is the sampler's mean to within 3 s.e.
        rng = _stream_rng(23, (0,))
        x = sample_ball(5, 1.7, rng, size=1_000_000)
        sq = x[:, 0] ** 2
        band = 3.0 * float(sq.std(ddof=1)) / math.sqrt(x.shape[0])
        assert abs(float(sq.mean()) - normalized_second_moment(5, 1.7)) <= band


def _reference_draw(n, p, rng, m):
    """Each sample_ball path written out from the generator calls it is pinned to."""
    if math.isinf(p):
        return rng.uniform(-1.0, 1.0, size=(m, n))
    if p == 2.0:
        x = rng.standard_normal(size=(m, n)) * math.sqrt(0.5)
        w = rng.standard_exponential(size=m)
        return x / np.sqrt(np.einsum("ij,ij->i", x, x) + w)[:, None]
    inv_p = 1.0 / p
    g = rng.standard_gamma(inv_p, size=(m, n))
    signs = 2.0 * rng.integers(0, 2, size=(m, n)).astype(np.float64) - 1.0
    w = rng.standard_exponential(size=m)
    return signs * g**inv_p / ((g.sum(axis=1) + w) ** inv_p)[:, None]


class TestDrawOrder:
    # A change to any path's generator calls re-draws every seeded estimate
    # on it; these tests make such a change an explicit edit.
    @pytest.mark.parametrize("n", [1, 5, 20])
    @pytest.mark.parametrize("p", [1.0, 1.4, 2.0, 3.0, math.inf])
    def test_bit_identical_to_the_reference_draws(self, n, p):
        rng, ref = _stream_rng(31, (2, 1)), _stream_rng(31, (2, 1))
        for m in (1000, 7):  # two calls: each consumes exactly its own draws
            assert np.array_equal(sample_ball(n, p, rng, size=m), _reference_draw(n, p, ref, m))
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)


class TestEstimateF:
    def test_deterministic_given_seed_and_streams(self):
        a = estimate_f(2, 1.5, SMALL)
        b = estimate_f(2, 1.5, SMALL)
        assert a == b  # bitwise: same mean, std_error, samples

    def test_stream_split_changes_nothing_statistical(self):
        one = estimate_f(2, 1.5, MCConfig(100_000, 5, 1))
        many = estimate_f(2, 1.5, MCConfig(100_000, 5, 10))
        band = 3.0 * math.hypot(one.std_error, many.std_error)
        assert abs(one.mean - many.mean) <= band

    def test_self_dual_cell(self):
        est = estimate_f(2, 2.0, SMALL)
        assert abs(est.mean - 0.125) <= 3.0 * est.std_error
        assert est.samples == SMALL.samples

    def test_endpoint_cell(self):
        est = estimate_f(3, 1.0, SMALL)
        assert abs(est.mean - f_endpoint(3)) <= 3.0 * est.std_error

    def test_interior_cell_vs_closed_form(self):
        est = estimate_f(5, 1.4, SMALL)
        assert abs(est.mean - f_gamma(5, 1.4).value) <= 3.0 * est.std_error

    def test_three_route_agreement(self):
        # closed form, product, and sampling estimates of the same number
        from pballs.moments import f_product

        fg = f_gamma(3, 1.5).value
        fp = f_product(3, 1.5)
        est = estimate_f(3, 1.5, SMALL)
        assert abs(fp.value - fg) <= fp.error_estimate + 1e-10 * fg
        assert abs(est.mean - fg) <= 3.0 * est.std_error


class TestEstimateFFactored:
    def test_one_dimensional(self):
        est = estimate_f_factored(1, 1.7, SMALL)
        assert abs(est.mean - 1.0 / 9.0) <= 3.0 * est.std_error

    def test_agrees_with_direct(self):
        direct = estimate_f(4, 1.25, SMALL)
        factored = estimate_f_factored(4, 1.25, SMALL)
        band = 3.0 * math.hypot(direct.std_error, factored.std_error)
        assert abs(direct.mean - factored.mean) <= band

    def test_deterministic(self):
        assert estimate_f_factored(2, 2.0, SMALL) == estimate_f_factored(2, 2.0, SMALL)


class TestChunking:
    def test_a_chunk_holds_at_most_the_element_cap(self, monkeypatch):
        # rows per chunk shrink as n grows, so memory is bounded at any n
        sizes = []
        real = montecarlo.sample_ball

        def recording(n, p, rng, size=None):
            sizes.append(size)
            return real(n, p, rng, size=size)

        monkeypatch.setattr(montecarlo, "sample_ball", recording)
        n = 10**5
        est = estimate_f(n, 2.5, MCConfig(40, 0, 1))
        assert est.samples == 40
        assert sum(sizes) == 2 * 40  # x and y for every pair
        assert all(size * n <= montecarlo._CHUNK_ELEMENTS for size in sizes)

    def test_every_verify_mc_draw_holds_at_most_the_element_cap(self, monkeypatch):
        # the sampler checks draw through the same chunked reducer
        from pballs import verify

        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 64)
        elements = []
        real = montecarlo.sample_ball

        def recording(n, p, rng, size=None):
            elements.append(size * n)
            return real(n, p, rng, size=size)

        monkeypatch.setattr(montecarlo, "sample_ball", recording)
        monkeypatch.setattr(verify, "sample_ball", recording)
        verify.suite_mc(MCConfig(400, 0, 2))
        assert elements and max(elements) <= 64
