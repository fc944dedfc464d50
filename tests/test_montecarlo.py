import dataclasses
import math
import sys
import threading
import tracemalloc

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
from pballs.pball import as_exponent, normalized_second_moment

SMALL = MCConfig(samples=200_000, seed=7, streams=4)


class TestMCConfig:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            MCConfig(samples=10, streams=3)
        # replace builds anew, so the check runs again; NamedTuple._replace would skip it
        with pytest.raises(ValueError, match="divisible"):
            dataclasses.replace(MCConfig(), streams=3)

    @pytest.mark.parametrize("kwargs", [{"samples": 0}, {"streams": 0}])
    def test_positivity(self, kwargs):
        with pytest.raises(ValueError):
            MCConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples": 10.5, "streams": 1.5},
            {"streams": 2.5},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": math.inf},
            {"samples": "8"},
        ],
    )
    def test_rejected_when_built_not_at_the_first_draw(self, kwargs):
        with pytest.raises(ValueError):
            MCConfig(**kwargs)

    def test_whole_floats_are_stored_as_ints_and_draw_the_same(self):
        cfg = MCConfig(samples=4000.0, seed=3.0, streams=2.0)
        assert (cfg.samples, cfg.seed, cfg.streams) == (4000, 3, 2)
        assert all(type(v) is int for v in (cfg.samples, cfg.seed, cfg.streams))
        assert estimate_f(3, 1.5, cfg) == estimate_f(3, 1.5, MCConfig(4000, 3, 2))


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

    @pytest.mark.parametrize("p", [1.0, 1.4, 2.0, 3.0, math.inf])
    def test_out_receives_the_same_draws(self, p):
        out = np.full((700, 5), np.nan)
        assert sample_ball(5, p, _stream_rng(43, (0,)), size=700, out=out) is out
        assert np.array_equal(out, sample_ball(5, p, _stream_rng(43, (0,)), size=700))

    @pytest.mark.parametrize("shape", [(4, 3), (5, 2), (15,)])
    def test_out_of_another_shape_is_rejected(self, shape):
        with pytest.raises(ValueError):
            sample_ball(3, 2.0, _stream_rng(3, (0,)), size=5, out=np.empty(shape))

    @pytest.mark.parametrize("p", [1.0, 1.4, 2.0, math.inf])
    @pytest.mark.parametrize(
        "out",
        [
            np.empty((4, 3), order="F"),
            np.empty((4, 3), dtype=np.float32),
            np.empty((4, 6))[:, ::2],
            np.frombuffer(bytes(8 * 4 * 3)).reshape(4, 3),
        ],
        ids=["fortran", "float32", "strided", "read-only"],
    )
    def test_out_it_cannot_fill_in_row_major_order_is_rejected(self, p, out):
        # NumPy's own out= checks would let a Fortran-order array through at
        # p in {2, inf} and fill it with points other than the out=None draws
        with pytest.raises(ValueError, match="C-contiguous float64"):
            sample_ball(3, p, np.random.default_rng(5), size=4, out=out)

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


class TestSamplerAtExtremeExponents:
    # Gamma(1/p) magnitudes underflowed to 0 at large p and, through the
    # conjugate exponent, just above 1; Gamma(1 + 1/p) magnitudes times a
    # uniform cannot, so every coordinate is nonzero and the moment is right
    @pytest.mark.parametrize("n", [1, 3, 20])
    @pytest.mark.parametrize("p", [1 + 1e-3, 100.0, 1000.0, 1e4, 1e6, 1 + 1e-13])
    def test_no_zero_coordinate_and_the_second_moment(self, p, n):
        x = sample_ball(n, p, _stream_rng(47, (0,)), size=50_000)
        assert np.count_nonzero(x == 0.0) == 0
        sq = x[:, 0] ** 2
        band = 4.0 * float(sq.std(ddof=1)) / math.sqrt(x.shape[0])
        assert abs(float(sq.mean()) - normalized_second_moment(n, p)) <= band


def _reference_draw(n, p, rng, m):
    """Each sample_ball path written out from the generator calls it is pinned to."""
    if math.isinf(p):
        return rng.uniform(-1.0, 1.0, size=(m, n))
    if p == 2.0:
        x = rng.standard_normal(size=(m, n)) * math.sqrt(0.5)
        w = rng.standard_exponential(size=m)
        return x / np.sqrt(np.einsum("ij,ij->i", x, x) + w)[:, None]
    if p == 1.0:
        g = rng.standard_gamma(1.0, size=(m, n))
        signs = 2.0 * rng.integers(0, 2, size=(m, n)).astype(np.float64) - 1.0
        w = rng.standard_exponential(size=m)
        return signs * g / (g.sum(axis=1) + w)[:, None]
    # Stuart's identity: Gamma(1/p) = Gamma(1 + 1/p) * U^p in law, U = |V|
    inv_p = 1.0 / p
    g = rng.standard_gamma(1.0 + inv_p, size=(m, n))
    v = rng.uniform(-1.0, 1.0, size=(m, n))
    w = rng.standard_exponential(size=m)
    x = g**inv_p * v
    return x / (((np.abs(x) ** p).sum(axis=1) + w) ** inv_p)[:, None]


class TestDrawOrder:
    # A change to any path's generator calls re-draws every seeded estimate
    # on it; these tests make such a change an explicit edit.
    @pytest.mark.parametrize("n", [1, 5, 20])
    @pytest.mark.parametrize("p", [1.0, 1.4, 2.0, 3.0, 1000.0, math.inf])
    def test_bit_identical_to_the_reference_draws(self, n, p):
        rng, ref = _stream_rng(31, (2, 1)), _stream_rng(31, (2, 1))
        # successive calls each consume exactly their own draws; at n = 20,
        # 7000 rows are 140,000 signs or uniforms: eight full blocks and a
        # partial one
        for m in (1000, 7, 7000):
            assert np.array_equal(sample_ball(n, p, rng, size=m), _reference_draw(n, p, ref, m))
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)


class TestSamplerMemory:
    @pytest.mark.parametrize("p", [1.0, 1.4, 2.0, 3.0, math.inf])
    def test_peak_is_about_the_output(self, p):
        # every path builds its points in the array it returns; NumPy reports
        # its allocations to tracemalloc
        rng = _stream_rng(41, (0,))
        tracemalloc.start()
        try:
            x = sample_ball(20, p, rng, size=50_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * x.nbytes


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

        def recording(n, p, rng, size=None, out=None):
            sizes.append(size)
            return real(n, p, rng, size=size, out=out)

        monkeypatch.setattr(montecarlo, "sample_ball", recording)
        n = 10**5
        est = estimate_f(n, 2.5, MCConfig(40, 0, 1))
        assert est.samples == 40
        assert sum(sizes) == 2 * 40  # x and y for every pair
        assert all(size * n <= montecarlo._CHUNK_ELEMENTS for size in sizes)

    def test_every_verify_mc_draw_holds_at_most_the_element_cap(self, monkeypatch):
        # the sampler checks draw through the same chunked reducer, so the
        # one name montecarlo.sample_ball sees every row the suite draws
        from pballs import verify

        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 64)
        elements = []
        rows = []
        real = montecarlo.sample_ball

        def recording(n, p, rng, size=None, out=None):
            elements.append(size * n)
            rows.append(size)
            return real(n, p, rng, size=size, out=out)

        monkeypatch.setattr(montecarlo, "sample_ball", recording)
        verify.suite_mc(MCConfig(400, 0, 2))
        assert elements and max(elements) <= 64
        # 25 cells of x and y, which the sampler checks read too, and two
        # consistency pairs of estimate_f and estimate_f_factored
        assert sum(rows) == 25 * 800 + 2 * 1_600


def _sequential_means(n, config, key, draw, statistics):
    """The reducer on one thread: streams in index order, chunks in draw order."""
    per_stream = config.samples // config.streams
    rows = max(1, montecarlo._CHUNK_ELEMENTS // n)
    sums = []
    for stream in range(config.streams):
        rng = _stream_rng(config.seed, (*key, stream))
        for done in range(0, per_stream, rows):
            values = statistics(draw(rng, min(rows, per_stream - done)))
            sums = sums or [[0.0, 0.0] for _ in values]
            for pair, v in zip(sums, values):
                pair[0] += float(v.sum())
                pair[1] += float((v * v).sum())
    count = config.samples
    out = []
    for total, total_sq in sums:
        mean = total / count
        var = max(total_sq - count * mean * mean, 0.0) / (count - 1) if count > 1 else 0.0
        out.append((mean, math.sqrt(var / count)))
    return out


def _sequential_f(n, p, config):
    e = as_exponent(p)
    eq = e.conjugate()
    return _sequential_means(
        n, config, (),
        lambda rng, m: (sample_ball(n, e, rng, size=m), sample_ball(n, eq, rng, size=m)),
        lambda xy: (np.einsum("ij,ij->i", *xy) ** 2,),
    )[0]


def _sequential_f_factored(n, p, config):
    e = as_exponent(p)
    (a, sa), (b, sb) = (
        _sequential_means(n, config, (side,), lambda rng, m: sample_ball(n, s, rng, size=m), lambda x: (x[:, 0] ** 2,))[0]
        for side, s in ((0, e), (1, e.conjugate()))
    )
    return n * a * b, n * math.sqrt((b * sa) ** 2 + (a * sb) ** 2)


def _hex(*values):
    return [float(v).hex() for v in values]


def _workers(streams):
    return min(streams, montecarlo._usable_cpus())


class TestStreamsOnThreads:
    # 5 * 52,800 coordinates are over the parallel threshold, and 52,800 is
    # divisible by 1, 3 and 8 streams
    CALL = (5, 52_800)

    def test_the_calls_below_go_parallel(self):
        n, samples = self.CALL
        assert samples * n >= montecarlo._PARALLEL_ELEMENTS

    @pytest.mark.parametrize("streams", [1, 3, 8])
    @pytest.mark.parametrize("p", [1.0, 1.4, 2.0, 3.0, math.inf])
    def test_bit_identical_to_the_sequential_reducer(self, streams, p):
        n, samples = self.CALL
        config = MCConfig(samples, 29, streams)
        est = estimate_f(n, p, config)
        assert _hex(est.mean, est.std_error) == _hex(*_sequential_f(n, p, config))
        fac = estimate_f_factored(n, p, config)
        assert _hex(fac.mean, fac.std_error) == _hex(*_sequential_f_factored(n, p, config))

    @pytest.mark.parametrize("p", [1.0, 1.4, 2.0, 3.0, math.inf])
    def test_bit_identical_over_several_chunks_a_stream(self, monkeypatch, p):
        # 40 chunks of 204 rows and one of 32 in each of the two streams
        monkeypatch.setattr(montecarlo, "_CHUNK_ELEMENTS", 4096)
        n, config = 20, MCConfig(2**14, 2, 2)
        est = estimate_f(n, p, config)
        assert _hex(est.mean, est.std_error) == _hex(*_sequential_f(n, p, config))
        fac = estimate_f_factored(n, p, config)
        assert _hex(fac.mean, fac.std_error) == _hex(*_sequential_f_factored(n, p, config))

    def test_more_workers_than_cores_with_rapid_switching(self, monkeypatch):
        # eight workers on any host, switching threads every microsecond: a
        # lost row or a sum added out of order would change the bits
        rows = []
        real = montecarlo.sample_ball

        def recording(n, p, rng, size=None, out=None):
            rows.append(size)
            return real(n, p, rng, size=size, out=out)

        n, samples = self.CALL
        config = MCConfig(samples, 5, 8)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(montecarlo, "sample_ball", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            est = estimate_f(n, 3.0, config)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.undo()
        assert sum(rows) == 2 * samples
        assert _hex(est.mean, est.std_error) == _hex(*_sequential_f(n, 3.0, config))

    def test_a_recorder_sees_every_row_across_all_threads(self, monkeypatch):
        # the tracer's contract: a rebound sample_ball runs on every worker
        calls = []
        real = montecarlo.sample_ball

        def recording(n, p, rng, size=None, out=None):
            calls.append((size, threading.get_ident()))
            return real(n, p, rng, size=size, out=out)

        monkeypatch.setattr(montecarlo, "sample_ball", recording)
        n, samples = self.CALL
        est = estimate_f(n, 1.4, MCConfig(samples, 0, 8))
        assert est.samples == samples
        assert sum(size for size, _ in calls) == 2 * samples
        assert len({ident for _, ident in calls}) <= _workers(8)

    @pytest.mark.parametrize("failing_stream", [0, 3, 7])
    def test_a_worker_exception_reaches_the_caller_and_no_thread_outlives_the_call(
        self, monkeypatch, failing_stream
    ):
        real = montecarlo.sample_ball

        def failing(n, p, rng, size=None, out=None):
            if rng.bit_generator.seed_seq.spawn_key == (failing_stream,):
                raise ArithmeticError(f"stream {failing_stream}")
            return real(n, p, rng, size=size, out=out)

        # four workers whatever the host, so the failing stream may land on
        # the caller or on a helper thread
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(montecarlo, "sample_ball", failing)
        before = threading.active_count()
        n, samples = self.CALL
        with pytest.raises(ArithmeticError, match=f"stream {failing_stream}"):
            estimate_f(n, 1.4, MCConfig(samples, 0, 8))
        assert threading.active_count() == before

    def test_a_small_call_stays_on_the_calling_thread(self, monkeypatch):
        idents = set()
        real = montecarlo.sample_ball

        def recording(n, p, rng, size=None, out=None):
            idents.add(threading.get_ident())
            return real(n, p, rng, size=size, out=out)

        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(montecarlo, "sample_ball", recording)
        estimate_f(5, 1.4, MCConfig(1024, 0, 8))  # 5,120 coordinates
        assert idents == {threading.get_ident()}

    def test_peak_is_about_one_chunk_per_worker(self):
        # each worker frees a chunk's points once its statistic is summed;
        # one stream here is one chunk of 16,384 rows, x and y
        n, config = 20, MCConfig(2**17, 0, 8)
        chunk_xy = 2 * (config.samples // config.streams) * n * 8
        estimate_f(n, 1.4, MCConfig(8, 0, 8))  # the first draw's lazy imports are not chunk memory
        tracemalloc.start()
        try:
            estimate_f(n, 1.4, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * _workers(config.streams) * chunk_xy
