"""Monte Carlo oracle: exact uniform sampling on B_p^n and estimation of f(n, p).

Sampling uses the generalized-normal construction: draw G_i ~ Gamma(1/p)
(so that sign_i * G_i^{1/p} has density proportional to exp(-|u|^p)), an
independent standard exponential w, and set

    x_i = sign_i * (G_i / (sum_j G_j + w))^{1/p},

which is exactly uniform on the unit p-ball; p = inf reduces to independent
uniforms on [-1, 1].  At p = 2 the generalized normal is X = Z / sqrt(2)
with Z standard normal (X^2 = Z^2 / 2 ~ Gamma(1/2)), so that path draws
normals and then the exponential, with no gamma draws, signs or powers.
Streams are counter-based (Philox keyed by (seed, stream index)) and
combined in index order, so estimates are deterministic for a given
(seed, streams) no matter how work is scheduled.
Each stream draws its rows in chunks of max(1, _CHUNK_ELEMENTS // n) rows,
at most _CHUNK_ELEMENTS coordinates per sample_ball call, which bounds
memory at any n and sample count; the cap is part of the draw order.  The
estimators and the sampler checks of verify all draw through this reducer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pball import _whole, as_exponent, check_dimension

__all__ = ["MCConfig", "MCEstimate", "sample_ball", "estimate_f", "estimate_f_factored"]

# Coordinates per sample_ball call; part of the deterministic draw order.
_CHUNK_ELEMENTS = 1 << 21


@dataclass(frozen=True)
class MCConfig:
    """Sample count, seed, and independent substream count."""

    samples: int = 1_000_000
    seed: int = 0
    streams: int = 8

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")
        if self.samples % self.streams:
            raise ValueError(
                f"samples ({self.samples}) must be divisible by streams ({self.streams})"
            )


@dataclass(frozen=True)
class MCEstimate:
    """Empirical mean with its standard error (unbiased sample variance)."""

    mean: float
    std_error: float
    samples: int


def _stream_rng(seed: int, key: tuple) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def sample_ball(n, p, rng: np.random.Generator, size: int | None = None):
    """Draw uniform points from the unit p-ball in R^n.

    Returns shape (n,) for size=None, else (size, n).  Membership
    sum |x_i|^p <= 1 holds by construction.  Each path's generator calls
    are part of the seeded draw order: p = inf draws (size, n) uniforms;
    p = 2 draws (size, n) standard normals, then size exponentials; any
    other p draws Gamma(1/p) magnitudes, then sign integers, then the
    exponentials.
    """
    n = check_dimension(n)
    e = as_exponent(p)
    m = 1 if size is None else _whole(size, "size")
    if m < 1:
        raise ValueError("size must be >= 1")
    if math.isinf(e.p):
        x = rng.uniform(-1.0, 1.0, size=(m, n))
    elif e.p == 2.0:
        x = rng.standard_normal(size=(m, n))
        x *= math.sqrt(0.5)
        w = rng.standard_exponential(size=m)
        x /= np.sqrt(np.einsum("ij,ij->i", x, x) + w)[:, None]
    else:
        inv_p = 1.0 / e.p
        g = rng.standard_gamma(inv_p, size=(m, n))
        signs = 2.0 * rng.integers(0, 2, size=(m, n)).astype(np.float64) - 1.0
        w = rng.standard_exponential(size=m)
        radius = (g.sum(axis=1) + w) ** inv_p
        x = signs * g**inv_p / radius[:, None]
    return x[0] if size is None else x


def _stream_means(n: int, config: MCConfig, key: tuple, draw, statistics) -> tuple[MCEstimate, ...]:
    """Mean and standard error of each statistic over substreams keyed (*key, i).

    statistics(draw(rng, rows)) returns a tuple of 1-D arrays, one value per
    row each; one MCEstimate is returned per entry.  Each substream draws
    its share in chunks of at most _CHUNK_ELEMENTS // n rows; the chunk sums
    are added in stream and chunk order.  A chunk's points stay referenced
    until the next chunk's are drawn: freed at the end of each chunk, the
    heap is returned to the OS and faulted back in by the next, which took
    2.5 times the page faults.  Draws call sample_ball by its module-global
    name, so a rebound name (a tracing wrapper, say) is the one that runs.
    """
    per_stream = config.samples // config.streams
    rows = max(1, _CHUNK_ELEMENTS // n)
    sums: list[list[float]] = []
    for stream in range(config.streams):
        rng = _stream_rng(config.seed, (*key, stream))
        for done in range(0, per_stream, rows):
            points = draw(rng, min(rows, per_stream - done))
            values = statistics(points)
            sums = sums or [[0.0, 0.0] for _ in values]
            for pair, v in zip(sums, values):
                pair[0] += float(v.sum())
                pair[1] += float((v * v).sum())
    count = config.samples
    out = []
    for total, total_sq in sums:
        mean = total / count
        var = max(total_sq - count * mean * mean, 0.0) / (count - 1) if count > 1 else 0.0
        out.append(MCEstimate(mean, math.sqrt(var / count), count))
    return tuple(out)


def estimate_f(n, p, config: MCConfig = MCConfig()) -> MCEstimate:
    """Estimate f(n, p) as the mean of <x, y>^2 over independent uniform pairs.

    x is uniform on B_p^n, y on B_q^n with q the conjugate exponent; the
    estimator is unbiased for the normalized double integral defining f.
    """
    n = check_dimension(n)
    e = as_exponent(p)
    eq = e.conjugate()
    return _stream_means(
        n, config, (),
        lambda rng, rows: (sample_ball(n, e, rng, size=rows), sample_ball(n, eq, rng, size=rows)),
        lambda xy: (np.einsum("ij,ij->i", *xy) ** 2,),
    )[0]


def estimate_f_factored(n, p, config: MCConfig = MCConfig()) -> MCEstimate:
    """Estimate f(n, p) as n * E[x_1^2] * E[y_1^2].

    Uses the coordinate-symmetry factorization of the double integral:
    the two coordinate moments are estimated on disjoint substreams
    (config.samples each side) and their standard errors propagated through
    the product.
    """
    n = check_dimension(n)
    e = as_exponent(p)

    def x1_sq_mean(side: int, e) -> MCEstimate:
        return _stream_means(
            n, config, (side,), lambda rng, rows: sample_ball(n, e, rng, size=rows), lambda x: (x[:, 0] ** 2,)
        )[0]

    a = x1_sq_mean(0, e)
    b = x1_sq_mean(1, e.conjugate())
    mean = n * a.mean * b.mean
    std_error = n * math.sqrt(
        (b.mean * a.std_error) ** 2 + (a.mean * b.std_error) ** 2
    )
    return MCEstimate(mean, std_error, config.samples)
