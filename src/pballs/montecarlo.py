"""Monte Carlo oracle: exact uniform sampling on B_p^n and estimation of f(n, p).

Sampling uses the generalized-normal construction: draw G_i ~ Gamma(1/p)
(so that sign_i * G_i^{1/p} has density proportional to exp(-|u|^p)), an
independent standard exponential w, and set

    x_i = sign_i * (G_i / (sum_j G_j + w))^{1/p},

which is exactly uniform on the unit p-ball; p = inf reduces to independent
uniforms on [-1, 1].  At p = 2 the generalized normal is X = Z / sqrt(2)
with Z standard normal (X^2 = Z^2 / 2 ~ Gamma(1/2)), so that path draws
normals and then the exponential, with no gamma draws, signs or powers.
Every path builds its points in place in the array it returns, or in a
caller's array, the general path's signs in blocks that do not change the
draws, so a call holds about its output plus O(_SIGN_BLOCK + size) bytes.
Streams are counter-based (Philox keyed by (seed, stream index)), so a
stream's draws depend on its key alone, never on which thread runs it or
when.  The reducer runs the streams on min(streams, usable CPUs) threads,
the caller being one, and adds their chunk sums in stream-then-chunk order
after all have finished, so every estimate is bit for bit the one a single
thread computes.  Calls under _PARALLEL_ELEMENTS coordinates run in the
caller alone.
Each stream draws its rows in chunks of max(1, _CHUNK_ELEMENTS // n) rows,
at most _CHUNK_ELEMENTS coordinates per sample_ball call; the cap is part
of the draw order.  Each worker draws every chunk into one buffer of one
chunk that the caller allocates, so memory is about workers x one chunk at
any n and sample count.  The estimators and the sampler checks of verify
all draw through this reducer.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .pball import _whole, as_exponent, check_dimension

__all__ = ["MCConfig", "MCEstimate", "sample_ball", "estimate_f", "estimate_f_factored"]

# Coordinates per sample_ball call; part of the deterministic draw order.
_CHUNK_ELEMENTS = 1 << 21
# Calls drawing fewer coordinates (samples * n) than this run in the calling
# thread alone: below it, starting threads costs more than they save.  Not
# part of the draw order.
_PARALLEL_ELEMENTS = 1 << 18
# Sign integers drawn at a time on the general path.  Philox integers(0, 2)
# gives the same values and state however the call is split, so this bounds
# the sign arrays' memory (16 bytes a sign, 256 KiB a worker) without being
# part of the draw order.
_SIGN_BLOCK = 1 << 14


@dataclass(frozen=True)
class MCConfig:
    """Sample count, seed, and independent substream count."""

    samples: int = 1_000_000
    seed: int = 0
    streams: int = 8

    def __post_init__(self):
        for name, least in (("samples", 1), ("seed", 0), ("streams", 1)):
            value = _whole(getattr(self, name), name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
            object.__setattr__(self, name, value)
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


def sample_ball(n, p, rng: np.random.Generator, size: int | None = None, out: np.ndarray | None = None):
    """Draw uniform points from the unit p-ball in R^n.

    Returns shape (n,) for size=None, else (size, n).  out, if given, is a
    C-contiguous float64 array of shape (size, n) that receives the points
    and is returned; the draws are the same either way.  Membership
    sum |x_i|^p <= 1 holds by construction.  Each path's generator calls
    are part of the seeded draw order: p = inf draws (size, n) uniforms;
    p = 2 draws (size, n) standard normals, then size exponentials; any
    other p draws (size, n) Gamma(1/p) magnitudes, then size * n sign
    integers in row-major order, then size exponentials.

    Each path works in place on the array it returns; p = inf scales
    [0, 1) doubles to 2u - 1, the bits of uniform(-1, 1).  The general path
    raises the gammas to 1/p and applies the signs with copysign in blocks
    of _SIGN_BLOCK coordinates; Philox integers are the same however the
    call is split, and copysign and the sign-symmetric division give the
    bits of sign * G**(1/p) / radius.  Peak memory is the output plus
    O(_SIGN_BLOCK + size).
    """
    n = check_dimension(n)
    e = as_exponent(p)
    m = 1 if size is None else _whole(size, "size")
    if m < 1:
        raise ValueError("size must be >= 1")
    if out is not None and out.shape != (m, n):
        raise ValueError(f"out must have shape ({m}, {n}), not {out.shape}")
    x = np.empty((m, n)) if out is None else out
    if math.isinf(e.p):
        rng.random(out=x)
        x *= 2.0
        x -= 1.0
    elif e.p == 2.0:
        rng.standard_normal(out=x)
        x *= math.sqrt(0.5)
        w = rng.standard_exponential(size=m)
        x /= np.sqrt(np.einsum("ij,ij->i", x, x) + w)[:, None]
    else:
        inv_p = 1.0 / e.p
        rng.standard_gamma(inv_p, out=x)
        radius = x.sum(axis=1)
        x **= inv_p
        flat = x.reshape(-1)
        for start in range(0, flat.size, _SIGN_BLOCK):
            part = flat[start:start + _SIGN_BLOCK]
            np.copysign(part, rng.integers(0, 2, size=part.size) - 0.5, out=part)
        radius += rng.standard_exponential(size=m)
        radius **= inv_p
        x /= radius[:, None]
    return x[0] if size is None else x


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _stream_means(n: int, config: MCConfig, key: tuple, draw, statistics, sides: int = 1) -> tuple[MCEstimate, ...]:
    """Mean and standard error of each statistic over substreams keyed (*key, i).

    draw(rng, out) draws a chunk into out, a tuple of `sides` float64
    (rows, n) arrays, and returns the points; statistics(points) returns a
    tuple of 1-D arrays, one value per row each, and one MCEstimate is
    returned per entry.  Each substream draws its share in chunks of at most
    _CHUNK_ELEMENTS // n rows and keeps each chunk's (sum, sum of squares)
    per statistic.

    The substreams run on min(config.streams, usable CPUs) workers, one per
    thread, the calling thread among them; a call under _PARALLEL_ELEMENTS
    coordinates has the caller as its one worker.  Workers take stream
    indices from one shared iterator.  Each stream's rng is its own and
    keyed by its index, so its sums do not depend on the worker that drew
    them; the caller adds them in stream and chunk order once every worker
    has finished, and the estimates are bit for bit the sequential ones.
    An exception in any worker stops the hand-out of streams and re-raises
    here after every worker has stopped; no thread outlives the call.

    Memory is workers x one chunk.  The caller allocates each worker's
    `sides` buffers of one chunk before any worker starts, and the worker
    draws every chunk into them, overwriting the last: a chunk's points
    are valid until statistics returns.  Arrays that the short-lived helper
    threads allocated for themselves would come from their own malloc
    arenas, whose slack made peak RSS vary from 52 to 60 MB over replays of
    the benchmark's mc loop (glibc, 2 CPUs); with caller buffers it stays
    within 51-53 MB.

    draw and statistics may run on several threads at once: they must not
    mutate state they share (appending to a list is atomic).  Draws call
    sample_ball by its module-global name, so a rebound name (a tracing
    wrapper, say) is the one that runs, on every worker.
    """
    per_stream = config.samples // config.streams
    rows = min(max(1, _CHUNK_ELEMENTS // n), per_stream)
    workers = 1 if config.samples * n < _PARALLEL_ELEMENTS else min(config.streams, _usable_cpus())
    chunk_sums: list[list] = [[] for _ in range(config.streams)]
    todo = iter(range(config.streams))  # shared; one next() is atomic under the GIL
    errors: list[BaseException] = []

    def work(buffers):
        try:
            for stream in todo:
                rng = _stream_rng(config.seed, (*key, stream))
                for done in range(0, per_stream, rows):
                    m = min(rows, per_stream - done)
                    chunk_sums[stream].append([
                        (float(v.sum()), float((v * v).sum()))
                        for v in statistics(draw(rng, tuple(b[:m] for b in buffers)))
                    ])
        except BaseException as exc:
            errors.append(exc)
            for _ in todo:  # hand out no more streams
                pass

    buffers = [[np.empty((rows, n)) for _ in range(sides)] for _ in range(workers)]
    helpers = [threading.Thread(target=work, args=(own,)) for own in buffers[1:]]
    for helper in helpers:
        helper.start()
    work(buffers[0])
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]

    sums: list[list[float]] = []
    for chunks in chunk_sums:
        for chunk in chunks:
            sums = sums or [[0.0, 0.0] for _ in chunk]
            for pair, (total, total_sq) in zip(sums, chunk):
                pair[0] += total
                pair[1] += total_sq
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

    def draw(rng, out):
        x, y = out
        return sample_ball(n, e, rng, size=len(x), out=x), sample_ball(n, eq, rng, size=len(y), out=y)

    return _stream_means(n, config, (), draw, lambda xy: (np.einsum("ij,ij->i", *xy) ** 2,), sides=2)[0]


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
            n, config, (side,),
            lambda rng, out: sample_ball(n, e, rng, size=len(out[0]), out=out[0]), lambda x: (x[:, 0] ** 2,),
        )[0]

    a = x1_sq_mean(0, e)
    b = x1_sq_mean(1, e.conjugate())
    mean = n * a.mean * b.mean
    std_error = n * math.sqrt(
        (b.mean * a.std_error) ** 2 + (a.mean * b.std_error) ** 2
    )
    return MCEstimate(mean, std_error, config.samples)
