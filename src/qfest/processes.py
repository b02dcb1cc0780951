"""Seeded generators for stationary sequences with finite dependence range.

Each process knows its dependence range ``m`` (blocks of observations more
than ``m`` indices apart are independent) and, where one exists, its marginal
density in closed form.  Generators draw ``n + m`` driving variables so that
the first emitted observation already has the stationary law; no further
burn-in is needed for these finite-window constructions.

Samples are generated as stacks, one row per stream: each process kind makes
its driving draws row by row into one preallocated buffer, then turns the
whole buffer into observations with one vectorized transform (the moving
sum, running minimum, product, maximum or shuffle).  A single sample is a
stack of one.

Reproducibility contract: a :class:`SeededStream` is a (seed, stream) pair
fed to a counter-based generator, so (seed, stream, counter) -> value is a
pure function, identical across platforms and execution orders.  Children
derived with :meth:`SeededStream.child` give independent substreams for
paired samples and for Monte Carlo replications; ``_child_ids`` derives the
same ids for a whole array of replications at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _STACK_BLOCK, _check_integer

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    """One SplitMix64 scramble step; a cheap, well-mixed 64-bit hash."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_ids(z: np.ndarray) -> np.ndarray:
    """``_splitmix64`` over a uint64 array, whose arithmetic wraps mod 2**64 as the mask does."""
    z = z + np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _as_ids(v) -> np.ndarray:
    """An int, or an array of ints, as a uint64 array of at least one element, mod 2**64.

    Never a numpy scalar: uint64 scalar arithmetic warns on the wrap-around.
    """
    if isinstance(v, np.ndarray):
        return v.astype(np.uint64)  # a negative int64 wraps as ``& _MASK64`` does
    return np.array([int(v) & _MASK64], dtype=np.uint64)


def _child_ids(stream, *indices) -> np.ndarray:
    """The stream ids of ``SeededStream(seed, s).child(*indices)`` for each stream id s.

    ``stream`` and each index are an int or an integer array, and they
    broadcast against one another, so a chunk's ids are one array pass.
    """
    s = _as_ids(stream)
    for ix in indices:
        s = _splitmix64_ids(s ^ _splitmix64_ids(_as_ids(ix)))
    return s


@dataclass(frozen=True)
class SeededStream:
    """A reproducible random stream identified by (seed, stream)."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_integer(self.seed, "seed"))
        object.__setattr__(self, "stream", _check_integer(self.stream, "stream"))

    def generator(self) -> np.random.Generator:
        """Fresh counter-based generator keyed by (seed, stream)."""
        return np.random.Generator(np.random.Philox(key=self._key()))

    def _key(self) -> np.ndarray:
        return np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)

    def child(self, *indices: int) -> "SeededStream":
        """Derive an independent substream by folding indices into the id."""
        s = self.stream & _MASK64
        for ix in indices:
            s = _splitmix64(s ^ _splitmix64(int(ix) & _MASK64))
        return SeededStream(seed=self.seed, stream=s)


# ---------------------------------------------------------------------------
# Marginal laws (used both as driving distributions and as oracle inputs)
# ---------------------------------------------------------------------------

_vector_erf = np.frompyfunc(math.erf, 1, 1)


def _erf(x):
    out = _vector_erf(x)
    if isinstance(out, np.ndarray):
        return out.astype(float)
    return float(out)


@dataclass(frozen=True)
class NormalMarginal:
    mean: float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.variance) and self.variance > 0.0):
            raise ValueError(f"variance must be finite and > 0, got {self.variance!r}")

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) ** 2 / (2.0 * self.variance)
        out = np.exp(-z) / math.sqrt(2.0 * math.pi * self.variance)
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / math.sqrt(2.0 * self.variance)
        out = 0.5 * (1.0 + _erf(z))
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def sample(self, rng: np.random.Generator, size: int):
        return rng.normal(self.mean, math.sqrt(self.variance), size)

    def support(self):
        # 12 standard deviations: the density is ~ 5e-32 there, far below the
        # 1e-14 truncation rule used for quadrature.
        sd = math.sqrt(self.variance)
        return (self.mean - 12.0 * sd, self.mean + 12.0 * sd)


@dataclass(frozen=True)
class ExponentialMarginal:
    """Exponential law parameterized by its rate: pdf(x) = rate * exp(-rate*x)."""

    rate: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError(f"rate must be finite and > 0, got {self.rate!r}")

    def pdf(self, x):
        xv = np.asarray(x, dtype=float)
        out = np.where(xv >= 0.0, self.rate * np.exp(-self.rate * np.maximum(xv, 0.0)), 0.0)
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def cdf(self, x):
        xv = np.asarray(x, dtype=float)
        out = np.where(xv >= 0.0, 1.0 - np.exp(-self.rate * np.maximum(xv, 0.0)), 0.0)
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def sample(self, rng: np.random.Generator, size: int):
        return rng.exponential(1.0 / self.rate, size)

    def support(self):
        # upper end where the density falls below 1e-14
        return (0.0, (math.log(self.rate) + 14.0 * math.log(10.0)) / self.rate)


@dataclass(frozen=True)
class UniformMarginal:
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    def pdf(self, x):
        xv = np.asarray(x, dtype=float)
        out = np.where((xv >= self.lo) & (xv <= self.hi), 1.0 / (self.hi - self.lo), 0.0)
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def cdf(self, x):
        xv = np.asarray(x, dtype=float)
        out = np.clip((xv - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def sample(self, rng: np.random.Generator, size: int):
        return rng.uniform(self.lo, self.hi, size)

    def support(self):
        return (self.lo, self.hi)


@dataclass(frozen=True)
class MaxOfPairMarginal:
    """Law of max(U, U') for two independent draws from ``base``.

    pdf(x) = 2 * F(x) * p(x) and cdf(x) = F(x)**2 in terms of the base law.
    """

    base: object

    def pdf(self, x):
        return 2.0 * self.base.cdf(x) * self.base.pdf(x)

    def cdf(self, x):
        return self.base.cdf(x) ** 2

    def support(self):
        return self.base.support()


# ---------------------------------------------------------------------------
# Process kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianMA:
    """Moving average of i.i.d. standard normal noise, plus a constant shift.

    ``taps[k]`` multiplies the noise at lag k, so ``len(taps) - 1`` is the
    dependence range and the marginal is Normal(shift, sum(taps**2)).
    """

    kind = "gaussian-ma"
    taps: tuple[float, ...] = (1.0,)
    shift: float = 0.0

    def __post_init__(self):
        taps = tuple(float(t) for t in self.taps)
        if not taps or not all(math.isfinite(t) for t in taps):
            raise ValueError(f"taps must be finite and nonempty, got {self.taps!r}")
        if not any(t != 0.0 for t in taps):
            raise ValueError("at least one tap must be nonzero")
        object.__setattr__(self, "taps", taps)

    @property
    def m(self) -> int:
        return len(self.taps) - 1

    def _fill(self, out: np.ndarray, draws) -> None:
        n, m = out.shape[1], self.m
        z = np.empty((len(out), n + m))
        for rng, zr in draws(z):
            rng.standard_normal(out=zr)
        np.multiply(z[:, m : m + n], self.taps[0], out=out)
        # the lagged terms go through scratch for a block of rows of about
        # _STACK_BLOCK values (one row at least), not a second stack
        step = max(1, _STACK_BLOCK // n)
        lagged = np.empty((min(step, len(out)), n))
        for r in range(0, len(out), step):
            rows = out[r : r + step]
            scratch = lagged[: len(rows)]
            for k in range(1, m + 1):
                np.multiply(z[r : r + step, m - k : m - k + n], self.taps[k], out=scratch)
                rows += scratch
        out += self.shift

    def marginal(self):
        return NormalMarginal(self.shift, math.fsum(t * t for t in self.taps))

    def autocovariance(self, h: int) -> float:
        """Lag-h autocovariance, sum(taps[k] * taps[k+h]) for unit noise."""
        if h > self.m:
            return 0.0
        return math.fsum(self.taps[k] * self.taps[k + h] for k in range(len(self.taps) - h))


@dataclass(frozen=True)
class MinExp:
    """Running minimum of ``window`` consecutive i.i.d. exponentials.

    The minimum of ``window`` rate-``rate`` exponentials is exponential with
    rate ``window * rate``, so the marginal is known in closed form.
    """

    kind = "min-exp"
    rate: float = 1.0 / 3.0
    window: int = 3

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError(f"rate must be finite and > 0, got {self.rate!r}")
        object.__setattr__(self, "window", _check_integer(self.window, "window"))
        if self.window < 1:
            raise ValueError(f"window must be a positive integer, got {self.window!r}")

    @property
    def m(self) -> int:
        return self.window - 1

    def _fill(self, out: np.ndarray, draws) -> None:
        n = out.shape[1]
        z = np.empty((len(out), n + self.m))
        for rng, zr in draws(z):
            zr[:] = rng.exponential(1.0 / self.rate, zr.size)
        out[:] = z[:, :n]
        for k in range(1, self.window):
            np.minimum(out, z[:, k : k + n], out=out)

    def marginal(self):
        return ExponentialMarginal(self.rate * self.window)


@dataclass(frozen=True)
class ProductGauss:
    """Products of consecutive i.i.d. standard normals; 1-dependent.

    Adjacent differences of this sequence have an unbounded density, which is
    what makes it the stress fixture for the complete estimator.  The
    marginal has no elementary closed form, so no oracle is attached.
    """

    kind = "product-gauss"

    @property
    def m(self) -> int:
        return 1

    def _fill(self, out: np.ndarray, draws) -> None:
        z = np.empty((len(out), out.shape[1] + 1))
        for rng, zr in draws(z):
            rng.standard_normal(out=zr)
        np.multiply(z[:, 1:], z[:, :-1], out=out)

    def marginal(self):
        return None


@dataclass(frozen=True)
class MaxIid:
    """Pairwise maxima of consecutive i.i.d. draws from ``base``; 1-dependent.

    Adjacent observations tie with probability 1/3 (the shared draw is the
    larger of the three involved), so differences of neighbors have an atom
    at zero: another bounded-difference-density violation fixture.
    """

    kind = "max-iid"
    base: UniformMarginal = field(default_factory=UniformMarginal)

    @property
    def m(self) -> int:
        return 1

    def _fill(self, out: np.ndarray, draws) -> None:
        u = np.empty((len(out), out.shape[1] + 1))
        for rng, ur in draws(u):
            ur[:] = self.base.sample(rng, ur.size)
        np.maximum(u[:, 1:], u[:, :-1], out=out)

    def marginal(self):
        return MaxOfPairMarginal(self.base)


@dataclass(frozen=True)
class BernoulliShuffle:
    """Reindexing x*_{t + xi_t} of an i.i.d. sequence by fair coin flips.

    xi takes values in {0, 1} with probability 1/2 each, so the index always
    moves forward.  The marginal is the base law, but neighbors duplicate the
    same base draw with probability 1/4 (xi_t = 1, xi_{t+1} = 0); the
    duplicate consumption is intentional and is exactly what breaks the
    bounded-difference-density condition.
    """

    kind = "bernoulli-shuffle"
    base: NormalMarginal = field(default_factory=NormalMarginal)

    @property
    def m(self) -> int:
        return 1

    def _fill(self, out: np.ndarray, draws) -> None:
        rows, n = out.shape
        u = np.empty((rows, n + 1))
        flips = np.empty((rows, n), dtype=np.int64)
        for rng, ur, fr in draws(u, flips):
            ur[:] = self.base.sample(rng, n + 1)
            fr[:] = rng.integers(0, 2, size=n)
        # row r's picks as positions in the flattened draws
        flips += np.arange(n) + np.arange(0, rows * (n + 1), n + 1)[:, None]
        u.take(flips, out=out)

    def marginal(self):
        return self.base


@dataclass(frozen=True)
class Iid:
    """Independent draws from ``base``; dependence range zero."""

    kind = "iid"
    base: object = field(default_factory=NormalMarginal)

    @property
    def m(self) -> int:
        return 0

    def _fill(self, out: np.ndarray, draws) -> None:
        for rng, row in draws(out):
            row[:] = self.base.sample(rng, row.size)

    def marginal(self):
        return self.base


# ---------------------------------------------------------------------------
# Generation entry points
# ---------------------------------------------------------------------------


def _generate_stack(spec, n: int, seed: int, ids) -> np.ndarray:
    """Generate an (R, n, 1) stack whose row r holds the n observations of stream ``ids[r]``.

    The process kind's ``_fill(out, draws)`` writes the (R, n) stack ``out``
    in two steps: its driving draws, row by row into buffers it allocates,
    then one transform over the whole stack.  ``draws(*buffers)`` yields,
    for each row r, the generator and row r of each buffer.  One Philox
    makes every row's draws: before each row its state is reset to the key
    (seed, ids[r]) with counter 0 and an empty buffer, which is the state of
    a fresh ``SeededStream(seed, ids[r]).generator()``.
    """
    if _check_integer(n, "sample length") < 1:
        raise ValueError(f"sample length must be a positive integer, got {n!r}")
    ids = np.asarray(ids, dtype=np.uint64)
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    rng = np.random.Generator(bits)
    key = np.array([seed & _MASK64, 0], dtype=np.uint64)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def draws(*buffers):
        """Yield the generator reset to each row's stream, with that row of each buffer."""
        for r, stream in enumerate(ids):
            key[1] = stream
            bits.state = fresh
            yield (rng, *(buf[r] for buf in buffers))

    out = np.empty((len(ids), int(n), 1))
    spec._fill(out[..., 0], draws)
    return out


def generate(spec, n: int, stream: SeededStream) -> np.ndarray:
    """Generate n consecutive observations as an (n, 1) sample array."""
    return _generate_stack(spec, n, stream.seed, _as_ids(stream.stream))[0]


def paired_generate(spec_x, spec_y, n: int, stream: SeededStream):
    """Generate two samples of length n from independent substreams."""
    return generate(spec_x, n, stream.child(0)), generate(spec_y, n, stream.child(1))
