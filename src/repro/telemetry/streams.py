"""Telemetry noise streams: one interface, two kinds of randomness.

A sampler draws its reading noise from a stream: ``normals(n)`` is one
sampling pass, ``normals_passes(passes, n)`` that many passes as one
block, and :func:`normals_block` one pass of many streams, or only some
columns of it.  :class:`SequentialStream` (the single-service paper
experiments) consumes one ``numpy.random.Generator`` in call order.
:class:`CounterStream` (fleets) is **counter-mode** randomness: one
per-fleet 64-bit key is derived from a
:class:`numpy.random.SeedSequence`, and the ``k``-th normal of the
``d``-th sampling pass of lane ``l`` is a pure function of
``(key, l, salt, d, k)``.  Because nothing is consumed from a shared
stream, the same numbers come out whether a lane is sampled alone, as
one row of a fleet-wide matrix, or inside a different worker process —
scalar == batched == sharded, bit for bit, by construction.  It also
makes any single normal of a pass computable on its own, so a caller
that reads only a few columns of a pass (the fleet's signature
collection) evaluates only those.  :func:`normals_block` is the only
code that tells the two kinds apart.

The counter generator is a splitmix64-style counter hash (Philox's
shape — a keyed block function over a counter — with a cheaper mixing
function that numpy can evaluate for every ``(lane, element)`` pair of
a block in one vectorized pass) followed by a Box–Muller transform.
Statistical quality is far beyond what the telemetry noise model needs,
and the whole ``(n_lanes, n_metrics)`` noise block of an adaptation
wave is produced by a handful of array operations.
"""

from __future__ import annotations

import numpy as np

#: splitmix64 constants (Steele, Lea & Flood; also Philox-style odd
#: multipliers).  All arithmetic is uint64 and wraps mod 2**64.
_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)

_U64_30 = np.uint64(30)
_U64_27 = np.uint64(27)
_U64_31 = np.uint64(31)
_U64_11 = np.uint64(11)
_ONE = np.uint64(1)

#: Python ints stand in for uint64 words below this mask.
_MASK_64 = 0xFFFFFFFFFFFFFFFF

#: 2**-53: maps the top 53 bits of a word onto [0, 1).
_INV_2_53 = float(2.0**-53)


def _mix64(x: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    """The splitmix64 finalizer: a bijective avalanche on uint64."""
    x = (x ^ (x >> _U64_30)) * _MIX_1
    x = (x ^ (x >> _U64_27)) * _MIX_2
    return x ^ (x >> _U64_31)


def _mix64_int(x: int) -> int:
    """:func:`_mix64` of one word held as a Python int in [0, 2**64)."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK_64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK_64
    return x ^ (x >> 31)


def stream_mix(key: int, lane: int, salt: int) -> int:
    """A stream's identity ``(key, lane, salt)`` mixed into one word,
    the part of a pass's row key that no pass changes."""
    mix = _mix64_int((key + _GOLDEN_INT * lane) & _MASK_64)
    return _mix64_int((mix + _GOLDEN_INT * salt) & _MASK_64)


def pass_normals(
    mixes: np.ndarray, draws: np.ndarray, columns: np.ndarray
) -> np.ndarray:
    """The noise kernel: ``columns`` of many streams' passes.

    Element ``[r, j]`` is normal ``columns[j]`` of the pass at counter
    ``draws[r]`` of the stream whose :func:`stream_mix` is
    ``mixes[r]``.  Each element is a pure function of those three
    integers, so any subset of a pass's columns, in any order, comes
    out exactly as it does within the whole pass.
    """
    row_key = _mix64(mixes + _GOLDEN * draws)
    cols = _GOLDEN * columns.astype(np.uint64)
    w1 = _mix64(row_key[:, None] + cols[None, :])
    w2 = _mix64(w1 + _GOLDEN)
    # Box-Muller: u1 in (0, 1] keeps the log finite, u2 in [0, 1).
    u1 = ((w1 >> _U64_11) + _ONE).astype(np.float64) * _INV_2_53
    u2 = (w2 >> _U64_11).astype(np.float64) * _INV_2_53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos((2.0 * np.pi) * u2)


def counter_normals(
    keys: np.ndarray,
    lanes: np.ndarray,
    salts: np.ndarray,
    draws: np.ndarray,
    n: int,
) -> np.ndarray:
    """Standard normals for many streams' next sampling pass at once.

    Row ``r`` holds the ``n`` normals of the stream identified by
    ``(keys[r], lanes[r], salts[r])`` at pass counter ``draws[r]`` — a
    pure function of those four integers, evaluated for the whole block
    in one vectorized pass.
    """
    if n < 1:
        raise ValueError(f"need at least one normal per row: {n}")
    mixes = _mix64(_mix64(keys + _GOLDEN * lanes) + _GOLDEN * salts)
    return pass_normals(mixes, draws, np.arange(n))


class CounterStream:
    """One sampler's counter-mode stream: ``(key, lane, salt)`` plus a
    monotone pass counter.

    Each sampling pass consumes exactly one counter tick regardless of
    how many normals it draws, so a lane's ``d``-th collection produces
    the same noise no matter which process or batch performs it.  The
    identity is mixed once, at construction (``mix``), so a pass mixes
    only its counter.
    """

    __slots__ = ("key", "lane", "salt", "mix", "draws")

    def __init__(self, key: int, lane: int, salt: int = 0) -> None:
        if lane < 0:
            raise ValueError(f"lane key must be non-negative: {lane}")
        if salt < 0:
            raise ValueError(f"salt must be non-negative: {salt}")
        self.key = int(key) & _MASK_64
        self.lane = int(lane)
        self.salt = int(salt)
        self.mix = stream_mix(self.key, self.lane, self.salt)
        self.draws = 0

    def identity(self) -> tuple[int, int, int]:
        """The stream's ``(key, lane, salt)`` triple (counter excluded)."""
        return (self.key, self.lane, self.salt)

    def normals(self, n: int) -> np.ndarray:
        """The next pass's ``n`` standard normals (bumps the counter)."""
        return normals_block([self], n)[0]

    def normals_passes(self, passes: int, n: int) -> np.ndarray:
        """The next ``passes`` passes' normals as one ``(passes, n)``
        block; the counter advances by ``passes``.

        Row ``p`` is the ``p``-th of ``passes`` successive
        :meth:`normals` calls: each pass keeps its own counter value
        (``draws + p``), so the rows differ.
        """
        block = pass_normals(
            np.full(passes, self.mix, dtype=np.uint64),
            np.uint64(self.draws) + np.arange(passes, dtype=np.uint64),
            np.arange(n),
        )
        self.draws += passes
        return block


class SequentialStream:
    """One sampler's sequential stream: ``default_rng(seed)``'s standard
    normals, consumed in call order.

    A pass of ``n`` normals times a vector of ``n`` deviations is
    bit-identical to ``Generator.normal(0.0, sds)`` on the same
    generator, so samplers built on this stream reproduce the readings
    of the per-sampler generators the paper experiments were pinned on.
    """

    __slots__ = ("_rng",)

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def normals(self, n: int) -> np.ndarray:
        """The next pass's ``n`` standard normals."""
        return self._rng.standard_normal(n)

    def normals_passes(self, passes: int, n: int) -> np.ndarray:
        """The next ``passes`` passes' normals as one ``(passes, n)``
        block, drawn in the order successive :meth:`normals` calls
        would draw them."""
        return self._rng.standard_normal((passes, n))


#: Either kind of noise stream.
NoiseStream = CounterStream | SequentialStream


def normals_block(
    streams: list[NoiseStream], n: int, columns: np.ndarray | None = None
) -> np.ndarray:
    """Every stream's next pass of ``n`` normals at once, as one
    ``(len(streams), n)`` block, or only its ``columns`` (pass
    positions, any order) as a ``(len(streams), len(columns))`` block.

    Row ``r`` is bit-identical to ``streams[r].normals(n)[columns]``
    and every stream advances by exactly one pass, also when
    ``columns`` is empty.  The streams must be of one kind (callers
    group them by class); the first stream's class decides.  Counter
    streams evaluate only the requested columns, in a single vectorized
    pass — the whole point of counter mode — while sequential streams
    draw their full passes in row order and slice them.
    """
    if not streams:
        raise ValueError("need at least one stream")
    if type(streams[0]) is SequentialStream:
        block = np.stack([stream.normals(n) for stream in streams])
        return block if columns is None else block[:, columns]
    if columns is None:
        columns = np.arange(n)
    if columns.size:
        mixes = np.array([s.mix for s in streams], dtype=np.uint64)
        draws = np.array([s.draws for s in streams], dtype=np.uint64)
        block = pass_normals(mixes, draws, columns)
    else:
        block = np.empty((len(streams), 0))
    for stream in streams:
        stream.draws += 1
    return block


class TelemetryStreams:
    """The per-fleet root of all counter-mode sampler streams.

    One 64-bit fleet key is derived from ``seed`` via
    :class:`numpy.random.SeedSequence`; per-sampler streams are then
    keyed by ``(lane, salt)`` under it.  Two fleets built from the same
    seed derive the same key (sharded workers rely on this), and two
    samplers given the same ``(lane, salt)`` produce identical noise —
    which is exactly what ``lane_seed_stride=0`` determinism tests want
    when every lane maps to lane key 0.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._key = int(
            np.random.SeedSequence(self.seed).generate_state(1, dtype=np.uint64)[0]
        )

    @property
    def key(self) -> int:
        return self._key

    def stream(self, lane: int, salt: int = 0) -> CounterStream:
        """The counter stream for one sampler of one lane."""
        return CounterStream(self._key, lane, salt)
