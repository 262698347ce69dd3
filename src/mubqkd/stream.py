"""The sessions' variate stream, Draws: numpy's Generator on PCG64(seed),
draw for draw, computed without numpy's random module.  Its public
interface is words, refill(), skip(k), random(), outcome(d) and
integers(high); the rest of this module is private to it.
"""

from __future__ import annotations

import operator

import numpy as np

# PCG64 (O'Neill, HMC-CS-2014-0905): a 128-bit LCG state s -> s*M + inc,
# whose output is XSL-RR of the stepped state.  numpy seeds it from a
# SeedSequence, whose pool mixing and state generation _seed_state repeats.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_SEED_INIT_A, _SEED_MULT_A = 0x43B0D7E5, 0x931E8875
_SEED_INIT_B, _SEED_MULT_B = 0x8B51F9DD, 0x58F38DED
_SEED_MIX_L, _SEED_MIX_R = 0xCA01F9DD, 0x4973F715
_SEED_POOL = 4

# Raw words per refill of Draws, the square of _BLOCK_ROOT.  Draws(seed)
# steps the seed state _BLOCK_ROOT times with Python ints, then doubles
# these states to a block in six products of the map with 64 to 2048
# states; doubling from one state would take twelve, half of them on fewer
# than 64 states, where a product costs little but its array calls.  A
# refill is some 30 array operations of _BLOCK_WORDS states and a tolist,
# about 0.16 ms.  A round of either benchmark session takes about 8 words
# (7.6 in a d = 7 swap session, 7.9 in a d = 243 one with an
# eavesdropper), so a block lasts some 500 rounds and under 1% of rounds
# pay for a refill.  Spread over those rounds a refill costs about 0.3 us
# a round, a tenth of a d = 7 round.  A draw costs about 0.12 us when
# run_round takes its word inline, 0.13-0.16 us as a call of random() or
# outcome() and 0.24 us as one of integers() (2-core Xeon, Python 3.11,
# best of 30 loops of 1000 draws, loop included).  skip(k) past the block
# raises the map to one more than the number of whole blocks it passes, in
# about 2 log2(k / 4096) products of 128-bit ints, and refills once: some
# 0.3 ms at k = 10**20 on the same machine.
_BLOCK_ROOT = 64
_BLOCK_WORDS = _BLOCK_ROOT ** 2


def _seed_state(seed: int) -> tuple[int, int]:
    """(state, inc) of numpy's PCG64(seed) after seeding, with Python ints.

    numpy's SeedSequence hashes the seed's 32-bit words (least significant
    first; seed 0 is one word) into a pool of four and draws four 64-bit
    words w0..w3 from it; PCG64's srandom then takes initstate = w0:w1 and
    initseq = w2:w3.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed: expected a non-negative integer, got {seed}")
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)

    hash_const = _SEED_INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _SEED_MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_SEED_MIX_L * x - _SEED_MIX_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_SEED_POOL)]
    for src in range(_SEED_POOL):
        for dst in range(_SEED_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_SEED_POOL:]:
        for dst in range(_SEED_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _SEED_INIT_B
    halves = []
    for i in range(8):   # generate_state(4, uint64): 8 words, low half first
        value = pool[i % _SEED_POOL] ^ hash_const
        hash_const = hash_const * _SEED_MULT_B & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ value >> 16)
    w = [halves[2 * i] | halves[2 * i + 1] << 32 for i in range(4)]
    initstate, initseq = w[0] << 64 | w[1], w[2] << 64 | w[3]
    inc = (initseq << 1 | 1) & _MASK128
    return ((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc


def _affine(a: int, c: int, x_hi, x_lo):
    """uint64 halves (hi, lo) of a*x + c mod 2**128 for 128-bit ints a and c,
    elementwise over the uint64 halves of x.  The high half of the low 64x64
    product comes from 32-bit partial products."""
    a_hi, a_lo, c_hi, c_lo = a >> 64, a & _MASK64, c >> 64, c & _MASK64
    x1, x0 = x_lo >> 32, x_lo & _MASK32
    a1, a0 = a_lo >> 32, a_lo & _MASK32
    p01, p10 = a0 * x1, a1 * x0
    mid = (a0 * x0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = a1 * x1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + a_hi * x_lo + a_lo * x_hi
    lo = a_lo * x_lo + c_lo
    return hi + c_hi + (lo < c_lo), lo


def _xsl_rr(hi, lo) -> list[int]:
    """PCG64's XSL-RR output, rotr64(hi ^ lo, hi >> 58), of the states with
    uint64 halves hi and lo, as a list in reverse order."""
    x = hi ^ lo
    rot = hi >> 58
    return ((x >> rot) | (x << ((64 - rot) & 63)))[::-1].tolist()


class Draws:
    """The variates of numpy's Generator on PCG64(seed), draw for draw, for
    its calls random() and integers(high), without numpy's cost per call and
    without importing numpy's random module.

    The words are those of numpy's PCG64 stream, random_raw, computed here.
    Draws holds the current block's _BLOCK_WORDS stepped states, as uint64
    halves, and one map s -> a*s + c of _BLOCK_WORDS steps: a block's words
    are the XSL-RR output of its states, and the next block's states are
    these stepped by the map.  The first block is built here: _seed_state
    seeds the state as numpy does, _BLOCK_ROOT steps with Python ints give
    the first states and their map, and each doubling appends the states so
    far stepped by the map, then squares the map.

    words is the block's unused words, next one last, so a draw of one word
    is words.pop() if words else refill().  refill() fills that same list in
    place, so a caller that holds words and refill takes its one-word draws
    inline, across blocks, with no method call.  skip(k) takes k words
    unread, in O(log k) (Brown's LCG jump-ahead, Trans. Am. Nucl. Soc. 71,
    1994).

    random() is numpy's next_double, (w >> 11) * 2**-53, and outcome(d) the
    uniform outcome of d from the same word.  integers(high) is numpy's
    bounded 32-bit draw (Lemire, arXiv:1805.10941): x * high for a 32-bit x,
    drawn again while the low 32 bits of the product fall below 2**32 mod
    high, the high 32 bits being the result.  Like PCG64, a 32-bit draw takes
    the low half of a fresh word and keeps the high half for the next 32-bit
    draw; random(), outcome() and skip() leave that half alone.  integers()
    takes its 32-bit halves in its own body, with no helper call, since
    draws are the largest share of a round's cost.

    seed is a non-negative int: ValueError for a negative one, as numpy's
    SeedSequence raises, and TypeError for anything operator.index refuses.
    """

    def __init__(self, seed: int):
        s, inc = _seed_state(seed)
        a, c, states = 1, 0, []
        for _ in range(_BLOCK_ROOT):
            s = (s * _PCG_MULT + inc) & _MASK128
            a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + inc) & _MASK128
            states.append(s)
        hi, lo = np.empty((2, _BLOCK_WORDS), np.uint64)
        hi[:_BLOCK_ROOT] = [v >> 64 for v in states]
        lo[:_BLOCK_ROOT] = [v & _MASK64 for v in states]
        n = _BLOCK_ROOT
        while n < _BLOCK_WORDS:
            hi[n:2 * n], lo[n:2 * n] = _affine(a, c, hi[:n], lo[:n])
            a, c = a * a & _MASK128, (a * c + c) & _MASK128
            n *= 2
        self._hi, self._lo, self._map = hi, lo, (a, c)
        self.words = _xsl_rr(hi, lo)
        self._half: int | None = None

    def _step(self, a: int, c: int) -> None:
        """Step the held states by s -> a*s + c and put their words in words,
        in place."""
        self._hi, self._lo = _affine(a, c, self._hi, self._lo)
        self.words[:] = _xsl_rr(self._hi, self._lo)

    def refill(self) -> int:
        """The first word of the next block, whose other words fill words in
        place, next one last."""
        self._step(*self._map)
        return self.words.pop()

    def skip(self, k: int) -> None:
        """Drop the next k words, as k pops would, in O(log k): past the
        block, step the states by the map raised to one more than the number
        of whole blocks skipped, refill once and drop the rest.  ValueError
        for a negative k."""
        if k < 0:
            raise ValueError(f"skip: expected a non-negative count, got {k}")
        words = self.words
        if k <= len(words):
            del words[len(words) - k:]
            return
        blocks, rest = divmod(k - len(words), _BLOCK_WORDS)
        # (pa, pc) becomes the map ** (blocks + 1) by square and multiply
        e, (a, c), (pa, pc) = blocks + 1, self._map, (1, 0)
        while e:
            if e & 1:
                pa, pc = pa * a & _MASK128, (pa * c + pc) & _MASK128
            a, c = a * a & _MASK128, (a * c + c) & _MASK128
            e >>= 1
        self._step(pa, pc)
        del words[len(words) - rest:]

    def random(self) -> float:
        """Generator.random(): a float in [0, 1)."""
        words = self.words
        w = words.pop() if words else self.refill()
        return (w >> 11) * (1.0 / (1 << 53))

    def outcome(self, d: int) -> int:
        """A uniform outcome in range(d): floor(m*d / 2**53) for the variate
        m * 2**-53 that random() would return, in integers, so each outcome
        takes floor or ceil of 2**53/d of the variates and no table is kept."""
        words = self.words
        w = words.pop() if words else self.refill()
        return (w >> 11) * d >> 53

    def integers(self, high: int) -> int:
        """Generator.integers(high) for 1 <= high <= 2**32; high 1 draws nothing."""
        if not 1 < high <= 1 << 32:
            if high == 1:
                return 0
            raise ValueError(f"high must lie in [1, 2**32], got {high}")
        while True:
            half = self._half
            if half is None:
                words = self.words
                w = words.pop() if words else self.refill()
                self._half = w >> 32
                m = (w & _MASK32) * high
            else:
                self._half = None
                m = half * high
            # Lemire's threshold 2**32 % high is below high, so a low half at
            # or above high is accepted without computing it
            if m & _MASK32 >= high or m & _MASK32 >= (1 << 32) % high:
                return m >> 32
