"""NumPy's default_rng(seed).permutation(n) in the standard library alone.

np.random.default_rng(seed) seeds a PCG64 bit generator from
SeedSequence(seed): the seed's 32-bit words are hashed into a pool of four
words, the pool is mixed, and eight words drawn from it give the 128-bit
state and increment. Generator.permutation(n) then shuffles range(n) by
Fisher-Yates from the end, drawing each index j in [0, i] by masked
rejection from 32-bit draws, which are the low and then the high half of
each 64-bit output (XSL-RR of a 128-bit LCG).

Generator reproduces those draws bit for bit, and keeps its state between
calls as a NumPy Generator does. The fit/validation split, the k folds and
the SGD order use it, so that the default pipeline never loads
numpy.random; NumPy also leaves Generator's algorithms free to change
between releases (NEP 19), and this module fixes the ones the package's
outputs were made with.
"""

from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash and mix constants and pool size.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier.
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def seed_state(seed: int, n_words: int) -> list[int]:
    """SeedSequence(seed).generate_state(n_words) as 32-bit ints."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in (entropy + [0] * _POOL_SIZE)[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return words


class Generator:
    """The permutations of np.random.default_rng(seed), one call after another."""

    def __init__(self, seed: int):
        words = seed_state(seed, 8)
        # generate_state(4, uint64) reads the words as little-endian pairs.
        high, low, inc_high, inc_low = (
            words[k] | words[k + 1] << 32 for k in range(0, 8, 2)
        )
        self._inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        # PCG's seeding: one step from state 0 (which lands on inc), add the
        # initial state, step again.
        state = (self._inc + (high << 64 | low)) & _MASK128
        self._state = (state * _PCG_MULTIPLIER + self._inc) & _MASK128
        # The high half of the last 64-bit draw, while unused.
        self._spare: int | None = None

    def _next64(self) -> int:
        state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        self._state = state
        folded = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (folded >> rot | folded << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        value = self._next64()
        self._spare = value >> 32
        return value & _MASK32

    def _interval(self, high: int) -> int:
        """Uniform in [0, high]: masked draws, rejected while above high."""
        mask = (1 << high.bit_length()) - 1
        draw = self._next32 if high <= _MASK32 else self._next64
        while True:
            value = draw() & mask
            if value <= high:
                return value

    def permutation(self, n: int) -> list[int]:
        """A shuffled range(n): Fisher-Yates, swapping from the last item down."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._interval(i)
            items[i], items[j] = items[j], items[i]
        return items
