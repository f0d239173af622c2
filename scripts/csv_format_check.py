#!/usr/bin/env python3
"""Sweep the CSV formatter against '%.17g' over every binary exponent.

    python scripts/csv_format_check.py

It formats, with a fixed seed, 500 doubles of random significand and sign
at each binary exponent from -1074 (the subnormals) to 1023, plus zeros,
infinities, NaN, every power of ten in the float range and its two
neighbours, and exact decimal ties: over 10^6 values in all. Each goes
through csvformat.format_rows, in blocks of 4096 values of one column, and
through '%.17g' % x. It prints how many values each path formatted and
exits 1 when any byte differs.
"""

import sys

import numpy as np

from jumpspec.csvformat import HI, LO, format_rows, significands

PER_EXPONENT = 500
EXPONENTS = range(-1074, 1024)
BLOCK = 4096
SEED = 20140601


def sample(seed: int = SEED) -> np.ndarray:
    """The swept doubles: PER_EXPONENT at each of EXPONENTS, then the special values."""
    rng = np.random.default_rng(seed)
    e = np.repeat(np.array(EXPONENTS), PER_EXPONENT)
    x = np.ldexp(1.0 + rng.random(e.size), e) * rng.choice([-1.0, 1.0], e.size)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    odd = 2 * np.arange(1, 200) + 1  # 10^X + odd 2^(X - 17) has 18 digits, the last a 5
    ties = np.concatenate([10.0**X + odd * 2.0 ** (X - 17) for X in range(16)])
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, np.finfo(float).max, np.finfo(float).tiny, LO, HI]
    return np.concatenate([x, tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf), ties, -ties, special])


def paths(x: np.ndarray) -> dict:
    """How many of x each path formats."""
    _, D, ok = significands(x)
    a = np.abs(x)
    inside = (a >= LO) & (a < HI)
    return {
        "zero (kernel)": int(np.sum(a == 0.0)),
        "certified significand (kernel)": int(np.sum(ok & inside)),
        "non-finite ('%')": int(np.sum(~np.isfinite(x))),
        "outside [1e-280, 1e16) ('%')": int(np.sum(np.isfinite(x) & (a > 0.0) & ~inside)),
        "within the tie margin ('%')": int(np.sum(inside & ~ok & (D < 10**17))),
        "rounds up to 10^17 ('%')": int(np.sum(inside & ~ok & (D >= 10**17))),
    }


def mismatches(x: np.ndarray) -> list:
    """(value, kernel's text, '%.17g' text) of each value formatted differently."""
    out = []
    for i in range(0, x.size, BLOCK):
        block = x[i : i + BLOCK]
        texts = format_rows(block[:, None]).split(b"\n")[:-1]
        for v, t in zip(block.tolist(), texts):
            if t != b"%.17g" % v:
                out.append((v, t, b"%.17g" % v))
    return out


if __name__ == "__main__":
    x = sample()
    for name, count in paths(x).items():
        print(f"{name:<34} {count:>9}")
    bad = mismatches(x)
    for v, got, want in bad[:20]:
        print(f"{v!r}: kernel {got.decode()}, '%.17g' {want.decode()}")
    print(f"{x.size} values, {len(bad)} formatted differently")
    sys.exit(1 if bad else 0)
