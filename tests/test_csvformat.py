"""write_csv writes each value exactly as '%.17g' does, on both sides of its
block-size rule and through every path of the formatter."""

import json

import numpy as np
import pytest

from jumpspec import cli
from jumpspec.csvformat import _FORMS, _W, HI, LO, _tables, format_rows, significands


def reference_csv(header, rows) -> bytes:
    """The per-row '%' writer that write_csv replaces."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    return (",".join(header) + "\n" + "".join(line % tuple(row) for row in np.asarray(rows).tolist())).encode()


def powers_of_ten():
    p = np.array([float(f"1e{k}") for k in range(-300, 301)])
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


def ties():
    """Doubles whose 18-digit decimal expansion is exact and ends in 5: for
    |x| in [10^X, 10^(X+1)), odd multiples of 2^(X - 17) past 10^X (X >= 0),
    and of 2^-18 past 0.5; '%.17g' rounds each half to even."""
    odd = 2 * np.arange(1, 40) + 1
    out = [10.0**X + odd * 2.0 ** (X - 17) for X in range(16)] + [0.5 + odd * 2.0**-18]
    return np.concatenate(out + [np.array([1 + 2**-17])])


def random_bits(n, seed=0):
    return np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64).view(np.float64)


def binary_exponents(n, lo, hi, seed):
    """n doubles of either sign with random significands and binary exponents lo..hi."""
    rng = np.random.default_rng(seed)
    return np.ldexp(1.0 + rng.random(n), rng.integers(lo, hi + 1, n)) * rng.choice([-1.0, 1.0], n)


def special():
    tiny = np.finfo(float).tiny
    return np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0.0),
                     1e-300, LO, np.nextafter(LO, 0.0), HI, np.nextafter(HI, 0.0), 1e17, 123456789012345678.0,
                     np.finfo(float).max, -np.finfo(float).max, 1.0, -1.0, 0.1, 1e-5, 1e-4, 9.5e-5, 99999.5])


VALUES = {
    "special": special(),
    "powers-of-ten": powers_of_ten(),
    "ties": ties(),
    "random-bits": random_bits(20000),
    "subnormals": binary_exponents(5000, -1074, -1023, seed=1),
    "large": binary_exponents(5000, 53, 1023, seed=2),
}


def test_the_value_sets_reach_every_path():
    """Each path of the formatter formats some of the values below: zeros,
    the certified kernel, and the '%' fallback for non-finite values, for
    values outside [LO, HI) and for fractions within the tie margin."""
    x = np.concatenate(list(VALUES.values()))
    _, _, ok = significands(x)
    a = np.abs(x)
    inside = (a >= LO) & (a < HI)
    assert ok[a == 0.0].all() and (a == 0.0).sum() >= 2
    assert (ok & inside).sum() > 10000
    assert not ok[~np.isfinite(x)].any() and (~np.isfinite(x)).sum() >= 4
    assert not ok[np.isfinite(x) & (a > 0) & ~inside].any()
    assert (~ok[inside]).sum() >= len(ties())
    assert not significands(ties())[2].any()


@pytest.mark.parametrize("shape", [(3, 5), (36, 7), (37, 7), (2000, 7), (4100, 1)], ids=str)
@pytest.mark.parametrize("values", list(VALUES), ids=list(VALUES))
def test_write_csv_matches_the_reference_writer(tmp_path, shape, values):
    # (36, 7) has 252 values, under _KERNEL_MIN, and formats by one '%';
    # (37, 7) has 259 and takes the kernel; the larger tables go in several
    # blocks, the last of (4100, 1) 4 values long
    pool = VALUES[values]
    table = pool[np.arange(shape[0] * shape[1]) % pool.size].reshape(shape)
    header = [f"c{j}" for j in range(shape[1])]
    cli.write_csv(str(tmp_path / "t.csv"), header, table)
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(header, table)


def test_the_kernel_runs_on_blocks_of_its_size_only(tmp_path, monkeypatch):
    sizes = []
    monkeypatch.setattr(cli, "format_rows", lambda block: sizes.append(block.size) or format_rows(block))
    for rows, cols in [(1, 5), (36, 7), (37, 7), (4100, 1), (1000, 9)]:
        cli.write_csv(str(tmp_path / "t.csv"), [f"c{j}" for j in range(cols)], np.ones((rows, cols)))
    assert sizes == [259, 4096, 4095, 4095, 810]
    assert min(sizes) >= cli._KERNEL_MIN


def test_the_kernel_keeps_signs_zeros_and_ties():
    """What a kernel that dropped the sign of -0.0 or rounded halves up
    would get wrong, each in a block the kernel formats."""
    x = np.concatenate([[-0.0, 0.0, -1.5, 1 + 2**-17, 1 + 3 * 2**-17], np.full(300, 0.25)])
    text = format_rows(x[:, None]).split(b"\n")
    assert text[:5] == [b"-0", b"0", b"-1.5", b"1.0000076293945312", b"1.0000228881835938"]


def keep_row(form, nd, sign):
    """The row bytes of a value's text, one value at a time: its notation
    form, nd significant digits and sign. Digit j sits at 6 + 2j, the dot
    after it at 7 + 2j. The rule the keep table was first built with."""
    digits = [6 + 2 * j for j in range(nd)]
    if form == 22:
        body = [1]
    elif form >= 20:  # d.ddd, 'e-', then the last two or three of 'EEE'
        body = digits[:1] + ([7] + digits[1:] if nd > 1 else []) + [40, 41] + [42, 43, 44][21 - form :]
    elif form >= 4:  # exponent X = form - 4: X + 1 integer digits, the dot only before a fraction
        whole = form - 3
        body = [6 + 2 * j for j in range(max(nd, whole))] + ([5 + 2 * whole] if nd > whole else [])
    else:  # '0.' and -X - 1 zeros of '000'
        body = [1, 2] + [3, 4, 5][: 3 - form] + digits
    return [0] * sign + body + [45]


def test_the_keep_table_follows_the_per_row_rule():
    keep = _tables()["keep"].view(np.uint8)
    want = np.zeros_like(keep)
    for row, (form, nd, sign) in enumerate(np.ndindex(_FORMS, 17, 2)):
        want[row, keep_row(form, nd + 1, sign)] = 0xFF
    assert keep.shape == (_FORMS * 17 * 2, _W)
    np.testing.assert_array_equal(keep, want)


CLI_RUNS = [
    ("interp", {"problem": {"type": "legendre", "l": 3, "xi": 0.21}, "grid": {"family": "cgl", "a": -0.9, "b": 0.9, "N": 24},
                "M": [-1, 6, 12], "probes": 10000}),
    ("diff", {"problem": {"type": "legendre", "l": 2, "xi": 0.3}, "grid": {"family": "cgl", "a": -0.8, "b": 0.8, "N": 40},
              "M": 8, "export_matrix": True, "export_corrections": True}),
    ("quad", {"problem": {"type": "synthetic", "left": [0.5, 1.0], "right": [1.0, -1.0], "xi": 0.3},
              "grid": {"family": "equidistant", "a": -1, "b": 1, "N": 20}, "M": 6, "export_weights": True}),
    ("converge", {"problem": {"type": "legendre", "l": 2, "xi": 0.3}, "family": "cgl", "a": -0.8, "b": 0.8,
                  "N_list": list(range(8, 41, 4)), "M_list": [-1, 3, 6], "probes": 200}),
    ("evolve", {"grid": {"family": "cgl", "a": -1, "b": 1, "N": 24}, "speed": 1.0, "t_final": 0.2, "dt": 1e-3,
                "output_every": 4, "initial": {"kind": "kink", "xi0": -0.25}, "corrections": False}),
]


@pytest.mark.parametrize("command,cfg", CLI_RUNS, ids=[c for c, _ in CLI_RUNS])
def test_cli_files_match_the_reference_writer(tmp_path, monkeypatch, command, cfg):
    tables = {}
    write_csv = cli.write_csv

    def capture(path, header, rows):
        tables[path] = (header, np.array(rows))
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", capture)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main([command, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 0
    assert len(tables) == {"diff": 3, "quad": 2}.get(command, 1)
    for path, (header, rows) in tables.items():
        with open(path, "rb") as fh:
            assert fh.read() == reference_csv(header, rows), path
    if command == "evolve":  # the uncorrected run has no discontinuity to track
        assert np.isnan(tables[str(tmp_path / "out" / "result.csv")][1][:, -2]).all()
    if command == "interp":
        assert tables[str(tmp_path / "out" / "result.csv")][1].size >= 10000 * 8
