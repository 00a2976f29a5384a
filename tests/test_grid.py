"""Grid container, node classification and the CSV exchange format."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from edgewave import grid as gr


@pytest.mark.parametrize("square", [True, False])
def test_dilate_matches_ndimage(square):
    # shifted ORs against scipy.ndimage bit for bit: the (2c+1)^2 square,
    # and c iterations of the five-point cross
    rng = np.random.default_rng(14)
    for _ in range(100):
        mask = rng.random(rng.integers(1, 40, size=2)) < rng.choice([0.01, 0.1, 0.4])
        before = mask.copy()
        for cells in (1, 2, 3):
            if square:
                want = ndimage.binary_dilation(
                    mask, structure=np.ones((2 * cells + 1,) * 2, bool))
            else:
                want = ndimage.binary_dilation(mask, iterations=cells)
            got = gr.dilate(mask, cells, square=square)
            assert got.dtype == bool and np.array_equal(got, want)
        assert np.array_equal(mask, before)


def test_mask_classification():
    # 9x9 over [-1,1]^2 with the barrier starting at x = 0.25
    m = gr.build_mask(-1.0, -1.0, 0.25, 0.25, 9, 9, edge_a=0.25,
                      delta_line=True)
    assert m[0, 0] == gr.OUTER and m[8, 4] == gr.OUTER
    assert m[4, 5] == gr.EDGE and m[4, 7] == gr.EDGE
    assert m[4, 8] == gr.OUTER          # frame wins at the end of the row
    assert m[2, 4] == gr.DELTA_LINE
    assert m[4, 3] == gr.INTERIOR       # left of the tip, on the ray line
    assert m[3, 3] == gr.INTERIOR


def test_edge_wins_over_delta_at_crossing():
    m = gr.build_mask(-1.0, -1.0, 0.25, 0.25, 9, 9, edge_a=0.0,
                      delta_line=True)
    assert m[4, 4] == gr.EDGE


@pytest.mark.parametrize("dirichlet", [True, False])
def test_tabulate_samples_and_zeroes_dirichlet_barrier(dirichlet):
    def values(X, Y):
        return X + 1j * Y + 5.0

    g = gr.tabulate(values, -1.0, -1.0, 0.25, 0.25, 9, 9, edge_a=0.25,
                    delta_line=True, dirichlet=dirichlet)
    assert np.array_equal(g.mask, gr.build_mask(
        -1.0, -1.0, 0.25, 0.25, 9, 9, edge_a=0.25, delta_line=True))
    X, Y = g.meshes()
    edge = g.mask == gr.EDGE
    assert np.array_equal(g.values[~edge], values(X, Y)[~edge])
    want = 0.0 if dirichlet else values(X, Y)[edge]
    assert np.array_equal(g.values[edge], np.broadcast_to(want, edge.sum()))


def test_misaligned_feature_raises():
    with pytest.raises(ValueError):
        gr.build_mask(-1.0, -1.0, 0.25, 0.25, 9, 9, edge_a=0.1)
    with pytest.raises(ValueError):
        gr.aligned_index(0.37, 0.0, 0.25)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    g = gr.FieldGrid(x0=-0.3, y0=1.1, dx=0.05, dy=0.2, nx=7, ny=5,
                     values=vals, mask=gr.build_mask(-0.3, 1.1, 0.05, 0.2, 7, 5))
    path = tmp_path / "field.csv"
    gr.write_csv(g, path)
    back = gr.read_csv(path)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(back.values, g.values)
    assert back.nx == 7 and back.ny == 5
    header = path.read_text().splitlines()[0]
    assert header == "x,y,re,im"


def _neighbours(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


# values whose spelling a formatter change would alter; a 1x1 grid
# gets the last two.  2**-25 and 3*2**-25 are exact 17-digit ties that
# round down and up to even; so are 1 + 2**-17 and 1 + 3*2**-17, whose
# scale factor 10^16 * 2 is an exact double.  The three after them lie
# within 1e-15 of a tie, inside the error of the double-double scaling.
SPECIALS = [np.nan, 5e-324, 1e300, -1e-17, 2.0 ** -25, 3 * 2.0 ** -25, 1e23,
            1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17, 2.711176770832212e+160,
            6.324027154591757e-75, 1.7706146115181413e+137,
            *_neighbours(1e-300),
            np.nextafter(np.finfo(float).max, 0.0), np.finfo(float).max,
            *_neighbours(np.finfo(float).tiny), -np.nan,
            -np.inf, -0.0, np.inf]


def _reference_csv(xs, ys, values) -> str:
    """The CSV format, one f-string per node."""
    lines = ["x,y,re,im\n"]
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            v = values[j, i]
            lines.append(f"{x:.16e},{y:.16e},{v.real:.16e},{v.imag:.16e}\n")
    return "".join(lines)


def _special_grid(ny, nx):
    rng = np.random.default_rng(ny * 10 + nx)
    flat = rng.standard_normal(2 * nx * ny)
    flat[:len(SPECIALS)] = SPECIALS[:len(flat)]
    flat[-len(SPECIALS):] = SPECIALS[-len(flat):]
    values = np.empty(nx * ny, complex)   # re + 1j*im would lose -0.0
    values.real = flat[0::2]
    values.imag = flat[1::2]
    x0, y0, dx, dy = -0.3, 1.1, 0.05, 0.2
    return gr.FieldGrid(x0=x0, y0=y0, dx=dx, dy=dy, nx=nx, ny=ny,
                        values=values.reshape(ny, nx),
                        mask=gr.build_mask(x0, y0, dx, dy, nx, ny))


@pytest.mark.parametrize("ny,nx", [(1, 1), (1, 7), (7, 1), (5, 7)])
def test_csv_bytes_match_reference_formatter(tmp_path, ny, nx):
    g = _special_grid(ny, nx)
    path = tmp_path / "field.csv"
    gr.write_csv(g, path)
    assert path.read_bytes() == _reference_csv(
        g.xs(), g.ys(), g.values).encode()


@pytest.mark.parametrize("ny,nx", [(1, 1), (1, 7)])
def test_csv_round_trip_is_bit_exact_for_special_values(tmp_path, ny, nx):
    g = _special_grid(ny, nx)
    path = tmp_path / "field.csv"
    gr.write_csv(g, path)
    back = gr.read_csv(path)
    assert (back.nx, back.ny, back.x0, back.y0) == (nx, ny, g.x0, g.y0)
    # "%.16e" spells every nan "nan", so only a nan's sign bit is lost
    want = g.values.copy().view(float)
    want[np.isnan(want)] = np.nan
    assert back.values.tobytes() == want.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(seed=st.integers(0, 2 ** 32 - 1),
       drawn=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
       x0=st.floats(-1e300, 1e300), dx=st.floats(1e-300, 1e300),
       ny=st.integers(2, 4))
def test_csv_bytes_match_reference_for_any_bit_pattern(tmp_path_factory, seed,
                                                       drawn, x0, dx, ny):
    # nx does not divide the nodes of a write block, so rows straddle
    # block boundaries; the drawn bit patterns sit across the first one
    block = gr._SPELL_BLOCK // 2
    nx = block // ny + 3
    bits = np.random.default_rng(seed).integers(
        0, 2 ** 64, 2 * nx * ny, dtype=np.uint64, endpoint=False)
    start = 2 * block - len(drawn) // 2
    bits[start:start + len(drawn)] = drawn
    g = gr.FieldGrid(x0=x0, y0=-x0, dx=dx, dy=dx, nx=nx, ny=ny,
                     values=bits.view(complex).reshape(ny, nx),
                     mask=np.zeros((ny, nx), np.uint8))
    path = tmp_path_factory.mktemp("csv") / "bits.csv"
    gr.write_csv(g, path)
    assert path.read_bytes() == _reference_csv(
        g.xs(), g.ys(), g.values).encode()


def test_write_csv_peak_memory_is_bounded(tmp_path):
    # numbers are spelled a fixed count at a time: 261^2 nodes stay
    # under 1 MB traced, a small part of the 1.1 MB of values
    n = 261
    g = gr.FieldGrid(x0=-3.0, y0=-3.0, dx=0.02, dy=0.02, nx=n, ny=n,
                     values=np.full((n, n), -1.25e-3 + 4.5e-7j),
                     mask=np.zeros((n, n), np.uint8))
    tracemalloc.start()
    try:
        gr.write_csv(g, tmp_path / "field.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_read_csv_accepts_written_lattices(tmp_path):
    # the rebuilt axes are the written nodes bit for bit, so a rewrite
    # is the same file; at nx = 1, ny = 3, y0 = 1, dy = 0.001 the
    # spacing y1 - y0 would rebuild 1.002 as 1.0019999999999998
    rng = np.random.default_rng(4)
    path, again = tmp_path / "lattice.csv", tmp_path / "again.csv"
    cases = [(1e6, -1e6, 1e-3, 1e-3 / 3, 101, 2), (0.0, 1.0, 1.0, 1e-3, 1, 3),
             (-3.0, -3.0, 6 / 260, 6 / 260, 261, 2)]
    for _ in range(60):
        x0, dx = rng.choice([-1, 1]) * 10 ** rng.uniform(-3, 7), 10 ** rng.uniform(-4, 1)
        cases.append((x0, -x0, dx, dx / 3, int(rng.integers(2, 300)), 2))
    for x0, y0, dx, dy, nx, ny in cases:
        g = gr.FieldGrid(x0=x0, y0=y0, dx=dx, dy=dy, nx=nx, ny=ny,
                         values=np.zeros((ny, nx), complex),
                         mask=np.zeros((ny, nx), np.uint8))
        gr.write_csv(g, path)
        back = gr.read_csv(path)
        assert (back.nx, back.ny, back.x0, back.y0) == (nx, ny, g.x0, g.y0)
        assert back.xs().tobytes() == g.xs().tobytes()
        assert back.ys().tobytes() == g.ys().tobytes()
        gr.write_csv(back, again)
        assert again.read_bytes() == path.read_bytes()


def test_csv_round_trips_every_exponent(tmp_path):
    # every binary exponent, and both sides of every decimal one, pass
    # through the power table in both directions
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{q}") for q in range(-323, 309)])
    v = np.concatenate([powers, tens, np.nextafter(tens, 0.0),
                        np.nextafter(tens, np.inf), [np.finfo(float).max]])
    values = np.empty(v.size, complex)
    values.real, values.imag = v, -v
    g = gr.FieldGrid(x0=0.0, y0=0.0, dx=1.0, dy=1.0, nx=v.size, ny=1,
                     values=values.reshape(1, -1), mask=np.zeros((1, v.size), np.uint8))
    path = tmp_path / "exponents.csv"
    gr.write_csv(g, path)
    text = path.read_text()
    assert text.splitlines() == _reference_csv(g.xs(), g.ys(), g.values).splitlines()
    want = _fields(text)[:, 2:]
    assert gr.read_csv(path).values.view(float).tobytes() == want.tobytes()


def test_decade_rule_is_exact():
    # the largest d with 10^d <= 2^(e-1), in Python ints, for every
    # frexp exponent of a nonzero double
    e = np.arange(-1073, 1025)
    exact = []
    for ei in e.tolist():
        d = math.floor((ei - 1) * math.log10(2)) - 2
        while Fraction(10) ** (d + 1) <= Fraction(2) ** (ei - 1):
            d += 1
        exact.append(d)
    assert gr._decade(e.astype(np.int32)).tolist() == exact


def _fields(text):
    """Each row's numbers below the header, by Python's float."""
    return np.array([[float(v) for v in row.split(",")]
                     for row in text.splitlines()[1:]])


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1),
       drawn=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
       x0=st.floats(-1e6, 1e6), dx=st.floats(1e-3, 1e3), ny=st.integers(3, 5))
def test_read_csv_matches_float_for_any_bit_pattern(tmp_path_factory, seed, drawn,
                                                    x0, dx, ny):
    # rows of about 96 bytes fill three read blocks and part of a fourth;
    # nx does not divide the rows of a block, and the drawn bit patterns
    # sit near the end of the first
    nx = 7 * gr._READ_BLOCK // 192 // ny + 7
    bits = np.random.default_rng(seed).integers(
        0, 2 ** 64, 2 * nx * ny, dtype=np.uint64, endpoint=False)
    start = 2 * (gr._READ_BLOCK // 96) - len(drawn) // 2
    bits[start:start + len(drawn)] = drawn
    g = gr.FieldGrid(x0=x0, y0=-x0, dx=dx, dy=dx, nx=nx, ny=ny,
                     values=bits.view(complex).reshape(ny, nx),
                     mask=np.zeros((ny, nx), np.uint8))
    path = tmp_path_factory.mktemp("csv") / "bits.csv"
    gr.write_csv(g, path)
    assert path.stat().st_size > 3 * gr._READ_BLOCK
    want = _fields(path.read_text())
    back = gr.read_csv(path)
    assert (back.nx, back.ny, back.x0, back.y0) == (nx, ny, want[0, 0], want[0, 1])
    assert back.values.view(float).tobytes() == np.ascontiguousarray(want[:, 2:]).tobytes()
    # the writer spells every nan "nan", so -nan reads back as nan
    assert np.array_equal(np.isnan(back.values.view(float)),
                          np.isnan(g.values.view(float)))


def _near_midpoints(limit):
    """17-digit decimals D 10^q within ``limit`` ulp of the midpoint of
    two doubles: D/N is a convergent of 2^(e-1)/10^q (or an odd multiple
    of one), with N odd, so N 2^(e-1) is a midpoint."""
    found = []
    for q in range(-306, 275, 3):
        e = math.floor((q + 16) * math.log2(10)) - 52
        x = Fraction(2) ** (e - 1) / Fraction(10) ** q
        h0, h1, k0, k1 = 0, 1, 1, 0
        while k1 < 2 ** 54:
            a = math.floor(x)
            h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
            for m in range(1, min(2 ** 54 // k1, 64) + 1, 2):
                n, d = m * k1, m * h1
                if n >= 2 ** 53 and n % 2 and 10 ** 16 <= d < 10 ** 17:
                    gap = abs(d * Fraction(10) ** q - n * Fraction(2) ** (e - 1))
                    if 0 < gap < limit * Fraction(2) ** e:
                        found.append(f"{d // 10 ** 16}.{d % 10 ** 16:016d}e{q + 16:+03d}")
            if x == a:
                break
            x = 1 / (x - a)
    return found


def test_read_csv_rounds_near_midpoints_correctly(tmp_path):
    # near a midpoint the double-double product cannot tell which way to
    # round; without the midpoint window 34 of these misround
    near = _near_midpoints(1e-15)
    assert len(near) > 150
    path = tmp_path / "near.csv"
    text = "x,y,re,im\n" + "".join(f"{i},0,{v},-{v}\n" for i, v in enumerate(near))
    path.write_text(text)
    back = gr.read_csv(path)
    assert back.values.view(float).tobytes() == np.ascontiguousarray(
        _fields(text)[:, 2:]).tobytes()


# what the np.loadtxt reader accepted, and as what, and what it refused;
# each field sits in the re column of a one-row grid.  The writer's shape
# with one byte changed must go to float too.
ACCEPTED = ["0.0", "1", " 1.5 ", "+1.5", "1.", ".5", "1E5", "Infinity", "-nan",
            "-0.0", "1e-320", "1.0000000000000000e+400", "9.9999999999999999e-01",
            "-1.0000000000000000e-400", "1.2345678901234567e+000",
            "+1.0000000000000000e+00", "1.0000000000000000E+00",
            "9.9999999999999999e+307", "1.7976931348623157e+308",
            "1.7976931348623159e+308", "1.0000000000000000e-291",
            "0.0000000000000001e-291", "9.9999999999999999e-292",
            "2.2250738585072014e-308", "4.9406564584124654e-324"]
REFUSED = ["1_0", "0x10", "1d5", "", " ", "1.5 # note", "nan(1)",
           ":.0000000000000000e+00", "1;0000000000000000e+00",
           "1.000000:000000000e+00", "1.00000000000/0000e+00",
           "1.0000000000000000f+00", "1.0000000000000000e*00",
           "1.0000000000000000e+0:", "1.0000000000000000e+/0",
           "1.0000000000000000e+10:"]


@pytest.mark.parametrize("field", ACCEPTED)
def test_read_csv_reads_what_float_reads(tmp_path, field):
    path = tmp_path / "one.csv"
    path.write_text(f"x,y,re,im\n0,0,{field},0\n")
    got = gr.read_csv(path).values[0, 0].real
    assert np.array([got]).tobytes() == np.array([float(field)]).tobytes()


@pytest.mark.parametrize("field", REFUSED)
def test_read_csv_refuses_what_loadtxt_refused(tmp_path, field):
    path = tmp_path / "one.csv"
    path.write_text(f"x,y,re,im\n0,0,{field},0\n")
    with pytest.raises(ValueError, match="CSV field"):
        gr.read_csv(path)


def test_read_csv_line_ends(tmp_path):
    # CRLF rows and a missing final newline read as the plain file does;
    # a row with an empty field does not read
    path = tmp_path / "rows.csv"
    _write_rows(path, np.array([0.0, 0.5, 1.0]), np.array([-1.0, 2.0]))
    plain = path.read_bytes()
    want = gr.read_csv(path)
    for text in (plain.replace(b"\n", b"\r\n"), plain[:-1],
                 plain.replace(b"\n", b"\r\n")[:-2]):
        path.write_bytes(text)
        back = gr.read_csv(path)
        assert (back.nx, back.ny, back.x0, back.y0, back.dx, back.dy) == (
            want.nx, want.ny, want.x0, want.y0, want.dx, want.dy)
        assert back.values.tobytes() == want.values.tobytes()
    path.write_text("x,y,re,im\n1,,2,3\n")
    with pytest.raises(ValueError):
        gr.read_csv(path)


def test_read_csv_peak_memory_is_bounded(tmp_path):
    # rows are parsed a fixed number of bytes at a time: at 261^2 the
    # traced peak is the 2.2 MB of output and one block's temporaries
    n = 261
    rng = np.random.default_rng(9)
    g = gr.FieldGrid(x0=-3.0, y0=-3.0, dx=0.02, dy=0.02, nx=n, ny=n,
                     values=rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                     mask=np.zeros((n, n), np.uint8))
    path = tmp_path / "field.csv"
    gr.write_csv(g, path)
    gr.read_csv(path)                     # fill the power table first
    tracemalloc.start()
    try:
        back = gr.read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.values.tobytes() == g.values.tobytes()
    assert peak <= 4 * 2 ** 20


def _write_rows(path, xs, ys):
    values = np.zeros((len(ys), len(xs)), complex)
    path.write_text(_reference_csv(xs, ys, values))


def test_read_csv_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.csv"
    xs = 1e6 + 1e-3 * np.arange(101)
    ys = np.array([0.0, 0.5, 1.0])
    for text in ("x,y,re,im\n",
                 "x,y,re,im\n0,0,1\n1,0,1\n",
                 "x,y,re,im\n0,0,1,0,9\n1,0,1,0,9\n"):
        path.write_text(text)
        with pytest.raises(ValueError):
            gr.read_csv(path)
    off = xs.copy()
    off[37] += 0.01 * 1e-3           # one node off by 1% of a step
    layouts = [
        (off, ys),
        (xs[::-1], ys),              # reversed rows would read back flipped
        (xs, ys[::-1]),
        (np.array([0.0, 1.0, 3.0]), ys),
        (xs, np.array([0.0, 1.0, 3.0])),
        (np.array([0.0, np.inf]), ys),
        (np.array([np.nan, 1.0]), ys),
        (xs, np.array([np.nan, 0.5, 1.0])),
        (np.array([-1e308, 1e308]), ys[:1]),   # the span overflows
    ]
    for lx, ly in layouts:
        _write_rows(path, lx, ly)
        with pytest.raises(ValueError):
            gr.read_csv(path)
    _write_rows(path, xs, ys)
    good = path.read_text().splitlines(keepends=True)
    swapped = good[:103] + [good[104], good[103]] + good[105:]
    moved = list(good)               # one y of row 2 moves by 1 ulp
    moved[150] = moved[150].replace("5.0000000000000000e-01,",
                                    "5.0000000000000011e-01,")
    comment = good[:1] + ["# a comment\n"] + good[1:]
    trailing = list(good)
    trailing[50] = trailing[50].rstrip("\n") + " # a note\n"
    blank = good[:60] + ["\n"] + good[60:]
    for edited in (good[:-1], swapped, moved, comment, trailing, blank,
                   good + ["\n"]):
        path.write_text("".join(edited))
        with pytest.raises(ValueError):
            gr.read_csv(path)
    _write_rows(path, xs, ys)
    assert gr.read_csv(path).nx == 101


def test_read_csv_requires_header_and_rows(tmp_path):
    path = tmp_path / "bad.csv"
    row = "0.0,0.0,1.0,0.0\n"
    for text in ("a,b,c,d\n" + row, "x,y,re\n" + row, " x,y,re,im\n" + row,
                 row + row, "", "x,y,re,im", "x,y,re,im\n", "x,y,re,im\n\n"):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no numpy "no data" warning
            with pytest.raises(ValueError):
                gr.read_csv(path)
    path.write_text("x,y,re,im\n" + row)
    assert gr.read_csv(path).values[0, 0] == 1.0


def test_check_nodes_names_the_axis_whose_nodes_coincide():
    gr.check_nodes(-3.0, -3.0, 0.03, 0.03, 201, 201)
    gr.check_nodes(0.0, 0.0, 5e-324, 5e-324, 3, 3)      # subnormal, distinct
    for args, axis in (((1e17, 0.0, 1.0, 1.0, 5, 5), "x"),
                       ((-3.0, -3.0, 0.03, 1e-30, 5, 3), "y"),
                       ((-1.0, 0.0, 5e-324, 1.0, 5, 5), "x")):
        with pytest.raises(ValueError, match=f"^the {axis} nodes "):
            gr.check_nodes(*args)


def test_grid_validation():
    with pytest.raises(ValueError):
        gr.FieldGrid(x0=0, y0=0, dx=-0.1, dy=0.1, nx=3, ny=3,
                     values=np.zeros((3, 3), complex),
                     mask=np.zeros((3, 3), np.uint8))
    with pytest.raises(ValueError):
        gr.FieldGrid(x0=0, y0=0, dx=0.1, dy=0.1, nx=3, ny=3,
                     values=np.zeros((4, 3), complex),
                     mask=np.zeros((3, 3), np.uint8))
