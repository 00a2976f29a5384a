"""Grid container, node classification and the CSV exchange format."""

import numpy as np
import pytest

from edgewave import grid as gr


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


# values whose spelling a formatter change would alter; a 1x1 grid
# gets the last two
SPECIALS = [np.nan, 5e-324, 1e300, -1e-17, -np.inf, -0.0, np.inf]


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
    assert back.values.tobytes() == g.values.tobytes()


def test_read_csv_accepts_written_lattices(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "lattice.csv"
    cases = [(1e6, 1e-3, 101)] + [
        (rng.choice([-1, 1]) * 10 ** rng.uniform(-3, 7),
         10 ** rng.uniform(-4, 1), int(rng.integers(2, 300)))
        for _ in range(60)]
    for x0, dx, n in cases:
        g = gr.FieldGrid(x0=x0, y0=-x0, dx=dx, dy=dx / 3, nx=n, ny=2,
                         values=np.zeros((2, n), complex),
                         mask=np.zeros((2, n), np.uint8))
        gr.write_csv(g, path)
        back = gr.read_csv(path)
        assert (back.nx, back.ny, back.x0, back.y0) == (n, 2, g.x0, g.y0)
        assert back.dx == g.xs()[1] - g.xs()[0]


def _write_rows(path, xs, ys):
    values = np.zeros((len(ys), len(xs)), complex)
    path.write_text(_reference_csv(xs, ys, values))


@pytest.mark.filterwarnings("ignore:loadtxt")
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
    for edited in (good[:-1], swapped, moved):
        path.write_text("".join(edited))
        with pytest.raises(ValueError):
            gr.read_csv(path)
    _write_rows(path, xs, ys)
    assert gr.read_csv(path).nx == 101


def test_grid_validation():
    with pytest.raises(ValueError):
        gr.FieldGrid(x0=0, y0=0, dx=-0.1, dy=0.1, nx=3, ny=3,
                     values=np.zeros((3, 3), complex),
                     mask=np.zeros((3, 3), np.uint8))
    with pytest.raises(ValueError):
        gr.FieldGrid(x0=0, y0=0, dx=0.1, dy=0.1, nx=3, ny=3,
                     values=np.zeros((4, 3), complex),
                     mask=np.zeros((3, 3), np.uint8))
