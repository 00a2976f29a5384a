"""Property tests of erf, the delta-well flux and the CSV round trip.

Derandomized: hypothesis draws the same examples on every run, so the
suite stays deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewave import delta_1d, grid, specfun

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=50)

# |Re z|, |Im z| <= 6 keeps Re(z^2) >= -36, far inside the range erf_cx
# evaluates without overflow
parts = st.floats(-6.0, 6.0)
finite = st.floats(allow_nan=False, allow_infinity=False)


def _bits(v) -> bytes:
    return np.complex128(v).tobytes()


@PROPERTY
@given(x=parts, y=parts)
def test_erf_is_odd_and_conjugate_symmetric_bit_for_bit(x, y):
    z = complex(x, y)
    w = specfun.erf_cx(z)
    assert _bits(specfun.erf_cx(-z)) == _bits(-w)
    assert _bits(specfun.erf_cx(z.conjugate())) == _bits(np.conj(w))


@PROPERTY
@given(alpha=st.floats(0.01, 100.0), ratio=st.floats(1e-3, 1e3))
def test_flux_is_conserved(alpha, ratio):
    co = delta_1d.scattering_coeffs(delta_1d.DeltaWell(alpha=alpha),
                                    ratio * alpha)
    assert abs(abs(co.A) ** 2 + abs(co.B) ** 2 - 1.0) <= 1e-13


@PROPERTY
@given(nx=st.integers(1, 6), ny=st.integers(1, 6),
       x0=st.floats(-1e3, 1e3), y0=st.floats(-1e3, 1e3),
       dx=st.floats(1e-3, 10.0), dy=st.floats(1e-3, 10.0),
       data=st.data())
def test_csv_round_trip_is_bit_exact(tmp_path_factory, nx, ny, x0, y0, dx,
                                     dy, data):
    re = data.draw(st.lists(finite, min_size=nx * ny, max_size=nx * ny))
    im = data.draw(st.lists(finite, min_size=nx * ny, max_size=nx * ny))
    values = (np.array(re) + 1j * np.array(im)).reshape(ny, nx)
    g = grid.FieldGrid(x0=x0, y0=y0, dx=dx, dy=dy, nx=nx, ny=ny,
                       values=values,
                       mask=grid.build_mask(x0, y0, dx, dy, nx, ny))
    path = tmp_path_factory.mktemp("csv") / "grid.csv"
    grid.write_csv(g, path)
    back = grid.read_csv(path)
    assert (back.nx, back.ny) == (nx, ny)
    assert back.values.tobytes() == values.tobytes()
    assert (back.x0, back.y0) == (x0, y0)
    # the rebuilt spacing reproduces every written node
    assert back.xs().tobytes() == g.xs().tobytes()
    assert back.ys().tobytes() == g.ys().tobytes()
