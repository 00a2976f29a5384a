"""Rectangular complex-field grids and their CSV exchange format.

The grid is the common currency between the analytic field evaluators,
the stencil-residual checks, and the finite-difference solver.  Values
are stored row-major by y then x (``values[j, i]`` sits at
``(x0 + i*dx, y0 + j*dy)``), which matches the CSV ordering.

:func:`read_csv` accepts only what :func:`write_csv` can have written:
the exact header ``x,y,re,im``, then at least one row of four numbers,
the rows repeating one x axis at a constant y, with finite, strictly
increasing and uniformly spaced x and y.  Anything else raises
``ValueError``; that includes blank lines, ``#`` comments and fields
that Python's ``float`` refuses or that hold ``_``.  A CR before a
newline is whitespace, so CRLF files read, and the last newline may be
missing.  Every field reads as the double ``float(field)`` returns:
those in the writer's spelling by array arithmetic (an exact scaling by
double-double powers of ten, see the comment above :func:`_tabulate_power`),
the rest, and products within 1e-9 ulp of a midpoint between two doubles,
by ``float`` itself.  Rows are parsed a fixed number of bytes at a time
into the output, so the traced peak, about 3.2 MB at 261^2, is the
output's 32 bytes per node and one block's temporaries.

:func:`write_csv` writes every number as ``f"{v:.16e}"`` spells it, byte
for byte, but without formatting each value in Python: the 17 digits
come from an exact scaling by double-double powers of ten (see the
comment above :func:`_spell_block`), and only nan, inf and products
within 1e-6 of a decimal tie are spelled by Python.  It works through a
fixed number of values at a time, so its traced peak, about 0.6 MB at
261^2, is mostly one block's temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# node classification tags
INTERIOR = 0
EDGE = 1
DELTA_LINE = 2
OUTER = 3

_ALIGN_TOL = 1e-12

_CSV_HEADER = "x,y,re,im"


@dataclass(frozen=True)
class FieldGrid:
    """Complex field samples on a uniform rectangular lattice.

    Attributes
    ----------
    x0, y0 : float
        Coordinates of the first node (south-west corner).
    dx, dy : float
        Node spacings, both > 0.
    nx, ny : int
        Node counts along x and y.
    values : ndarray, shape (ny, nx), complex
    mask : ndarray, shape (ny, nx), uint8
        Per-node tag: INTERIOR, EDGE (on the barrier ray), DELTA_LINE
        (on the waveguide axis x = 0) or OUTER (outermost frame).
    """

    x0: float
    y0: float
    dx: float
    dy: float
    nx: int
    ny: int
    values: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError("grid spacings must be positive")
        if self.values.shape != (self.ny, self.nx):
            raise ValueError("values must have shape (ny, nx)")
        if self.mask.shape != (self.ny, self.nx):
            raise ValueError("mask must have shape (ny, nx)")

    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def ys(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def meshes(self):
        """Return (X, Y) coordinate arrays of shape (ny, nx)."""
        return np.meshgrid(self.xs(), self.ys())


def aligned_index(value: float, origin: float, step: float) -> int:
    """Index of the grid line passing through ``value``, or raise.

    The caller guarantees alignment by construction; a residual larger
    than a few ulp means the requested feature (barrier ray, waveguide
    axis) would fall between grid lines, which the solver cannot honor.
    """
    t = (value - origin) / step
    i = int(round(t))
    if abs(t - i) > _ALIGN_TOL * max(1.0, abs(t)) + _ALIGN_TOL:
        raise ValueError(
            f"coordinate {value!r} is not grid-aligned (origin {origin!r}, step {step!r})"
        )
    return i


def build_mask(x0, y0, dx, dy, nx, ny, edge_a=None, delta_line=False) -> np.ndarray:
    """Classify grid nodes.

    ``edge_a`` is the tip abscissa of the barrier ray {y = 0, x >= a};
    ``None`` means no barrier.  ``delta_line`` marks the x = 0 column.
    The outermost frame is tagged OUTER; EDGE wins over DELTA_LINE at
    the crossing node.
    """
    mask = np.full((ny, nx), INTERIOR, dtype=np.uint8)
    mask[0, :] = OUTER
    mask[-1, :] = OUTER
    mask[:, 0] = OUTER
    mask[:, -1] = OUTER
    xs = x0 + dx * np.arange(nx)
    ys = y0 + dy * np.arange(ny)
    if delta_line and xs[0] < 0.0 < xs[-1]:
        i0 = aligned_index(0.0, x0, dx)
        col = mask[:, i0]
        col[col == INTERIOR] = DELTA_LINE
    if edge_a is not None and ys[0] <= 0.0 <= ys[-1]:
        j0 = aligned_index(0.0, y0, dy)
        # a tip left of the grid means the ray covers the whole row
        ia = 0 if edge_a <= xs[0] else aligned_index(edge_a, x0, dx)
        row = mask[j0, ia:]
        row[row != OUTER] = EDGE
    return mask


def tabulate(values, x0, y0, dx, dy, nx, ny, edge_a, delta_line,
             dirichlet) -> FieldGrid:
    """Sample the field ``values(X, Y)`` on the lattice build_mask tags;
    with ``dirichlet`` the barrier nodes are exact zeros, the field there."""
    mask = build_mask(x0, y0, dx, dy, nx, ny, edge_a, delta_line)
    X, Y = np.meshgrid(x0 + dx * np.arange(nx), y0 + dy * np.arange(ny))
    vals = values(X, Y)
    if dirichlet:
        vals[mask == EDGE] = 0.0
    return FieldGrid(x0=x0, y0=y0, dx=dx, dy=dy, nx=nx, ny=ny,
                     values=vals, mask=mask)


def dilate(mask: np.ndarray, cells: int, square: bool) -> np.ndarray:
    """Boolean mask grown by ``cells`` nodes; nothing enters from outside.

    ``square`` grows by the (2 cells + 1)^2 square, else by ``cells``
    steps of the five-point cross (city-block distance <= cells).  The
    result equals ``scipy.ndimage.binary_dilation`` with that structure,
    resp. the default cross and ``iterations=cells``.
    """
    def spread(m, axis, reach):        # m OR its shifts by 1..reach
        out = m.copy()
        a, b = np.moveaxis(out, axis, 0), np.moveaxis(m, axis, 0)
        for s in range(1, reach + 1):
            a[s:] |= b[:-s]
            a[:-s] |= b[s:]
        return out

    out = np.asarray(mask, dtype=bool)
    if square:
        return spread(spread(out, 0, cells), 1, cells)
    for _ in range(cells):
        out = spread(out, 0, 1) | spread(out, 1, 1)
    return out


# --- the CSV number format -------------------------------------------------
#
# Every number is spelled as f"{v:.16e}" spells it, but for a whole array
# at once.  A finite nonzero |v| = f 2^E with f in [0.5, 1) (np.frexp).
# d(E), the largest d with 10^d <= 2^(E-1), is the decade of |v| or one
# below it, so with k = 16 - d (15 - d when |v| >= 10^(d+1)) the product
# v 10^k = f T lies in [1e16, 1e17), T = 10^k 2^E.  T is kept as a
# double-double hi + lo, exact to about 2^-106, and Dekker's error-free
# product (Numer. Math. 18, 1971) splits f hi into p + err exactly, so
# p + err + f lo is the product to about 1e-14.  p is an even integer
# (>= 2^53), so rounding err + f lo half to even rounds the whole product
# half to even: that is the 17-digit integer.  When lo = 0 the product and
# its rounding are exact, ties included; otherwise a product within 1e-6
# of a tie, and nan and inf, are spelled by Python itself.
#
# A number is spelled into 7 uint32 words (28 bytes, ASCII in memory
# order): [0, sign or 0, first digit, "."], four words of 4 digits,
# ["e", exponent sign, 2 digits], [third exponent digit or 0, ",", 0, 0].
# The 0 bytes are dropped when a block of lines is written.

_WORDS = 7
_SEPARATOR = 25        # byte offset of the "," in a number's 28 bytes
_SPELL_BLOCK = 2048    # numbers spelled per block: bounds the writer's peak
_TIE_WINDOW = 1e-6
_E_OFFSET = 1074       # frexp exponents of nonzero doubles run from -1073 to 1024
_N_EXPONENTS = 1024 + _E_OFFSET + 1
_SPLIT = 134217729.0   # 2^27 + 1, Veltkamp's splitter

# tabulated on first use of each binary exponent (nan until then): the
# decade d(E) and the least double >= 10^(d+1); hi, hi's high and low
# halves, and lo of T for k = 16 - d in column 2 (E + offset) and for
# k = 15 - d in the next column
_DECADE = np.zeros(_N_EXPONENTS, np.int64)
_UPPER = np.full(_N_EXPONENTS, np.nan)
_SCALE = np.zeros((4, 2 * _N_EXPONENTS))


def _ascii_words(words) -> np.ndarray:
    """One uint32 per 4-character word, its bytes in memory order."""
    return np.frombuffer("".join(words).encode(), np.uint32)


# "0000" to "9999" by uint16 arithmetic: faster at import than f-strings,
# and small temporaries, which leave no megabyte of heap behind
_QUADS = (np.arange(10000, dtype=np.uint16)[:, None]
          // np.array([1000, 100, 10, 1], np.uint16) % 10
          + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# [0, sign, lead digit, "."] at index lead + 10 * (sign is "-")
_HEADS = _ascii_words(f"\0{sign}{lead}." for sign in "\0-" for lead in range(10))
# the exponent's two words at index exponent + 324
_EXP_HEADS = _ascii_words(f"e{e:+03d}"[:4] for e in range(-324, 309))
_EXP_TAILS = _ascii_words(f"e{e:+03d}"[4:].ljust(1, "\0") + ",\0\0"
                          for e in range(-324, 309))


def _ratio(k: int, e: int) -> tuple[int, int]:
    """10^k 2^e as (numerator, denominator) of Python ints."""
    return 10 ** max(k, 0) << max(e, 0), 10 ** max(-k, 0) << max(-e, 0)


def _split(x):
    """Veltkamp's split of x into two halves of at most 26 bits each."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _double_double(num: int, den: int) -> tuple[float, float]:
    """num / den as hi + lo: Python's int / int is correctly rounded, so
    hi is the quotient rounded and lo the remainder rounded; lo is 0
    exactly when hi is exact."""
    hi = num / den
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _tabulate(e: int) -> None:
    """Fill the scale table's entries for frexp exponent ``e``."""
    def at_least(d):                      # 10^d <= 2^(e-1)
        num, den = _ratio(-d, e - 1)
        return num >= den

    d = math.floor((e - 1) * math.log10(2.0))
    while at_least(d + 1):
        d += 1
    while not at_least(d):
        d -= 1
    num, den = _ratio(d + 1, 0)
    upper = num / den
    a, b = upper.as_integer_ratio()
    if a * den < num * b:
        upper = math.nextafter(upper, math.inf)
    i = e + _E_OFFSET
    for col, k in ((2 * i, 16 - d), (2 * i + 1, 15 - d)):
        hi, lo = _double_double(*_ratio(k, e))
        _SCALE[:, col] = (hi, *_split(hi), lo)
    _DECADE[i], _UPPER[i] = d, upper


def _spell_block(v: np.ndarray) -> np.ndarray:
    """``(_WORDS, n)`` uint32: column i spells ``f"{v[i]:.16e}"`` and a
    comma, with 0 bytes to pad, for a 1-D float array ``v``."""
    n = v.size
    finite = np.isfinite(v)
    a = np.where(finite, np.abs(v), 0.0)
    f, e = np.frexp(a)
    e += _E_OFFSET
    bound = _UPPER[e]
    new = np.isnan(bound)
    if new.any():
        for ei in np.unique(e[new]).tolist():
            _tabulate(ei - _E_OFFSET)
        bound = _UPPER[e]
    upper = a >= bound
    hi, hh, hl, lo = np.take(_SCALE, 2 * e + upper, axis=1)
    p = f * hi
    fh, fl = _split(f)
    r = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl + f * lo
    rounded = np.rint(r)
    digits = p.astype(np.int64) + rounded.astype(np.int64)
    exp10 = _DECADE[e] + upper
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    exp10 += carry
    exp10[a == 0.0] = 0
    exp10 += 324

    out = np.empty((_WORDS, n), np.uint32)
    lead = digits // 10 ** 16
    quads = out[1:5]
    quads[0] = digits // 10 ** 12 - lead * 10 ** 4
    rest = digits % 10 ** 12                       # the last 12 digits
    quads[1] = rest // 10 ** 8
    rest -= quads[1] * np.int64(10 ** 8)
    quads[2] = rest // 10 ** 4
    quads[3] = rest % 10 ** 4
    np.take(_QUADS, quads, out=quads)
    lead += 10 * np.signbit(v)
    np.take(_HEADS, lead, out=out[0])
    np.take(_EXP_HEADS, exp10, out=out[5])
    np.take(_EXP_TAILS, exp10, out=out[6])

    # products within the window of a tie, where lo made them inexact
    slow = np.abs(r - rounded) > 0.5 - _TIE_WINDOW
    slow &= lo != 0.0
    slow |= ~finite
    for i in np.flatnonzero(slow).tolist():
        word = f"{float(v[i]):.16e}".encode().ljust(_SEPARATOR, b"\0")
        out[:, i] = np.frombuffer(word + b",\0\0", np.uint32)
    return out


def _spell(v: np.ndarray) -> np.ndarray:
    """``(n, _WORDS)`` uint32: :func:`_spell_block` over any 1-D array,
    block by block."""
    out = np.empty((v.size, _WORDS), np.uint32)
    for s in range(0, v.size, _SPELL_BLOCK):
        out[s:s + _SPELL_BLOCK] = _spell_block(v[s:s + _SPELL_BLOCK]).T
    return out


def write_csv(grid: FieldGrid, path) -> None:
    """Write ``x,y,re,im`` rows, row-major by y then x.

    The bytes are a fixed format: the header ``x,y,re,im``, then one
    line per node holding all four numbers as ``"%.16e"`` (17
    significant digits, so doubles round-trip exactly; -0.0, ``inf``,
    ``-inf`` and ``nan`` spelled as Python formats them), each line
    ending in ``\n``.  The numbers are spelled by array arithmetic
    (exact scaling by double-double powers of ten, see the comment
    above :func:`_spell_block`), x and y once per axis, into a
    fixed-width buffer per block of nodes whose padding is dropped
    before one write per block.  A block holds a fixed number of values,
    so beyond 28 bytes per spelled x and y the traced peak does not grow
    with the grid: about 0.6 MB at 261^2.
    """
    xs, ys = _spell(grid.xs()), _spell(grid.ys())
    nodes = _SPELL_BLOCK // 2
    with open(path, "wb") as fh:
        fh.write((_CSV_HEADER + "\n").encode())
        for s in range(0, grid.values.size, nodes):
            block = grid.values.flat[s:s + nodes]
            pairs = np.empty((block.size, 2))
            pairs[:, 0] = block.real
            pairs[:, 1] = block.imag
            j, i = np.divmod(np.arange(s, s + block.size), grid.nx)
            line = np.empty((block.size, 4, _WORDS), np.uint32)
            line[:, 0] = xs[i]
            line[:, 1] = ys[j]
            line[:, 2:] = _spell_block(pairs.reshape(-1)).T.reshape(-1, 2, _WORDS)
            line.view(np.uint8)[:, 3, _SEPARATOR] = ord("\n")
            fh.write(line.tobytes().translate(None, b"\0"))


# --- reading it back -------------------------------------------------------
#
# A field in the writer's spelling, [-]d.dddddddddddddddde(+|-)dd[d], is
# read by array arithmetic; every other field by Python's float (a fast
# lane and a fallback, as in Lemire, Softw. Pract. Exp. 51, 2021).  Its
# 17 digits are an integer D < 10^17 < 2^57, and q is its exponent less
# 16.  The 32 bytes from 6 before the lead digit are four little-endian
# uint64 words: [.., lead digit, "."], two words of 8 digits, turned into
# integers by SWAR multiplies, and ["e", sign, exponent digits, ..].
# 10^q 2^-b, b = floor(q log2 10), is kept as a double-double hi + lo
# exact to about 2^-106, tabulated on first use of each q.  D is split
# exactly as dh + dl (dh = D rounded, |dl| <= 8), Dekker's error-free
# product turns dh hi into p + err, and c = err + dh lo + dl hi makes
# p + c the product to about 2^-100 of it.  r = p + c is rounded once,
# and the remainder p + c - r is exact (Fast2Sum, as p >> c), so r is
# D 10^q 2^-b correctly rounded unless the remainder lies within a small
# window of half the gap to r's neighbour on its side (the test of
# Clinger, PLDI 1990).  That gap is the ulp of r - |remainder|, whose
# binade is the neighbour's (above a power of two, the one below: a
# smaller gap, so a safe test).  For -307 <= q <= 291 every nonzero
# D 10^q is a normal double, so scaling by 2^b is exact.  Any other
# spelling or exponent, nan and inf, and near-midpoints are read by
# float, which rounds correctly.

_READ_BLOCK = 1 << 17     # bytes of rows parsed per block: bounds the reader's peak
_WINDOW = 32
_PAD = bytes(_WINDOW)     # around a block, so every field has a whole window
_ROW = np.frombuffer(b",,,\n", np.uint8)
_MIDPOINT_WINDOW = 1e-9
# the q for which every D 10^q, 1 <= D < 10^17, is a normal double
_Q_MIN, _Q_MAX = -307, 291
_EXPONENT_BITS = 0x7FF0000000000000
# tabulated on first use of each q (nan until then): hi, hi's high and
# low halves, lo and 2^b of 10^q = (hi + lo) 2^b in column q - _Q_MIN
_POWERS = np.full((5, _Q_MAX - _Q_MIN + 1), np.nan)

_FOUR_NUMBERS = "CSV rows must hold four numbers: x,y,re,im"


def _tabulate_power(q: int) -> None:
    """Fill the power table's column for 10^q."""
    b = math.floor(q * math.log2(10.0))
    hi, lo = _double_double(*_ratio(q, -b))
    _POWERS[:, q - _Q_MIN] = (hi, *_split(hi), lo, math.ldexp(1.0, b))


def _eight_digits(w: np.ndarray):
    """The integers that uint64 words of 8 ASCII bytes (in memory order)
    spell, and whether all 8 bytes are digits."""
    ok = ((w & 0xF0F0F0F0F0F0F0F0)
          | (((w + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0) >> 4)
          ) == 0x3333333333333333
    w = (w & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
    w = (w & 0x00FF00FF00FF00FF) * 6553601 >> 16
    return (w & 0x0000FFFF0000FFFF) * 42949672960001 >> 32, ok


def _read_spelling(u: np.ndarray, lead: np.ndarray, size: np.ndarray):
    """``(D, q - _Q_MIN, ok)`` for the fields of ``size`` bytes from the
    lead digits ``lead`` in ``u``: ok where a field has the writer's
    spelling and _Q_MIN <= q <= _Q_MAX, D = 0 and column 0 where not."""
    windows = np.ndarray((u.size - _WINDOW + 1,), f"V{_WINDOW}", u, strides=(1,))
    gathered = windows[lead - 6]
    words = gathered.view("<u8").reshape(-1, 4)
    first = (words[:, 0] >> 48) - 0x2E30          # [lead digit, "."] less "0."
    high, ok = _eight_digits(words[:, 1])
    low, ok_low = _eight_digits(words[:, 2])
    ok &= ok_low
    ok &= first < 10
    mark = words[:, 3] & 0xFFFF
    exp_neg = mark == 0x2D65                      # "e-"
    ok &= exp_neg | (mark == 0x2B65)              # or "e+"
    e1, e2, e3 = (gathered.view(np.uint8).reshape(-1, _WINDOW)[:, 26:29]
                  - np.uint8(ord("0"))).T
    three = size == 23                            # a three-digit exponent
    ok &= (e1 < 10) & (e2 < 10)
    ok &= np.where(three, e3 < 10, size == 22)
    q = e1 * np.int64(10) + e2
    q += three * (9 * q + e3)
    q *= 1 - 2 * exp_neg
    q -= 16 + _Q_MIN
    ok &= (q >= 0) & (q <= _Q_MAX - _Q_MIN)
    q *= ok
    digits = first * 10 ** 16 + high * 10 ** 8 + low
    digits *= ok
    return digits.view(np.int64), q, ok


def _times_power(digits: np.ndarray, powers: np.ndarray):
    """``(D 10^q rounded, whether it may misround)`` for ``digits`` D and
    the power table's columns for their q (see the comment above)."""
    hi, hh, hl, lo, scale = powers
    dh = digits.astype(float)
    p = dh * hi
    c = (digits - dh.astype(np.int64)) * hi       # dl hi, dl = D - dh exactly
    c += dh * lo
    sh, sl = _split(dh)
    err = sh * hh                                 # Dekker: dh hi - p, exactly
    err -= p
    err += sh * hl
    err += sl * hh
    err += sl * hl
    c += err
    r = p + c
    rest = c - (r - p)                            # p + c = r + rest exactly
    np.abs(rest, out=rest)
    unit = ((r - rest).view(np.int64) & _EXPONENT_BITS).view(float)
    slow = rest > (0.5 - _MIDPOINT_WINDOW) * 2.0 ** -52 * unit
    r *= scale
    return r, slow


def _float_field(text: bytes) -> float:
    """``float(text)``, but refusing digit separators, with a
    ``ValueError`` naming the field."""
    if b"_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise ValueError(f"CSV field {text.decode(errors='replace')!r} is not a number")


def _parse_fields(u: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``float(u[s:e])`` for the fields from ``starts`` to ``ends`` in the
    padded bytes ``u``, the writer's spelling read by arithmetic."""
    neg = u[starts] == ord("-")
    lead = starts + neg
    digits, q, ok = _read_spelling(u, lead, ends - lead)
    del lead
    powers = np.take(_POWERS, q, axis=1)
    new = ok & np.isnan(powers[0])
    if new.any():
        for qi in np.unique(q[new]).tolist():
            _tabulate_power(qi + _Q_MIN)
        powers = np.take(_POWERS, q, axis=1)
    out, slow = _times_power(digits, powers)
    del powers
    slow |= ~ok
    np.negative(out, out=out, where=neg)
    for i in np.flatnonzero(slow).tolist():
        out[i] = _float_field(u[starts[i]:ends[i]].tobytes())
    return out


def _parse_rows(block: bytes) -> np.ndarray:
    """``(rows, 4)`` doubles of the newline-ended rows in ``block``, with
    ``_PAD`` around them; each row must be three commas, then a newline."""
    u = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero((u == ord(",")) | (u == ord("\n")))
    if ends.size % 4 or not (u[ends].reshape(-1, 4) == _ROW).all():
        raise ValueError(_FOUR_NUMBERS)
    starts = np.empty_like(ends)
    starts[0] = len(_PAD)
    np.add(ends[:-1], 1, out=starts[1:])
    return _parse_fields(u, starts, ends).reshape(-1, 4)


def _row_blocks(fh):
    """The rest of ``fh`` in blocks of whole rows, about ``_READ_BLOCK``
    bytes each, with ``_PAD`` around; a last row gets its newline."""
    rest = b""
    while chunk := fh.read(_READ_BLOCK):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            rest += chunk
            continue
        with memoryview(chunk) as view:
            block = b"".join((_PAD, rest, view[:cut], _PAD))
        rest = chunk[cut:]
        del chunk
        yield block
    if rest:
        yield b"".join((_PAD, rest, b"\n", _PAD))


def _check_axis(v: np.ndarray, name: str) -> None:
    """Raise unless ``v`` is finite, strictly increasing and uniformly spaced.

    Nodes are compared with the chord through the end nodes.  The
    tolerance, 16 eps * max|v|, covers the rounding of ``x0 + dx*i`` in
    the writer and of the chord (about 7 eps * max|v| at worst).
    """
    if not np.isfinite(v).all():
        raise ValueError(f"CSV {name} values must be finite")
    if v.size < 2:
        return
    if not (np.diff(v) > 0).all():
        raise ValueError(f"CSV {name} values are not strictly increasing")
    chord = v[0] + (v[-1] - v[0]) * (np.arange(v.size) / (v.size - 1))
    if np.abs(v - chord).max() > 16 * np.finfo(float).eps * np.abs(v).max():
        raise ValueError(f"CSV {name} values are not uniformly spaced")


def read_csv(path) -> FieldGrid:
    """Reconstruct a FieldGrid from the CSV written by :func:`write_csv`.

    Raises ``ValueError`` unless the first line is the header
    ``x,y,re,im`` and the rows below it describe a full uniform grid in
    the writer's order: every row three commas and a newline (the last
    newline may be missing, a CR before it is whitespace), with no blank
    or comment lines.  Each field reads as the double ``float(field)``
    returns; a field ``float`` refuses, or one holding ``_``, raises a
    ``ValueError`` naming it.  Fields in the writer's ``"%.16e"``
    spelling are read by array arithmetic (see the comment above
    :func:`_tabulate_power`), all others by ``float``.  The file is read
    twice, once to count its rows and once in blocks of a fixed
    ``_READ_BLOCK`` bytes, whose numbers go straight into the output;
    the traced peak is the output's 32 bytes per node plus one block's
    temporaries, about 3.2 MB at 261^2.

    The mask is not stored in the CSV; it is rebuilt as all-INTERIOR
    with the OUTER frame, which is enough for round-trip checks.
    """
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\n").removesuffix(b"\r") != _CSV_HEADER.encode():
            raise ValueError(f"CSV must start with the header {_CSV_HEADER}")
        body = fh.tell()
        if not fh.readline().strip():
            raise ValueError("CSV holds no rows below its header")
        fh.seek(body)
        rows, last = 0, b""
        while chunk := fh.read(_READ_BLOCK):
            rows += np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n"))
            last = chunk[-1:]
        rows += last != b"\n"
        fh.seek(body)
        coords = np.empty((rows, 2))
        values = np.empty(rows, complex)
        pairs = values.view(float).reshape(rows, 2)
        done = 0
        for block in _row_blocks(fh):
            fields = _parse_rows(block)
            coords[done:done + len(fields)] = fields[:, :2]
            pairs[done:done + len(fields)] = fields[:, 2:]
            done += len(fields)
    # nx is the first run of equal y (a nan y0 gives nx = 1, caught below)
    moved = coords[1:, 1] != coords[0, 1]
    nx = int(moved.argmax()) + 1 if moved.any() else rows
    ny, rest = divmod(rows, nx)
    if rest:
        raise ValueError("CSV does not describe a full rectangular grid")
    X = coords[:, 0].reshape(ny, nx)
    Y = coords[:, 1].reshape(ny, nx)
    xs, ys = X[0], Y[:, 0]
    if not ((X == xs).all() and (Y == ys[:, None]).all()):
        raise ValueError("CSV rows must repeat one x axis at constant y")
    _check_axis(xs, "x")
    _check_axis(ys, "y")
    dx = xs[1] - xs[0] if nx > 1 else 1.0
    dy = ys[1] - ys[0] if ny > 1 else 1.0
    mask = build_mask(xs[0], ys[0], dx, dy, nx, ny)
    return FieldGrid(
        x0=float(xs[0]), y0=float(ys[0]), dx=float(dx), dy=float(dy),
        nx=nx, ny=ny, values=values.reshape(ny, nx), mask=mask,
    )
