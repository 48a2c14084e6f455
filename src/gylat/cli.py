"""Command-line front end: determinants, spectra, sums, vacuum energies,
continuum sweeps.

Output is byte-deterministic for a fixed invocation: field order is fixed
(documented in docs/cli_schema.md, schema version 1) and floats are
rendered with 17 significant digits.  CSV output is the flattened JSON.

Output is written to stdout as it is rendered, in 64 KiB batches, with the
bytes of rendering it whole.  Lists of Python floats take one ``%`` format;
float64 arrays (the eigenvalue lists and the eigenfunction table) are
formatted about 16k floats at a time with the bytes of "%.17g"
(:func:`_float_blocks`), in numpy where the floats of a block are all below
ten (the eigenfunction table, the dimensionless eigenvalues), so
``spectrum --eigenfunctions`` peaks at about the nu x nu table plus the two
pivot tables of :func:`transfer.eigenfunctions`.

Exit codes: 0 ok, 2 configuration error, 3 numerical-consistency failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from fractions import Fraction

from . import chebyshev as cheb
from .closedform import (
    MassParam,
    continuum_limit_targets,
    continuum_scaling_exponent,
    free_determinant,
)
from .core import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    ROBIN,
    TWISTED,
    BoundaryCondition,
    LatticeSpec,
    LogDet,
    Potential,
    _NUMPY_SITES,
    load_potential,
)
from .spectrum import (CONSISTENCY_RTOL, ZERO_MODE_MESSAGE, _exact_newton_sums, _float_newton_sums,
                       cosecant_sum, oracle_spectrum, robin_cosec_sum)
from .transfer import (_h_power, _lead_and_degree, _nonzero_coefficient, _taylor_at_zero, _terminal,
                       determinant, eigenfunctions)
from .vacuum import _admissible_lattice, extract_constant, free_energy_closed, vacuum_energy

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSISTENCY = 3


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Deterministic rendering
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def _float_text(xs, sep: str) -> str:
    """A list of ``float`` items by one ``%`` format over the whole list.

    "%.17g" gives the bytes of :func:`_fmt_float` for every finite float, and
    a list holding NaN or an infinity falls back to it per item.
    """
    text = sep.join(["%.17g"] * len(xs)) % tuple(xs)
    if "n" in text:  # only "inf" and "nan" put an "n" in %g output
        text = sep.join(map(_fmt_float, xs))
    return text


_BLOCK = 1 << 14  # floats per pass of _float_blocks
_E0 = 325  # decimal exponent E sits at index E + _E0 of the per-exponent tables; finite floats
# have E in -324..308
_TIE = 0.5 - 2.0 ** -30  # |y - N| beyond this is too near a tie for y's error of 2^-46
_SMALL = 200  # blocks of fewer floats take one "%" format per row, about 0.45 us a float against
# 80-90 us for numpy's path at 100-250 floats


@functools.cache
def _tables():
    """The tables of :func:`_float_blocks`: four digits as ASCII bytes (also shifted to the
    high half, and with their trailing zeros NUL), and the head word per exponent, sign and
    first digit."""
    import numpy as np
    u = np.uint64
    v = np.arange(10000)
    digits = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10]).astype(u) + u(48)
    kept = np.logical_or.accumulate(digits[::-1] != 48)[::-1]  # the digits before trailing zeros
    ascii4, stripped = (d[0] | d[1] << u(8) | d[2] << u(16) | d[3] << u(24) for d in (digits, digits * kept))
    # the head, right-aligned to byte 7, at ((E + _E0) * 2 + negative) * 10 + d0: "-d." for the
    # exponent form and E = 0, and "-0.d" to "-0.000d" for E = -1..-4
    E = np.arange(_E0 + 310) - _E0
    small = (E < 0) & (E >= -4)
    z = np.where(small, -E - 1, 0)  # zeros after "0."
    fixed = np.where(small, 46 << 8 * (6 - z) | 48 << 8 * (5 - z) | 0x303030 >> 8 * (3 - z) << 8 * (7 - z),
                     46 << 56).astype(u)
    sign = (u(45) << np.where(small, 4 - z, 5).astype(u) * u(8))[:, None] * np.arange(2, dtype=u)
    d0 = (np.arange(10, dtype=u) + u(48)) << np.where(small, 56, 48).astype(u)[:, None]
    head = fixed[:, None, None] | sign[:, :, None] | d0[:, None, :]
    return ascii4, ascii4 << u(32), stripped << u(32), head.reshape(-1)


@functools.cache
def _powers():
    """Rows 2^s, hi and lo at index E + _E0, with 10^(16 - E) = (hi + lo) 2^s; NaN until
    :func:`_build_powers` fills the entry."""
    import numpy as np
    return np.full((3, _E0 + 310), np.nan)


def _build_powers(lo: int, hi: int) -> None:
    """Fill the entries lo..hi of :func:`_powers` that are still NaN, from exact integers."""
    scale, mh, ml = _powers()
    for i in range(lo, hi + 1):
        if math.isnan(scale[i]):
            k = 16 - (i - _E0)
            s = min(math.floor(k * math.log2(10)), 1000)  # 2^s and hi stay finite
            num, den = 10 ** max(k, 0) << max(-s, 0), 10 ** max(-k, 0) << max(s, 0)
            h = num / den  # correctly rounded
            n, d = h.as_integer_ratio()
            scale[i], mh[i], ml[i] = math.ldexp(1.0, s), h, (num * d - n * den) / (den * d)


@functools.cache
def _tail(s: str):
    """Per exponent E, %g's exponent suffix ("" for -4 <= E < 17) and then s, as one word."""
    import numpy as np
    text = [(b"" if -4 <= E < 17 else b"e%+03d" % E) + s.encode() for E in range(-_E0, 310)]
    return np.array([int.from_bytes(t, "little") for t in text], dtype=np.uint64)


def _exponents(block, f):
    """E = floor(log10 |x|) of the floats x of ``block``, with x, |x| and E in f[0], f[1], f[5]."""
    import numpy as np
    np.copyto(f[0].reshape(block.shape), block)
    np.abs(f[0], out=f[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.floor(np.log10(f[1], out=f[5]), out=f[5])


def _float_blocks(a, sep: str, open_: str, close: str):
    """The text of ``sep.join(open_ + sep.join("%.17g" % x for x in row) + close for row
    in a)`` for a 2-D float64 array, in pieces of about _BLOCK floats; a non-finite x reads
    as :func:`_fmt_float` has it.

    Each x is scaled to y = |x| 10^(16 - E), E = floor(log10 |x|), as a double-double by
    Dekker's product (Numer. Math. 18 (1971) 224) with a table of 10^k; y is within 2^-46
    of exact, so N = round(y) holds the 17 significant digits %.17g prints.  The text of x
    sits in a 32-byte slot whose other bytes are NUL: the row's opening byte at byte 0, a
    head ("-d." or "-0.00d") right-aligned to byte 7, digits d1..d8, then d9..d16 with their
    trailing zeros left NUL, and from byte 24 the exponent suffix and the separator as one
    word.  A block's text is its slots with the NULs deleted.  A zero reads "0"; items near
    a tie or with their last four digits zero take "%.17g" one at a time, from byte 0 of
    their slot.  A block of fewer than _SMALL floats, or holding an |x| >= 10, NaN or an
    infinity, takes :func:`_float_text` per row.  All blocks share one set of scratch arrays.
    """
    import numpy as np
    u = np.uint64
    nr, nc = a.shape
    step = max(1, _BLOCK // nc)
    n = min(step, nr) * nc
    pool = np.empty((12, n), np.int64)
    flags = np.empty((3, n), bool)
    G = np.empty((n, 4), u)  # the 32-byte slots
    for first in range(0, nr, step):
        if first:
            yield sep
        block = a[first:first + step]
        k = block.size
        w = pool[:, :k]
        f = w.view(np.float64)
        if k < _SMALL or not (E := _exponents(block, f)).max() < 1:
            yield sep.join(open_ + _float_text(row, sep) + close for row in block.tolist())
            continue
        lo, hi = E.min(), E.max()
        b = w.view(u)
        rare, flag, neg = flags[:, :k]
        x, ax, xs, m, p, xh, xl, err, t = f[:9]
        e, N, q = w[9:12]
        ascii4, ascii4_hi, stripped_hi, head = _tables()
        scale, mh, ml = _powers()
        tails = [_tail(s) for s in (sep, close + sep, close)]
        zeros = None
        if lo == -math.inf:
            zeros = np.flatnonzero(x == 0)
            ax[zeros], E[zeros] = 1.0, 0.0
            lo, hi = E.min(), E.max()
        if np.isnan(scale[int(lo) - 1 + _E0:int(hi) + 2 + _E0]).any():
            _build_powers(int(lo) - 1 + _E0, int(hi) + 1 + _E0)
        np.add(E, _E0, out=e, casting="unsafe")
        np.take(scale, e, out=xs, mode="clip")
        xs *= ax
        np.take(mh, e, out=m, mode="clip")
        np.multiply(xs, m, out=p)  # y = p + err, err exact from the split factors
        for v, vh, vl in ((xs, xh, xl), (m, ax, m)):  # v = vh + vl, vh with 26 significant bits
            np.add(v.view(u), u(1 << 26), out=vh.view(u))
            np.bitwise_and(vh.view(u), u(-1 << 27 & (1 << 64) - 1), out=vh.view(u))
            np.subtract(v, vh, out=vl)
        np.multiply(xh, ax, out=err)
        err -= p
        for y, z in ((xh, m), (xl, ax), (xl, m)):
            np.multiply(y, z, out=t)
            err += t
        np.take(ml, e, out=t, mode="clip")
        t *= xs
        err += t
        np.rint(err, out=t)
        err -= t
        np.copyto(N, p, casting="unsafe")
        np.copyto(q, t, casting="unsafe")
        N += q
        np.subtract(N, 10 ** 16 + 1, out=q)  # N outside (10^16, 10^17) or y near a tie: rare
        np.greater_equal(q.view(u), u(9 * 10 ** 16 - 1), out=rare)
        np.abs(err, out=t)
        np.greater(t, _TIE, out=flag)
        rare |= flag
        lo4, hi4, d0, idx = w[1:3], w[3:5], w[5], w[6]  # the rare items' are any in range
        np.floor_divide(N, 10 ** 8, out=q)
        np.multiply(q, 10 ** 8, out=idx)
        np.subtract(N, idx, out=lo4[1])
        np.floor_divide(q, 10 ** 8, out=d0)
        np.multiply(d0, 10 ** 8, out=idx)
        np.subtract(q, idx, out=lo4[0])  # d1..d8 and d9..d16
        np.floor_divide(lo4, 10 ** 4, out=hi4)
        np.multiply(hi4, 10 ** 4, out=w[8:11:2])
        lo4 -= w[8:11:2]
        np.multiply(e, 20, out=idx)
        idx += d0
        np.signbit(x, out=neg)
        np.multiply(neg, 10, out=q)
        idx += q
        word, tmp = b[10], b[11]
        np.take(head, idx, out=G[:k, 0], mode="clip")
        np.take(ascii4_hi, lo4[0], out=word, mode="clip")
        np.take(ascii4, hi4[0], out=tmp, mode="clip")
        np.bitwise_or(word, tmp, out=G[:k, 1])
        np.take(stripped_hi, lo4[1], out=word, mode="clip")
        np.take(ascii4, hi4[1], out=tmp, mode="clip")
        np.bitwise_or(word, tmp, out=G[:k, 2])
        for words, at in zip(tails, (slice(None), slice(nc - 1, None, nc), slice(k - 1, k))):
            np.take(words, e[at], out=G[:k, 3][at], mode="clip")
        np.equal(lo4[1], 0, out=flag)
        rare |= flag
        if zeros is not None:  # "0" or "-0" and what follows
            G[zeros, 0] = np.where(neg[zeros], u(45 << 48 | 48 << 56), u(48 << 56))
            G[zeros, 1:3] = 0
            rare[zeros] = False
        if open_:  # the row's opening byte
            G[:k:nc, 0] |= u(ord(open_))
        if rare.any():  # "%.17g" % x one at a time, the text from byte 0 of its slot
            at = np.flatnonzero(rare)
            col = (at % nc).tolist()
            ends = [sep if c < nc - 1 else close + sep if i < k - 1 else close
                    for i, c in zip(at.tolist(), col)]
            texts = [((open_ if c == 0 else "") + "%.17g" % y + end).encode()
                     for y, c, end in zip(x[at].tolist(), col, ends)]
            G[at] = np.frombuffer(b"".join(t.ljust(32, b"\0") for t in texts), u).reshape(-1, 4)
        yield str(G[:k].tobytes().translate(None, b"\0"), "ascii")


def _floats(obj) -> bool:
    """True for a nonempty list or tuple whose items are all of type ``float``.

    Subclasses such as numpy's float64 make it False: they take the per-item path.
    """
    return isinstance(obj, (list, tuple)) and bool(obj) and set(map(type, obj)) == {float}


def _ndarray(obj) -> bool:
    """Whether obj is a numpy array; none can exist before numpy is loaded."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(obj, np.ndarray)


def _table(obj) -> bool:
    """Whether obj is a nonempty float64 ndarray of one or two axes, formatted by _float_blocks."""
    return _ndarray(obj) and obj.dtype == "float64" and 1 <= obj.ndim <= 2 and obj.size > 0


def _lists(obj):
    """Any other ndarray as its rows from 3-D up and as its ``tolist()`` below; anything else as is."""
    if _ndarray(obj) and not _table(obj):
        return list(obj) if obj.ndim > 2 else obj.tolist()
    return obj


def _rows(a, sep: str, brackets: bool):
    """A :func:`_table`'s items joined by sep, each row in brackets if asked, in pieces."""
    rows = a.reshape(1, -1) if a.ndim == 1 else a
    opening, closing = ("[", "]") if brackets else ("", "")
    if brackets and a.ndim == 2:
        yield "["
    yield from _float_blocks(rows, sep, opening, closing)
    if brackets and a.ndim == 2:
        yield "]"


def _nested(obj) -> bool:
    """Whether the walks below descend into obj."""
    return isinstance(obj, (dict, list, tuple)) or _ndarray(obj)


def _json_scalar(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    return "null" if obj is None else json.dumps(str(obj))


def _json_chunks(obj, indent: int = 0):
    """The text of :func:`render_json` in pieces: one per scalar with the keys
    and punctuation before it, one per all-``float`` list, and about one per
    _BLOCK floats of a float64 array, so a table is never held as text or as
    Python floats all at once."""
    obj = _lists(obj)
    if _floats(obj):
        yield "[" + _float_text(obj, ", ") + "]"
    elif _table(obj):
        yield from _rows(obj, ", ", True)
    elif not isinstance(obj, (dict, list, tuple)):
        yield _json_scalar(obj)
    elif not obj:
        yield "{}" if isinstance(obj, dict) else "[]"
    else:
        pad = "  " * indent
        if isinstance(obj, dict):
            opening, sep, close = "{\n", ",\n", "\n" + pad + "}"
            items = ((f'{pad}  "{k}": ', v) for k, v in obj.items())
        else:
            opening, sep, close = "[", ", ", "]"
            items = (("", v) for v in obj)
        for key, v in items:
            if _nested(v):
                yield opening + key
                yield from _json_chunks(v, indent + 1)
            else:
                yield opening + key + _json_scalar(v)
            opening = sep
        yield close


def render_json(obj) -> str:
    """Schema-v1 JSON text: fixed field order, floats with 17 significant digits.

    A list or tuple whose items are all of type ``float`` is rendered by one
    ``%`` format (:func:`_float_text`); a float64 ndarray (the eigenvalue lists
    and the eigenfunction table) by :func:`_float_blocks`, which gives the
    same bytes from numpy; any other ndarray renders as its ``tolist()``.
    """
    return "".join(_json_chunks(obj))


def _leaves(obj, prefix: str = ""):
    """(dotted key + ".", value) for each leaf of ``obj``; list entries get indices.

    A nonempty all-``float`` list and a float64 ndarray of one or two axes are
    one leaf each, whose entries get their indices from the reader.
    """
    obj = _lists(obj)
    if isinstance(obj, dict):
        items = ((f"{prefix}{k}.", v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)) and not _floats(obj):
        items = ((f"{prefix}{i}.", v) for i, v in enumerate(obj))
    else:
        yield prefix, obj
        return
    for key, v in items:
        if _nested(v):
            yield from _leaves(v, key)
        else:
            yield key, v


def _keys(prefix: str, v):
    """The dotted keys of one leaf of :func:`_leaves`, one join per list or table row."""
    if _table(v) and v.ndim == 2:
        rows, width = [f"{prefix}{i}." for i in range(len(v))], v.shape[1]
    elif _table(v) or isinstance(v, (list, tuple)):
        rows, width = [prefix], len(v)
    else:
        yield prefix[:-1]
        return
    columns = list(map(str, range(width)))
    for i, row in enumerate(rows):
        yield ("," if i else "") + row + ("," + row).join(columns)


def _cells(v):
    """The CSV cells of one leaf of :func:`_leaves`, comma-joined, in pieces."""
    if _table(v):
        yield from _rows(v, ",", False)
    elif isinstance(v, (list, tuple)):
        yield _float_text(v, ",")
    else:
        yield ("true" if v is True else "false" if v is False else "" if v is None else
               _fmt_float(v) if isinstance(v, float) else str(v))


def _csv_chunks(obj):
    """The text of :func:`render_csv` in pieces: the payload is walked twice,
    once for the header and once for the cells."""
    for i, (prefix, v) in enumerate(_leaves(obj)):
        if i:
            yield ","
        yield from _keys(prefix, v)
    yield "\n"
    for i, (_, v) in enumerate(_leaves(obj)):
        if i:
            yield ","
        yield from _cells(v)


def render_csv(obj) -> str:
    """Header of dotted keys, then one line of cells.

    The payload is a dict whose keys are str and hold no ".", as every
    subcommand's is, so no two leaves share a dotted key.  Floats format as
    in :func:`render_json`.
    """
    return "".join(_csv_chunks(obj))


def _batches(pieces):
    """The pieces joined into strings of at least 64 KiB, and the rest."""
    batch, length = [], 0
    for piece in pieces:
        batch.append(piece)
        length += len(piece)
        if length >= 1 << 16:
            yield "".join(batch)
            batch, length = [], 0
    yield "".join(batch)


def emit(payload, fmt: str) -> None:
    """Write ``payload`` and a newline to stdout as it is rendered.

    The bytes are those of ``print(render_json(payload))`` (or
    ``render_csv``), written in batches of 64 KiB: one write for a small
    payload, and about one batch of a table's text held at a time.
    """
    pieces = _csv_chunks(payload) if fmt == "csv" else _json_chunks(payload)
    sys.stdout.writelines(_batches(itertools.chain(pieces, ["\n"])))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _build_bc(args) -> BoundaryCondition:
    """``--bc`` with its parameters; an unset one keeps the library default."""
    params = {}
    for name, kind in (("alpha", ROBIN), ("beta", ROBIN), ("tau", TWISTED)):
        if getattr(args, name) is not None:
            if args.bc != kind:
                raise ConfigError(f"--{name} needs --bc {kind}")
            params[name] = getattr(args, name)
    return BoundaryCondition(args.bc, **params)


def _build_spec(args, bc: BoundaryCondition) -> LatticeSpec:
    if args.nu is None or args.nu < 1:
        raise ConfigError("--nu must be a positive integer")
    h, L = getattr(args, "h", None), args.L  # limit takes no --h
    if h is not None and L is not None:
        raise ConfigError("supply exactly one of --h and --L")
    if h is None and L is None:
        if bc.is_circle:
            L = 2.0 * math.pi  # unit circle, the conventional normalisation
        else:
            raise ConfigError("supply one of --h and --L")
    if bc.is_circle:
        return LatticeSpec.circle(args.nu, h=h, L=L)
    return LatticeSpec.interval(args.nu, h=h, L=L)


def _build_potential(args, spec: LatticeSpec) -> Potential:
    sources = sum(x is not None for x in (args.potential, args.delta_site))
    if sources > 1:
        raise ConfigError("give at most one of --potential and --delta-site")
    if args.delta_v is not None and args.delta_site is None:
        raise ConfigError("--delta-v needs --delta-site")
    if args.potential is not None:
        try:
            pot = load_potential(args.potential, nu=spec.nu)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load potential: {exc}") from exc
    elif args.delta_site is not None:
        if args.delta_v is None:
            raise ConfigError("--delta-site needs --delta-v")
        try:
            pot = Potential.delta(spec.nu, args.delta_site, args.delta_v)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        pot = Potential.zeros(spec.nu)
    if args.mass < 0:
        raise ConfigError(f"--mass must be >= 0, got {args.mass}")
    if args.mass:
        mu2 = (spec.h * args.mass) ** 2
        pot = Potential(pot.as_array() + mu2 if spec.nu > _NUMPY_SITES
                        else [v + mu2 for v in pot._floats()])
    return pot


def _parse_sweep(text: str) -> tuple[str, float, float, int]:
    try:
        param, lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ConfigError(f"--sweep wants param:lo:hi:n, got {text!r}") from exc
    if n < 2 or not 0 < lo < hi < math.inf:
        raise ConfigError("--sweep needs finite 0 < lo < hi and n >= 2")
    return param, lo, hi, n


def _geometric(lo: float, hi: float, n: int) -> list[float]:
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio ** k for k in range(n)]


def _head(args, spec: LatticeSpec | None = None) -> dict:
    """The leading payload fields, with the lattice's nu, h and L when ``spec`` is given."""
    head = {"schema_version": SCHEMA_VERSION, "command": args.command, "bc": args.bc}
    if spec is not None:
        head.update(nu=spec.nu, h=spec.h, L=spec.L)
    return head


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_det(args) -> tuple[dict, int]:
    bc = _build_bc(args)
    spec = _build_spec(args, bc)
    pot = _build_potential(args, spec)
    # on the unit lattice (h = 1) a determinant is the dimensionless one
    unit = LatticeSpec(spec.nu, 1.0, float(spec.n_links), spec.topology)
    dimless = determinant(pot, bc, unit, prime=args.prime)
    removed = dimless.zero_modes_removed
    # determinant's own h^(-2 n) step, so the physical fields keep their bits
    ld = LogDet(dimless.sign, dimless.log_abs
                - 2.0 * _h_power(bc, spec.nu, removed, args.prime) * math.log(spec.h), removed)
    payload = {
        **_head(args, spec),
        "sign": ld.sign,
        "log10_abs": ld.log10_abs if ld.sign != 0 else None,
        "dimensionless_det": dimless.value,
        "zero_modes": removed,
    }
    if ld.sign == 0 and not args.prime:
        payload["hint"] = "determinant vanishes (zero mode); rerun with --prime"
    code = EXIT_OK
    is_free_case = args.potential is None and args.delta_site is None
    # a Robin end pinned by alpha or beta = -1 drops a degree and has no closed form
    if is_free_case and _lead_and_degree(bc, spec.nu)[1] == spec.nu:
        mass = MassParam.physical(args.mass, spec)
        closed = free_determinant(bc, spec, mass, prime=args.prime)
        payload["closed_form_sign"] = closed.sign
        payload["closed_form_log10_abs"] = closed.log10_abs if closed.sign != 0 else None
        if args.prime and bc.kind in (PERIODIC, TWISTED):
            # the closed-form primed circle value keeps the removed mode's
            # (2/h)^2 prefactor; no like-for-like check is possible
            payload["closed_form_convention"] = "keeps (2/h)^2 of removed mode"
            payload["closed_form_agreement"] = None
        elif closed.sign == ld.sign == 0:
            payload["closed_form_agreement"] = True
        elif closed.sign != ld.sign:
            payload["closed_form_agreement"] = False
            code = EXIT_CONSISTENCY
        else:
            # compare dimensionless logs: adding -2 nu log h first (~2.3e6 at
            # nu = 1e5) would round away everything below 2^-31
            closed_dimless = free_determinant(bc, unit, mass, prime=args.prime)
            rel = abs(math.expm1(dimless.log_abs - closed_dimless.log_abs))
            payload["closed_form_rel_diff"] = rel
            payload["closed_form_agreement"] = rel <= CONSISTENCY_RTOL
            if rel > CONSISTENCY_RTOL:
                code = EXIT_CONSISTENCY
    if args.exact and spec.nu <= 64 and bc.is_interval:
        # the exact sweep at lambda = 0: Det = (-1)^degree P(0) / lead
        lead, degree = _lead_and_degree(bc, spec.nu, exact=True)
        exact_det = Fraction(_terminal(pot, bc, True, order=0).coeffs[0]) / lead
        exact_det = -exact_det if degree % 2 else exact_det
        payload["dimensionless_det_exact"] = f"{exact_det.numerator}/{exact_det.denominator}"
    return payload, code


def cmd_spectrum(args) -> tuple[dict, int]:
    bc = _build_bc(args)
    spec = _build_spec(args, bc)
    pot = _build_potential(args, spec)
    if args.eigenfunctions and not bc.is_interval:  # refused before the oracle runs
        raise ConfigError("--eigenfunctions needs an interval boundary condition")
    lam = oracle_spectrum(pot, bc, spec)
    import numpy as np  # loaded by the oracle
    payload = {
        **_head(args, spec),
        "eigenvalues_dimensionless": np.array(lam.lambdas),
        "eigenvalues_physical": np.array(lam.physical),
    }
    if args.eigenfunctions:
        payload["eigenfunctions"] = eigenfunctions(pot, bc, lam)  # rendered a block at a time
    return payload, EXIT_OK


def cmd_sums(args) -> tuple[dict, int]:
    bc = _build_bc(args)
    spec = _build_spec(args, bc)
    pot = _build_potential(args, spec)
    kmax = 4 if args.order is None else args.order
    if not 1 <= kmax <= 4:
        raise ConfigError("--order must be 1..4 for sums")
    if args.exact:
        coeffs = _terminal(pot, bc, True, order=kmax).coeffs
        if coeffs[0] == 0:
            raise ConfigError(ZERO_MODE_MESSAGE)
        sums = _exact_newton_sums(coeffs, kmax)
    else:  # c_0..c_kmax of P at 0 up to a common 2^e, c_0 tested zero by det's rule
        cs, refs, e = _taylor_at_zero(pot, bc, kmax)
        if _nonzero_coefficient(cs, refs, e, 0) is None:
            raise ConfigError(ZERO_MODE_MESSAGE)
        sums = _float_newton_sums(cs, kmax, _lead_and_degree(bc, spec.nu)[1], refs)
    payload = {**_head(args, spec), "inverse_power_sums": sums}
    closed = None
    if pot.is_free() and bc.kind == DIRICHLET:
        closed = 0.25 * cosecant_sum(spec.nu + 1, m=1)
    elif pot.is_free() and bc.kind == ROBIN:
        with contextlib.suppress(ZeroDivisionError):
            closed = 0.25 * robin_cosec_sum(spec.nu, bc.alpha, bc.beta)
    if closed is None:
        return payload, EXIT_OK
    payload["closed_form_sum1"] = closed
    rel = abs(sums[0] - closed) / max(1.0, abs(closed))
    payload["closed_form_agreement"] = rel <= CONSISTENCY_RTOL
    return payload, EXIT_OK if rel <= CONSISTENCY_RTOL else EXIT_CONSISTENCY


def _casimir_point(bc: BoundaryCondition, spec: LatticeSpec) -> dict:
    energy = vacuum_energy(None, bc, spec)
    closed = free_energy_closed(bc, spec)
    return {
        "nu": spec.nu,
        "h": spec.h,
        "energy": energy,
        "closed_form": closed,
        "rel_diff": abs(energy - closed) / max(1.0, abs(closed)),
    }


def cmd_casimir(args) -> tuple[dict, int]:
    bc = _build_bc(args)
    spec = _build_spec(args, bc)
    pot = _build_potential(args, spec)
    # with a potential or a mass there is no closed form (vacuum_energy picks the route)
    shifted = args.potential is not None or args.delta_site is not None or args.mass != 0.0
    if args.sweep:
        if shifted:
            raise ConfigError("--sweep fits the free massless closed forms; "
                              "it takes no --potential, --delta-site or --mass")
        param, lo, hi, n = _parse_sweep(args.sweep)
        if param != "h":
            raise ConfigError("casimir sweeps run over h (use --sweep h:lo:hi:n)")
        hs = _geometric(lo, hi, n)
        fit = extract_constant(bc, spec.L, hs)
        points = [_casimir_point(bc, _admissible_lattice(bc, spec.L, h)) for h in fit.h_values]
        payload = {
            **_head(args),
            "L": spec.L,
            "sweep_points": points,
            "fit_coefficients": {str(k): v for k, v in fit.coefficients.items()},
            "fit_residual_norm": fit.residual_norm,
            "universal_constant": fit.constant,
        }
        return payload, EXIT_OK
    if shifted or bc.kind == ROBIN:  # free Robin has no closed form to compare with
        return {**_head(args), "nu": spec.nu, "h": spec.h,
                "energy": vacuum_energy(pot, bc, spec)}, EXIT_OK
    point = _casimir_point(bc, spec)
    payload = {**_head(args), "L": spec.L, **point}
    code = EXIT_OK if point["rel_diff"] <= 1e-10 else EXIT_CONSISTENCY
    return payload, code


def _limit_point(bc: BoundaryCondition, nu: int, L: float, mubar: float) -> tuple[float, float]:
    """Scaled determinant and h at nu sites; Robin's alpha and beta are physical here."""
    spec = (LatticeSpec.circle(nu, L=L) if bc.is_circle
            else LatticeSpec.interval(nu, L=L))
    mass = MassParam.physical(mubar, spec)
    prime = bc.kind in (NEUMANN, PERIODIC) and mubar == 0.0
    if prime:
        # zero-mode removal goes through the closed form: its periodic Det'
        # keeps the removed mode's (2/h)^2, as the continuum targets assume
        ld = free_determinant(bc, spec, mass, prime=True)
    else:
        pot = (Potential.constant(spec.nu, mass.mu * mass.mu) if mubar
               else Potential.zeros(spec.nu))
        if bc.kind == ROBIN:
            bc_lattice = BoundaryCondition(ROBIN, alpha=bc.alpha * spec.h, beta=bc.beta * spec.h)
        else:
            bc_lattice = bc
        ld = determinant(pot, bc_lattice, spec)
    power = continuum_scaling_exponent(bc, spec.nu, prime)
    return ld.scaled_value(power * math.log(spec.h)), spec.h


def cmd_limit(args) -> tuple[dict, int]:
    bc = _build_bc(args)
    if args.L is None and bc.is_interval:
        raise ConfigError("limit needs --L (the physical size is held fixed)")
    spec = _build_spec(args, bc)
    nu = spec.nu
    if nu < 2:
        raise ConfigError("limit needs --nu >= 2 (its half-resolution run has max(2, nu // 2) sites)")
    target = continuum_limit_targets(bc, args.mass, bc.alpha, bc.beta, spec.L)
    coarse_nu = max(2, nu // 2)
    fine_val, fine_h = _limit_point(bc, nu, spec.L, args.mass)
    coarse_val, coarse_h = _limit_point(bc, coarse_nu, spec.L, args.mass)
    fine_err = abs(fine_val - target)
    coarse_err = abs(coarse_val - target)
    order = None
    if fine_err > 0 and coarse_err > 0 and coarse_h != fine_h:  # at nu = 2 the lattices coincide
        order = math.log(coarse_err / fine_err) / math.log(coarse_h / fine_h)
    payload = {
        **_head(args),
        "nu": nu,
        "L": spec.L,
        "mass": args.mass,
        "scaled_det": fine_val,
        "target": target,
        "rel_error": fine_err / max(1e-300, abs(target)),
        "coarse_nu": coarse_nu,
        "coarse_scaled_det": coarse_val,
        "observed_order": order,
    }
    return payload, EXIT_OK


def cmd_chebyshev(args) -> tuple[dict, int]:
    """Identity self-test on the polynomial calculus; the U_k(x) of each x, and
    the U_j and V_j in lambda, come from one recurrence sweep each, and every
    identity reads those shared paths."""
    checks: dict[str, bool] = {}
    # paths[x][k + 2] = U_k(x), k = -2..30
    paths = {x: cheb.cheb_u_path(30, x) for x in range(-3, 4)}
    # Turan: U_{n-1}^2 - U_n U_{n-2} = 1, integer arguments, exact
    checks["turan"] = all(u[n + 1] * u[n + 1] - u[n + 2] * u[n] == 1
                          for u in paths.values() for n in range(0, 31))
    pairs = [(m, n) for m in range(0, 13) for n in range(0, 13)]
    inner = [paths[x] for x in range(-2, 3)]
    # Composition: U_{m+n} = U_m U_n - U_{m-1} U_{n-1}
    checks["composition"] = all(u[m + n + 2] == u[m + 2] * u[n + 2] - u[m + 1] * u[n + 1]
                                for u in inner for m, n in pairs)
    # Product series with parity step 2: sum_{k=|m-n|, step 2}^{m+n} U_k = s(m+n) - s(|m-n|-2)
    # for the parity sums s(k) = U_k + U_{k-2} + ..., s(-1) = s(-2) = 0, held at s[k + 2]
    sums = [[0, 0] for _ in inner]
    for u, s in zip(inner, sums):
        for k in range(25):
            s.append(u[k + 2] + s[k])
    checks["product_series"] = all(u[m + 2] * u[n + 2] == s[m + n + 2] - s[abs(m - n)]
                                   for u, s in zip(inner, sums) for m, n in pairs)
    # det C^n = 1, C^n = [[-U_{n-2}, U_{n-1}], [-U_{n-1}, U_n]]
    checks["matrix_power_det"] = all(
        cheb.Mat2(-u[n], u[n + 1], -u[n + 1], u[n + 2]).det() == 1
        for u in inner for n in range(0, 31))
    # V_j - V_{j-1} = (2x - 2) U_{j-1} as polynomials
    us, v = cheb.cheb_u_poly_path(29), cheb.cheb_v_poly_path(30)
    minus_lambda = cheb.CharPoly([0, -1], backend="exact")
    checks["neumann_difference"] = all(
        v[j] - v[j - 1] == minus_lambda * us[j - 1] for j in range(1, 31))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "chebyshev",
        "checks": checks,
        "all_passed": all(checks.values()),
    }
    return payload, EXIT_OK if all(checks.values()) else EXIT_CONSISTENCY


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# One definition per option: flag -> add_argument keywords.
_OPTIONS = {
    "--bc": dict(required=True, choices=(DIRICHLET, NEUMANN, PERIODIC, ROBIN, TWISTED),
                 help="boundary condition"),
    "--nu": dict(type=int, help="number of dynamical vertices"),
    "--h": dict(type=float, help="lattice spacing"),
    "--L": dict(type=float, help="total length"),
    "--alpha": dict(type=float, help="Robin parameter (left; --bc robin only)"),
    "--beta": dict(type=float, help="Robin parameter (right; --bc robin only)"),
    "--tau": dict(type=float, help="twist parameter in (0, 1] (--bc twisted only)"),
    "--mass": dict(type=float, default=0.0, help="physical mass"),
    "--potential": dict(help="JSON potential file"),
    "--delta-site": dict(type=int, help="single-site potential vertex (1-based)"),
    "--delta-v": dict(type=float, help="single-site potential strength"),
    "--prime": dict(action="store_true", help="remove zero modes from the determinant"),
    "--exact": dict(action="store_true", help="exact rational backend"),
    "--order": dict(type=int, help="sum order"),
    "--eigenfunctions": dict(action="store_true", help="emit the eigenfunction table"),
    "--sweep": dict(help="parameter sweep, param:lo:hi:n (geometric)"),
    "--format": dict(choices=("json", "csv"), default="json"),
}

# Per subcommand, the options its cmd_* reads; every subcommand also takes --format.
_LATTICE = ("--bc", "--nu", "--h", "--L", "--alpha", "--beta", "--tau", "--mass",
            "--potential", "--delta-site", "--delta-v")
_SUBCOMMANDS = {
    "det": (*_LATTICE, "--prime", "--exact"),
    "spectrum": (*_LATTICE, "--eigenfunctions"),
    "sums": (*_LATTICE, "--order", "--exact"),
    "casimir": (*_LATTICE, "--sweep"),
    "limit": ("--bc", "--nu", "--L", "--alpha", "--beta", "--tau", "--mass"),
    "chebyshev": (),
}


@functools.cache  # built on the first call to main, then shared by the process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gylat", allow_abbrev=False,
        description="Determinants, spectra and vacuum energies of 1-d lattice operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _SUBCOMMANDS.items():
        # no abbreviations: with them an option that a subcommand lacks, such as
        # limit's --h, would resolve to another one (--help) instead of exiting 2
        p = sub.add_parser(name, allow_abbrev=False, **(
            {"help": "run the Chebyshev identity self-test"} if name == "chebyshev" else {}))
        for flag in (*flags, "--format"):
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():  # the numeric options, as argparse read them
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")
        # looked up by name on every call: the shared parser holds no functions
        payload, code = globals()[f"cmd_{args.command}"](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    emit(payload, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
