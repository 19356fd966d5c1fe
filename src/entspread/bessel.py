"""Integer-order Bessel functions of the first kind.

Everything downstream (closed-form chain amplitudes, Chebyshev propagator
coefficients, moment sums) consumes whole rows J_0(x)..J_K(x) at a fixed
argument, so the workhorse here is a row evaluator based on Miller's
backward recurrence: start the three-term recurrence

    J_{n-1}(x) = (2n/x) J_n(x) - J_{n+1}(x)

well above the highest requested order with arbitrary seed values, recurse
down to order zero, then rescale the whole row with the normalization
identity J_0(x) + 2 sum_{k>=1} J_{2k}(x) = 1.  Downward recursion is stable
precisely where upward recursion is not (order > argument), which is the
regime the superexponentially decaying wavefront tail lives in.

Both evaluators are one compiled pass, `miller_rows` in `_ring.c`: the batch
evaluator `bessel_rows` runs the recurrence for several arguments side by
side, each with its own rescales, and `bessel_row` is its one-argument
call.  This module also builds and loads the library of compiled passes
(`_ring.c`, built with `cc` on first import and cached), which the
propagator binds its own passes from.

The independent cross-check, an ascending-series evaluator in extended
precision that shares no code with the recurrence, is in the test suite's
`oracles` module.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import time
from pathlib import Path

import numpy as np

# Magnitudes below this are flushed to exactly zero after normalization;
# keeps long moment sums out of subnormal arithmetic.  `miller_rows`
# (`_ring.c`) holds the same value, beside the 1e250 past which it rescales
# to keep the downward pass clear of float64 overflow.
FLUSH_THRESHOLD = 1e-300

# How `_ring.c` is built; its header says how the flags fix the bytes.
_RING_SOURCE = Path(__file__).with_name("_ring.c")
_RING_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")
_RING_LIBS = ("-lm",)
# A build removes this user's other libraries that no import has used for
# this long: checkouts of other sources that share the cache keep theirs.
_STALE_SECONDS = 24 * 3600


def _own_file(path: Path) -> bool:
    """Whether `path` is a file this user owns; one in a shared temp directory may be another's."""
    return path.is_file() and path.stat().st_uid == os.getuid()


def _prune(directory: Path, name: str) -> None:
    """Remove this user's libraries other than `name` from `directory` unused for _STALE_SECONDS; one that will not go stays.

    An import that finds a library marks it used (`_used`).  A build's
    `.partial` files end in another suffix, so none is removed.
    """
    unused_since = time.time() - _STALE_SECONDS
    for stale in directory.glob("entspread-ring-*.so"):
        try:
            if stale.name != name and _own_file(stale) and stale.stat().st_mtime < unused_since:
                stale.unlink()
        except OSError:
            pass


def _used(library: Path) -> Path:
    """`library`, its mtime set to now where it can be, so that no build prunes it for a day."""
    try:
        os.utime(library)
    except OSError:
        pass
    return library


def _ring_library() -> tuple[Path, bool]:
    """The shared library built from `_ring.c`, and whether this call built it with `cc`.

    It is cached in $XDG_CACHE_HOME/entspread (~/.cache/entspread where that
    is unset or, as the XDG Base Directory spec says, not an absolute path),
    or in the temp directory where that cannot be written, under a name
    keyed by the source, the flags and the machine.  A build goes to a temp
    file that is then renamed over the name, so processes that build at
    once each leave a whole library; it then removes this user's other
    libraries from that directory that no import has used for a day, which
    older sources or flags left.
    """
    source = _RING_SOURCE.read_bytes()
    key = hashlib.sha256(b"\0".join([source, *map(str.encode, _RING_FLAGS + _RING_LIBS),
                                      platform.machine().encode()])).hexdigest()
    name = f"entspread-ring-{key[:16]}.so"
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    cache = Path(xdg if os.path.isabs(xdg) else Path.home() / ".cache") / "entspread"
    if _own_file(cache / name):
        return _used(cache / name), False
    import subprocess
    import tempfile

    for directory in (cache, Path(tempfile.gettempdir())):
        if _own_file(directory / name):
            return _used(directory / name), False
        try:
            directory.mkdir(parents=True, exist_ok=True)
            handle, partial = tempfile.mkstemp(prefix=name, suffix=".partial", dir=directory)
        except OSError:
            continue
        os.close(handle)
        command = ["cc", *_RING_FLAGS, "-o", partial, str(_RING_SOURCE), *_RING_LIBS]
        try:
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode == 0:
                os.replace(partial, directory / name)
                _prune(directory, name)
                return directory / name, True
            error = done.stderr.strip()
        except OSError as exc:
            error = str(exc)
        finally:
            if os.path.exists(partial):
                os.remove(partial)
        raise ImportError(f"cannot build the Chebyshev ring step: `{' '.join(command)}` failed: {error}")
    raise ImportError(f"cannot write {name} to {cache} or {tempfile.gettempdir()}")


def _load_ring() -> tuple[Path, bool, ctypes.CDLL]:
    """`_ring_library()` and the library loaded from it.

    A cached library that will not load, one cut short or removed by
    another process's build between its `_used` and the load, is removed
    and built again, once.
    """
    path, built = _ring_library()
    try:
        return path, built, ctypes.CDLL(str(path))
    except OSError:
        if built:
            raise
    try:
        path.unlink()
    except OSError:
        pass
    path, built = _ring_library()
    return path, built, ctypes.CDLL(str(path))


# The one library of compiled passes this process loads, and whether it built it.
_RING_PATH, _RING_BUILT, _LIBRARY = _load_ring()


def _bind(name: str, *argtypes):
    function = getattr(_LIBRARY, name)
    function.argtypes, function.restype = argtypes, None
    return function


_P, _N = ctypes.c_void_p, ctypes.c_long
_miller_rows = _bind("miller_rows", _P, _N, _N, _N, _P)
_order_sums = _bind("order_sums", _P, _N, _N, _N, _P)


def miller_start_order(order_max: int, argument: float) -> int:
    """Starting order for the downward recurrence.

    The seed must sit far enough past the turning point (order ~ argument)
    that the contaminating dominant solution has decayed away, so the start
    is measured from max(order_max, argument); the margin of 20 plus ten
    square roots of the larger scale keeps the relative error of the
    returned orders below ~1e-13.
    """
    scale = max(order_max, argument)
    return max(order_max, math.ceil(argument)) + 20 + math.ceil(10.0 * math.sqrt(scale))


def tail_order(z: float) -> int:
    """An order past which the row J_k(z) is negligible: ceil(z) + 20 + ceil(15 (z/2)^(1/3)).

    Past its turning point k ~ z, J_k(z) falls off as an Airy function of
    (k - z) / (z/2)^(1/3) (DLMF 10.19(iii)), so the orders a row needs past z
    grow as z^(1/3).  The first K with 2 sum_{k>K} |J_k(z)| <= 1e-16 lies at
    least two orders below the returned one: 20 to 47 below it over
    0 <= z <= 2e4, where K - z is 13.8 to 14.0 (z/2)^(1/3) from z = 300 on.
    """
    return math.ceil(z) + 20 + math.ceil(15.0 * (0.5 * z) ** (1.0 / 3.0))


def _check_argument(argument: float) -> float:
    argument = float(argument)
    if not math.isfinite(argument):
        raise ValueError(f"Bessel argument must be finite, got {argument!r}")
    if argument < 0.0:
        raise ValueError(f"Bessel argument must be >= 0, got {argument!r}")
    return argument


def bessel_row(order_max: int, argument: float) -> np.ndarray:
    """Values J_0(x)..J_{order_max}(x) at one argument x: :func:`bessel_rows` of that argument alone."""
    if order_max < 0:
        raise ValueError(f"order_max must be >= 0, got {order_max}")
    argument = _check_argument(argument)

    values = np.zeros(order_max + 1)
    if argument == 0.0:
        values[0] = 1.0
    else:
        start = miller_start_order(order_max, argument)
        _miller_rows(ctypes.byref(ctypes.c_double(argument)), 1, order_max, start, values.ctypes.data)
    return values


def bessel_rows(order_max: int, arguments: np.ndarray) -> np.ndarray:
    """Rows J_0..J_{order_max} for a batch of arguments, shape (len(arguments), order_max+1).

    One Miller recurrence per argument, with one shared starting order sized
    for the largest argument; a larger start only adds decay margin, so
    per-element accuracy matches a row of its own, and a batch of one
    argument is :func:`bessel_row` bit for bit.  The recurrence is the
    compiled pass `miller_rows` (`_ring.c`): each argument's factors
    n (2/x), rescales and norm are its own, so a row does not depend on
    which arguments share its batch, only on the start order.

    The result is a C-contiguous float64 array, one row per argument.
    """
    if order_max < 0:
        raise ValueError(f"order_max must be >= 0, got {order_max}")
    args = np.ascontiguousarray(arguments, dtype=float)
    if args.ndim != 1:
        raise ValueError("arguments must be a 1-d array")
    if args.size == 0:
        return np.zeros((0, order_max + 1))
    if not np.all(np.isfinite(args)) or np.any(args < 0.0):
        raise ValueError("all arguments must be finite and >= 0")

    positive = args > 0.0
    if not positive.all():
        out = np.zeros((args.size, order_max + 1))
        out[~positive, 0] = 1.0
        if positive.any():
            out[positive] = bessel_rows(order_max, args[positive])
        return out

    start = miller_start_order(order_max, float(args.max()))
    rows = np.empty((args.size, order_max + 1))
    _miller_rows(args.ctypes.data, args.size, order_max, start, rows.ctypes.data)
    return rows


def order_sums(rows: np.ndarray, core: int) -> np.ndarray:
    """Sums over each Bessel row J_0..J_K of `rows` (S, K + 1), as (3, S).

    They are of k^2 |J_k| over the orders 1..core and core+1..K, and of
    J_k^2 over 1..K: bit for bit np.add.reduce(np.abs(rows[:, a:b]) * k2[a:b],
    axis=1) with k2 = k^2, and np.add.reduce(rows[:, 1:] ** 2, axis=1).
    Each is the pairwise sum of the compiled pass `order_sums`, so the bytes
    depend on no BLAS and no CPU dispatch.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] == 0 or core < 0:
        raise ValueError(f"order sums take rows J_0..J_K and a core >= 0, got {rows.shape} and {core}")
    sums = np.empty((3, len(rows)))
    _order_sums(rows.ctypes.data, len(rows), rows.shape[1], core, sums.ctypes.data)
    return sums


def bessel_j(order: int, argument: float) -> float:
    """J_order(argument); negative orders via J_{-n}(x) = (-1)^n J_n(x)."""
    order = int(order)
    argument = _check_argument(argument)
    n = abs(order)
    value = float(bessel_row(n, argument)[n])
    if order < 0 and (n & 1):
        value = -value
    return value
