"""Problem files: a strict JSON schema describing one verification instance.

Complex numbers are written as a plain number (real) or a two-element
[re, im] list; vectors are lists of those.  Unknown keys anywhere, and keys
that the chosen kind does not read, are an error that names the offending
path, so typos fail loudly instead of being silently ignored.  NaN, Infinity
and -Infinity are not JSON and are refused as such, and so is a number that
overflows to infinity (1e400).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bv import DENSITY_KINDS, DENSITY_PARAMS, MAX_TABLE_JUMPS, BVFunction, DensityPiece
from .contour import (ACCELERATION_TERMS, MAX_ACCELERATION_TERMS, EtaShiftExtension,
                      RationalExtension, eta)
from .dirichlet import DEFAULT_N_MAX, DirichletInstance, build_instance, read_coefficients
from .growth import CUTOFF_KINDS, GROWTH_PARAMS, CutoffRule, GrowthBound
from .transform import TauberianCertificate
from .vectors import NORM_KINDS


class ProblemFormatError(ValueError):
    """Malformed problem file; the message carries the JSON path."""


def _fail(path: str, message: str):
    raise ProblemFormatError(f"{path}: {message}")


def _made(path: str, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError (or OSError, of a coefficient file) failing at path."""
    try:
        return make(*args, **kwargs)
    except (OSError, ValueError) as exc:
        _fail(path, str(exc))


def _check_keys(obj: dict, allowed: set[str], path: str):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        _fail(path, f"unknown key {sorted(unknown)[0]!r}; allowed keys: {sorted(allowed)}")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        _fail(path, f"missing required key {key!r}")
    return obj[key]


def _is_number(node) -> bool:
    return isinstance(node, (int, float)) and not isinstance(node, bool)


def _as_float(node, path: str) -> float:
    if not _is_number(node):
        _fail(path, f"expected a number, got {node!r}")
    try:
        value = float(node)
    except OverflowError:  # an integer literal past the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(path, "expected a finite number, got one that overflows to infinity")
    return value


def _as_complex(node, path: str) -> complex:
    if _is_number(node):
        return complex(_as_float(node, path))
    if isinstance(node, list) and len(node) == 2 and all(map(_is_number, node)):
        return complex(_as_float(node[0], f"{path}[0]"), _as_float(node[1], f"{path}[1]"))
    _fail(path, f"expected a number or [re, im] pair, got {node!r}")


def _as_vector(node, dimension: int, path: str) -> np.ndarray:
    if not isinstance(node, list):
        _fail(path, f"expected a list of {dimension} components")
    if dimension == 1 and len(node) == 2 and all(map(_is_number, node)):
        return np.asarray([_as_complex(node, path)])  # a bare [re, im] pair is a 1-vector
    if len(node) != dimension:
        _fail(path, f"expected {dimension} components, got {len(node)}")
    return np.asarray([_as_complex(v, f"{path}[{i}]") for i, v in enumerate(node)])


def _build_density(node, dimension: int, path: str) -> DensityPiece:
    _check_keys(node, {"from", "to", "kind", "scale", "rate", "exponent"}, path)
    start = _as_float(_require(node, "from", path), f"{path}.from")
    to = _require(node, "to", path)
    end = math.inf if to == "inf" else _as_float(to, f"{path}.to")
    kind = _require(node, "kind", path)
    if kind not in DENSITY_KINDS:
        _fail(f"{path}.kind", f"unknown density kind {kind!r}; choose from {DENSITY_KINDS}")
    scale = _as_vector(_require(node, "scale", path), dimension, f"{path}.scale")
    params = {}
    for name, read in (("rate", _as_complex), ("exponent", _as_float)):
        if name in DENSITY_PARAMS[kind]:
            params[name] = read(_require(node, name, path), f"{path}.{name}")
        elif name in node:
            _fail(f"{path}.{name}", f"density kind {kind!r} takes no {name}")
    return _made(path, DensityPiece, start=start, end=end, kind=kind,
                 scale=tuple(scale.tolist()), **params)


def _build_growth(node, path: str) -> GrowthBound:
    _check_keys(node, {"kind", "params"}, path)
    kind = _require(node, "kind", path)
    if not isinstance(kind, str) or kind not in GROWTH_PARAMS:
        _fail(f"{path}.kind", f"unknown growth kind {kind!r}; choose from {sorted(GROWTH_PARAMS)}")
    names = GROWTH_PARAMS[kind]
    params_node = _require(node, "params", path)
    _check_keys(params_node, set(names), f"{path}.params")
    params = {name: _as_float(_require(params_node, name, f"{path}.params"),
                              f"{path}.params.{name}") for name in names}
    return _made(path, GrowthBound, kind, **params)


def _build_cutoff(node, path: str) -> CutoffRule:
    _check_keys(node, {"kind", "value"}, path)
    kind = _require(node, "kind", path)
    if kind not in CUTOFF_KINDS:
        _fail(f"{path}.kind", f"unknown cutoff kind {kind!r}; choose from {sorted(CUTOFF_KINDS)}")
    if kind != "constant":
        if "value" in node:
            _fail(f"{path}.value", f"cutoff kind {kind!r} takes no value")
        return CutoffRule(kind)
    value = _as_float(_require(node, "value", path), f"{path}.value")
    return _made(f"{path}.value", CutoffRule, kind, value)


def _build_certificate(node, cutoff: CutoffRule, path: str) -> TauberianCertificate:
    _check_keys(node, {"C", "x0", "T"}, path)
    C = _as_float(_require(node, "C", path), f"{path}.C")
    x0 = _as_float(_require(node, "x0", path), f"{path}.x0")
    T = _as_float(node.get("T", 0.0), f"{path}.T")
    return _made(path, TauberianCertificate, C=C, x0=x0, T=T, R_rule=cutoff)


def _build_extension(node, path: str):
    _check_keys(node, {"kind", "params"}, path)
    kind = _require(node, "kind", path)
    params = node.get("params", {})
    if kind == "rational":
        _check_keys(params, {"numerator", "denominator"}, f"{path}.params")
        num = [_as_complex(v, f"{path}.params.numerator[{i}]")
               for i, v in enumerate(_require(params, "numerator", f"{path}.params"))]
        den = [_as_complex(v, f"{path}.params.denominator[{i}]")
               for i, v in enumerate(_require(params, "denominator", f"{path}.params"))]
        return _made(path, RationalExtension, num, den)
    if kind == "eta_shift":
        _check_keys(params, {"terms"}, f"{path}.params")
        terms = params.get("terms", ACCELERATION_TERMS)
        if (not isinstance(terms, int) or isinstance(terms, bool)
                or not 8 <= terms <= MAX_ACCELERATION_TERMS):
            _fail(f"{path}.params.terms", f"terms must be an integer from 8 to {MAX_ACCELERATION_TERMS}")
        return EtaShiftExtension(terms=terms)
    _fail(f"{path}.kind", f"unknown extension kind {kind!r}; choose from ['eta_shift', 'rational']")


# the rows of each named coefficient rule, repeated: b_n = (-1)^{n+1} and b_n = 1
_COEFFICIENT_RULES = {"alternating": ((1,), (-1,)), "ones": ((1,),)}


def _build_coefficients(node, base_dir: Path, path: str) -> tuple[np.ndarray, str]:
    """The table of rows b_1 ... b_q and the sidecar's description of its source."""
    if isinstance(node, str):
        if node not in _COEFFICIENT_RULES:
            _fail(path, f"unknown coefficient rule {node!r}; use 'alternating', 'ones', or an object")
        node = {"kind": node}
    _check_keys(node, {"kind", "values", "path"}, path)
    kind = _require(node, "kind", path)
    if not (isinstance(kind, str) and kind in (*_COEFFICIENT_RULES, "periodic", "file")):
        _fail(f"{path}.kind", f"unknown coefficient kind {kind!r}")
    for key, owner in (("values", "periodic"), ("path", "file")):
        if key in node and kind != owner:
            _fail(f"{path}.{key}", f"coefficient kind {kind!r} takes no {key}")
    if kind in _COEFFICIENT_RULES:
        return np.asarray(_COEFFICIENT_RULES[kind], dtype=complex), kind
    if kind == "periodic":
        values = _require(node, "values", path)
        if not isinstance(values, list) or not values:
            _fail(f"{path}.values", "expected a nonempty list of coefficients")
        first = values[0]
        width = len(first) if isinstance(first, list) and (
            len(first) != 2 or isinstance(first[0], list)) else None
        if width is None:
            table = np.asarray([_as_complex(v, f"{path}.values[{i}]")
                                for i, v in enumerate(values)])[:, None]
        else:
            for i, row in enumerate(values):
                if not isinstance(row, list) or len(row) != width:
                    _fail(f"{path}.values[{i}]", f"expected a row of {width} coefficients like values[0]")
            table = np.asarray([[_as_complex(c, f"{path}.values[{i}][{j}]")
                                 for j, c in enumerate(row)] for i, row in enumerate(values)])
        if table.size == 0:
            _fail(f"{path}.values", "periodic coefficients need a nonempty table")
        return table, f"periodic(period={table.shape[0]})"
    rel = _require(node, "path", path)
    if not isinstance(rel, str):
        _fail(f"{path}.path", "expected a file path string")
    table = _made(path, read_coefficients, base_dir / rel)
    return table, f"file({base_dir / rel}, n={table.shape[0]})"


@dataclass(frozen=True)
class Problem:
    name: str
    bv: BVFunction
    certificate: TauberianCertificate
    growth: GrowthBound | None
    extension: object | None
    f0: np.ndarray | None
    dirichlet: DirichletInstance | None
    source: str


_TOP_KEYS = {"name", "dimension", "norm", "jumps", "densities", "growth",
             "cutoff", "certificate", "extension", "f0", "dirichlet"}


def load_problem(path) -> Problem:
    """Parse and validate one problem file into package objects."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(), parse_constant=lambda token: _fail(
            str(path), f"invalid JSON ({token} is not a number in strict JSON)"))
    except OSError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: invalid JSON ({exc})") from None
    _check_keys(raw, _TOP_KEYS, str(path))

    name = raw.get("name", path.stem)
    if not isinstance(name, str):
        _fail(f"{path}.name", "expected a string")
    norm_kind = raw.get("norm", "euclidean")
    if norm_kind not in NORM_KINDS:
        _fail(f"{path}.norm", f"unknown norm {norm_kind!r}; choose from {NORM_KINDS}")

    growth = _build_growth(raw["growth"], f"{path}.growth") if "growth" in raw else None
    extension = _build_extension(raw["extension"], f"{path}.extension") if "extension" in raw else None

    if "dirichlet" in raw:
        for key in ("dimension", "jumps", "densities", "certificate", "cutoff", "f0"):
            if key in raw:
                _fail(f"{path}.{key}", "not allowed alongside a 'dirichlet' block")
        node = raw["dirichlet"]
        _check_keys(node, {"coefficients", "n_max", "f0"}, f"{path}.dirichlet")
        source = _require(node, "coefficients", f"{path}.dirichlet")
        table, described = _build_coefficients(source, path.parent,
                                               f"{path}.dirichlet.coefficients")
        kind = source if isinstance(source, str) else source["kind"]
        n_max = node.get("n_max", DEFAULT_N_MAX)
        if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 2:
            _fail(f"{path}.dirichlet.n_max", "expected an integer >= 2")
        if n_max > MAX_TABLE_JUMPS:
            _fail(f"{path}.dirichlet.n_max", f"too large: a table gives at most 2^40 = "
                  f"{MAX_TABLE_JUMPS} jumps, where fl(log n) provably increases")
        if kind == "file" and n_max > table.shape[0]:
            _fail(f"{path}.dirichlet",
                  f"coefficient source only provides {table.shape[0]} values; lower n_max")
        bv, cert = build_instance(table, n_max=n_max, norm_kind=norm_kind)
        f0 = provenance = None
        if "f0" in node:
            where = f"{path}.dirichlet.f0"
            f0, provenance = _as_vector(node["f0"], bv.dimension, where), f"problem file: {where}"
        elif kind == "alternating":
            # limit of sum (-1)^{n+1}/n, computed by series acceleration rather
            # than typed in as a decimal constant
            f0 = np.asarray([complex(eta(1.0).real)])
            provenance = "accelerated alternating series (64+ digit-stable scheme)"
        return Problem(name=name, bv=bv, certificate=cert, growth=growth, extension=extension,
                       f0=f0, dirichlet=DirichletInstance(described, n_max, provenance),
                       source=str(path))

    dimension = raw.get("dimension", 1)
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        _fail(f"{path}.dimension", "expected an integer >= 1")

    jumps = raw.get("jumps", [])
    if not isinstance(jumps, list):
        _fail(f"{path}.jumps", "expected a list")
    times, sizes = [], []
    for i, entry in enumerate(jumps):
        jpath = f"{path}.jumps[{i}]"
        _check_keys(entry, {"t", "value"}, jpath)
        times.append(_as_float(_require(entry, "t", jpath), f"{jpath}.t"))
        sizes.append(_as_vector(_require(entry, "value", jpath), dimension, f"{jpath}.value"))

    densities = raw.get("densities", [])
    if not isinstance(densities, list):
        _fail(f"{path}.densities", "expected a list")
    pieces = tuple(_build_density(node, dimension, f"{path}.densities[{i}]")
                   for i, node in enumerate(densities))

    if not times and not pieces:
        _fail(str(path), "problem defines neither jumps, densities, nor a dirichlet block")

    bv = _made(f"{path}.jumps", BVFunction, dimension, np.asarray(times, dtype=float),
               np.asarray(sizes, dtype=complex).reshape(len(times), dimension), pieces, norm_kind)

    cutoff = _build_cutoff(raw["cutoff"], f"{path}.cutoff") if "cutoff" in raw else CutoffRule("infinite")
    cert = _build_certificate(_require(raw, "certificate", str(path)), cutoff, f"{path}.certificate")

    f0 = _as_vector(raw["f0"], dimension, f"{path}.f0") if "f0" in raw else None
    return Problem(name=name, bv=bv, certificate=cert, growth=growth, extension=extension, f0=f0,
                   dirichlet=None, source=str(path))
