"""Batch front-end: parse an experiment config, run it, emit CSV + report.

Config files are strict YAML key/value trees (unknown keys are errors),
read as UTF-8 whatever the locale.  Each run writes ``trace.csv`` and
``report.txt``, in UTF-8, into the output directory;
the report has one check per line prefixed PASS, FAIL or INFO, and the
process exits 0 only when no FAIL line was emitted (2 for usage/config
problems); a jungck run that diverged is a FAIL, and so is a run in which
no check ran.  Numbers are serialized with shortest round-trip decimals, so
identical configs produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Optional

import numpy as np
import yaml

from . import diagnostics, engine, floattext, stability, venter
from .aitken import DEFAULT_FLOOR_SCALE, block_rows, corrected_blocks, row_blocks
from .errors import (
    ConfigParseError,
    ConfigValidationError,
    HypothesisViolatedError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    JungckitError,
    NotConvergingError,
    SequenceTooShortError,
)
from .model import GatePolicy, Operator, Schedule, exact_row_norms, make_operator_pair
from .scan import ScanSpec, run_scan

IDENTITY_TOL = 1e-9
NONNEG_SLACK = 1e-12


# ---------------------------------------------------------------------------
# config parsing


def _require_mapping(node: Any, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigValidationError(f"{where}: expected a key/value mapping, got {type(node).__name__}")
    return node

def _check_keys(node: dict, allowed: set, where: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigValidationError(f"{where}: unknown key(s) {sorted(unknown)}")

# YAML 1.1 loads a float only with a dot and a signed exponent: 1e-6 is a string
_EXPONENT_FLOAT = re.compile(r"([-+]?[0-9]+)(?:\.([0-9]*))?[eE]([-+]?)([0-9]+)")

def _number(value: Any, where: str, integer: bool = False):
    """``value`` as a float, or as an int with ``integer``; anything else, bools too, is a config error."""
    if not isinstance(value, bool) and isinstance(value, int if integer else (int, float)):
        return value if integer else float(value)
    m = _EXPONENT_FLOAT.fullmatch(value) if isinstance(value, str) and not integer else None
    hint = f" (YAML 1.1 reads it as a string; write {m[1]}.{m[2] or 0}e{m[3] or '+'}{m[4]})" if m else ""
    raise ConfigValidationError(f"{where}: expected {'an integer' if integer else 'a number'}, got {value!r}{hint}")

def _numbers(value: Any, where: str):
    """``value`` with every entry read by ``_number``; lists may nest."""
    if isinstance(value, list):
        return [_numbers(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return _number(value, where)

def _get(node: dict, key: str, where: str, default=None, required=False, integer=False):
    if key not in node:
        if required:
            raise ConfigValidationError(f"{where}: missing required key '{key}'")
        return default
    return _number(node[key], f"{where}.{key}", integer)

def _get_pair(node: dict, key: str, where: str, default: tuple) -> tuple:
    if key not in node:
        return default
    v = node[key]
    if not (isinstance(v, list) and len(v) == 2):
        raise ConfigValidationError(f"{where}.{key}: expected [lo, hi]")
    return tuple(_number(x, f"{where}.{key}[{i}]") for i, x in enumerate(v))


def parse_operator(node: Any, where: str) -> Operator:
    node = _require_mapping(node, where)
    if "matrix" in node:
        _check_keys(node, {"matrix"}, where)
        matrix = _numbers(node["matrix"], f"{where}.matrix")
        try:
            return Operator.from_matrix(matrix)
        except (JungckitError, ValueError, TypeError) as exc:
            raise ConfigValidationError(f"{where}.matrix: {exc}") from exc
    _check_keys(node, {"name", "dim", "value"}, where)
    name = node.get("name")
    dim = _get(node, "dim", where, required=True, integer=True)
    if dim < 1:
        raise ConfigValidationError(f"{where}.dim: must be >= 1")
    if name == "identity":
        return Operator.identity(dim)
    if name == "zero":
        return Operator.zero(dim)
    if name == "scale":
        value = _get(node, "value", where, required=True)
        try:
            return Operator.scaled_identity(value, dim)
        except JungckitError as exc:
            raise ConfigValidationError(f"{where}.value: {exc}") from exc
    raise ConfigValidationError(f"{where}.name: unknown built-in {name!r} (identity, zero, scale)")


def parse_schedule(node: Any, where: str, clamp=(0.0, 1.0)) -> Schedule:
    node = _require_mapping(node, where)
    _check_keys(node, {"form", "value", "k", "p", "values", "clamp"}, where)
    form = node.get("form")
    clamp = _get_pair(node, "clamp", where, clamp)
    lo, hi = clamp

    def check_range(v, label):
        if not lo <= v <= hi:
            raise ConfigValidationError(f"{where}.{label}: value {v} outside clamp range [{lo}, {hi}]")

    try:
        if form == "constant":
            value = _get(node, "value", where, required=True)
            check_range(value, "value")
            return Schedule.constant(value, clamp=clamp)
        if form == "one-minus-inv":
            return Schedule.one_minus_inv(k=_get(node, "k", where, default=2, integer=True), clamp=clamp)
        if form == "inv":
            return Schedule.inv(k=_get(node, "k", where, default=2, integer=True), clamp=clamp)
        if form == "inv-pow":
            return Schedule.inv_pow(k=_get(node, "k", where, default=2, integer=True),
                                    p=_get(node, "p", where, default=2.0), clamp=clamp)
        if form == "list":
            values = node.get("values")
            if not isinstance(values, list) or not values:
                raise ConfigValidationError(f"{where}.values: expected a non-empty list")
            values = [_number(v, f"{where}.values[{i}]") for i, v in enumerate(values)]
            for i, v in enumerate(values):
                check_range(v, f"values[{i}]")
            return Schedule.from_values(values, clamp=clamp)
    except ValueError as exc:
        raise ConfigValidationError(f"{where}: {exc}") from exc
    raise ConfigValidationError(f"{where}.form: unknown form {form!r}")


def parse_gate(node: Any, where: str) -> GatePolicy:
    node = _require_mapping(node, where)
    _check_keys(node, {"mode", "tau", "values"}, where)
    mode = node.get("mode")
    try:
        if mode == "always-on":
            return GatePolicy.always_on()
        if mode == "always-off":
            return GatePolicy.always_off()
        if mode == "threshold":
            return GatePolicy.threshold(_get(node, "tau", where, required=True))
        if mode == "list":
            values = node.get("values")
            if not isinstance(values, list) or not values:
                raise ConfigValidationError(f"{where}.values: expected a non-empty list")
            return GatePolicy.from_values(_number(v, f"{where}.values[{i}]", integer=True)
                                          for i, v in enumerate(values))
    except ValueError as exc:
        raise ConfigValidationError(f"{where}: {exc}") from exc
    raise ConfigValidationError(f"{where}.mode: unknown mode {mode!r}")


@dataclass
class StabilityOptions:
    horizon: int = 200
    tail_start: int = 0
    tail_tol: float = 0.01
    positivity: bool = False


# Each scenario block checks its own values when built, also by the replace of an
# override; every range test is written so that NaN fails it.


@dataclass(frozen=True)
class JungckScenario:
    cfg: engine.JungckConfig
    stability: Optional[StabilityOptions]

    def __post_init__(self):
        opts = self.stability
        if opts is None:
            return
        horizon = max(opts.horizon, self.cfg.steps)  # the horizon the certificates run at
        if not 0 <= opts.tail_start <= horizon - 10:
            raise ConfigValidationError(
                f"jungck.stability.tail_start: need 0 <= tail_start <= horizon - 10, where horizon = "
                f"max(stability.horizon, steps) = {horizon}; got {opts.tail_start}")
        if not opts.tail_tol >= 0:
            raise ConfigValidationError(f"jungck.stability.tail_tol: must be >= 0, got {opts.tail_tol}")


@dataclass(frozen=True)
class VenterScenario:
    cfg: venter.VenterConfig
    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ConfigValidationError(f"venter.eps: must be > 0, got {self.eps}")


@dataclass(frozen=True)
class AitkenScenario:
    terms: np.ndarray | GeometricSequence  # the raw sequence: the parsed rows, or made block by block
    gate: GatePolicy
    floor_scale: float

    @property
    def geometric_limit(self) -> Optional[np.ndarray]:
        """The limit of a synthetic sequence, None for parsed values."""
        return self.terms.limit if isinstance(self.terms, GeometricSequence) else None

    def __post_init__(self):
        if not self.floor_scale > 0:
            raise ConfigValidationError(f"aitken.floor_scale: must be > 0, got {self.floor_scale}")


@dataclass
class ExperimentConfig:
    scenario: str
    output: Optional[str]
    jungck: Optional[JungckScenario] = None
    venter: Optional[VenterScenario] = None
    aitken: Optional[AitkenScenario] = None
    scan: Optional[ScanSpec] = None

    def active(self):
        key, _, _ = SCENARIOS[self.scenario]
        block = getattr(self, key)
        if block is None:
            raise ConfigValidationError(f"scenario '{self.scenario}' has no matching config block")
        return block


def _parse_jungck(node: dict) -> JungckScenario:
    where = "jungck"
    _check_keys(node, {
        "s", "t", "a", "b", "gate_z", "gate_y", "z0", "steps", "solve_tol",
        "floor_scale", "nonneg_domain", "stability",
    }, where)
    for key in ("s", "t", "a", "b", "z0", "steps"):
        if key not in node:
            raise ConfigValidationError(f"{where}: missing required key '{key}'")
    s_op = parse_operator(node["s"], f"{where}.s")
    t_op = parse_operator(node["t"], f"{where}.t")
    a = parse_schedule(node["a"], f"{where}.a")
    b = parse_schedule(node["b"], f"{where}.b")
    gate_z = parse_gate(node["gate_z"], f"{where}.gate_z") if "gate_z" in node else GatePolicy.always_on()
    gate_y = parse_gate(node["gate_y"], f"{where}.gate_y") if "gate_y" in node else GatePolicy.always_on()
    steps = _get(node, "steps", where, required=True, integer=True)
    solve_tol = _get(node, "solve_tol", where, default=1e-10)
    floor_scale = _get(node, "floor_scale", where, default=DEFAULT_FLOOR_SCALE)
    z0 = _numbers(node["z0"], f"{where}.z0")
    nonneg = node.get("nonneg_domain", False)
    if not isinstance(nonneg, bool):
        raise ConfigValidationError(f"{where}.nonneg_domain: expected true/false")

    stability_opts = None
    if "stability" in node:
        sub = _require_mapping(node["stability"], f"{where}.stability")
        _check_keys(sub, {"horizon", "tail_start", "tail_tol", "positivity"}, f"{where}.stability")
        positivity = sub.get("positivity", False)
        if not isinstance(positivity, bool):
            raise ConfigValidationError(f"{where}.stability.positivity: expected true/false")
        stability_opts = StabilityOptions(
            horizon=_get(sub, "horizon", f"{where}.stability", default=200, integer=True),
            tail_start=_get(sub, "tail_start", f"{where}.stability", default=0, integer=True),
            tail_tol=_get(sub, "tail_tol", f"{where}.stability", default=0.01),
            positivity=positivity,
        )

    try:
        pair = make_operator_pair(s_op, t_op, tol=solve_tol)
        cfg = engine.JungckConfig(
            pair=pair, a=a, b=b, gates_z=gate_z, gates_y=gate_y,
            z0=np.atleast_1d(np.asarray(z0, dtype=float)),
            steps=steps, floor_scale=floor_scale, nonneg_domain=nonneg,
        )
    except (JungckitError, ValueError, TypeError) as exc:
        raise ConfigValidationError(f"{where}: {exc}") from exc
    return JungckScenario(cfg=cfg, stability=stability_opts)


def _parse_venter(node: dict) -> VenterScenario:
    where = "venter"
    _check_keys(node, {"alpha", "gamma", "omega", "sigma", "x0", "steps", "eps"}, where)
    for key in ("alpha", "x0", "steps"):
        if key not in node:
            raise ConfigValidationError(f"{where}: missing required key '{key}'")
    alpha = parse_schedule(node["alpha"], f"{where}.alpha")
    zero = Schedule.constant(0.0, clamp=(0.0, math.inf))
    gamma = parse_schedule(node["gamma"], f"{where}.gamma", clamp=(0.0, math.inf)) if "gamma" in node else zero
    omega = parse_schedule(node["omega"], f"{where}.omega", clamp=(0.0, math.inf)) if "omega" in node else zero
    sigma = _get(node, "sigma", where, default=0.0)
    x0 = _get(node, "x0", where, required=True)
    steps = _get(node, "steps", where, required=True, integer=True)
    eps = _get(node, "eps", where, default=1e-3)
    if sigma < 0:
        raise ConfigValidationError(f"{where}.sigma: must be >= 0, got {sigma}")
    if x0 < 0:
        raise ConfigValidationError(f"{where}.x0: must be >= 0, got {x0}")
    try:
        cfg = venter.VenterConfig(alpha=alpha, gamma=gamma, omega=omega, sigma=sigma, x0=x0, steps=steps)
    except (JungckitError, ValueError) as exc:
        raise ConfigValidationError(f"{where}: {exc}") from exc
    return VenterScenario(cfg=cfg, eps=eps)


@dataclass(frozen=True)
class GeometricSequence:
    """The rows ``limit + coeff * ratio ** n`` for n = 0..length-1
    (length >= 3), made on demand: ``seq[lo:hi]`` is rows lo..hi-1, bit
    for bit as ``ratio ** n`` gives them one row at a time, and no array of
    all the rows is made unless ``seq[:]`` asks for it.

    One broadcast ``np.power`` takes the rows from n = 3 on: it runs the C
    ``pow`` on each element, as ``ratio ** n`` does for those n.  Rows 0, 1
    and 2 keep the fast paths of ``ratio ** n`` (ones, a copy, a square);
    ``pow(r, 2.0)`` can differ from ``r * r`` in the last bit.  The power
    stops at ``settled`` (``_settled_row``): from there on every term
    rounds to its limit, which is written as it is.
    """

    limit: np.ndarray
    coeff: np.ndarray
    ratio: np.ndarray
    length: int

    @cached_property
    def settled(self) -> int:
        return _settled_row(self.limit, self.coeff, self.ratio, self.length)

    @property
    def shape(self) -> tuple[int, int]:
        return self.length, self.limit.size

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi, step = rows.indices(self.length)
        if step != 1:
            raise InvalidArgumentError(f"rows of a geometric sequence are taken in order, not by step {step}")
        out = np.empty((max(hi - lo, 0), self.limit.size))
        live = out[:max(min(self.settled, hi) - lo, 0)]
        np.power(self.ratio, np.arange(lo, lo + len(live), dtype=float)[:, None], out=live)
        for n in range(lo, min(3, hi)):
            out[n - lo] = self.ratio ** n
        # in place, with the roundings of limit + coeff * powers: no temporaries
        live *= self.coeff
        live += self.limit
        out[len(live):] = self.limit
        return out

    def all_finite(self) -> bool:
        """Whether every term is finite, as testing ``seq[:]`` tells.  Each
        is when ``ratio`` is a number and ``|limit| + |coeff|`` is finite:
        ``|ratio ** n| <= 1``, so ``|coeff * ratio ** n| <= |coeff|``, and
        rounding keeps that order through the sum.  Otherwise the rows are
        made block by block and tested."""
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(np.abs(self.limit) + np.abs(self.coeff) + np.abs(self.ratio)).all():
                return True
            return all(np.isfinite(self[block]).all() for block in row_blocks(*self.shape))


def _settled_row(limit: np.ndarray, coeff: np.ndarray, ratio: np.ndarray, length: int) -> int:
    """The first row n >= 3 of a ``GeometricSequence`` from which, in every
    column, ``limit + coeff * ratio ** n`` rounds to ``limit``; ``length``
    when some column has no such row in reach.

    A column settles at row n when an upper bound on the computed
    ``|coeff * ratio ** n|`` is below a quarter of ``np.spacing(|limit|)``: the gap
    below ``|limit|`` is at least half the spacing (half exactly for a
    power of two), and round-to-nearest keeps ``limit`` for an addend below
    half the gap.  The bound lets ``pow`` be off by 2^-40 relative or one
    subnormal ulp, both at this n and at the n of each term, plus the
    product's own rounding, with room for the roundings of the bound
    itself; for ``|ratio| < 1`` it holds at every later n too.  The row is
    guessed from logarithms and checked with one ``pow`` per column.  A
    column whose limit is 0 or not finite, or whose ratio is not below 1
    in size, has no such row.
    """
    r, c = np.abs(ratio), np.abs(coeff)
    quarter = np.spacing(np.abs(limit)) / 4.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # c r^n < quarter / 2 from this n on
        guess = np.ceil(np.log(quarter / (2.0 * c)) / np.log(r))
        first = np.clip(np.nan_to_num(guess, nan=3.0), 3.0, float(length))
        bound = c * (np.power(r, first) + 2.0 ** -1073) * (1.0 + 2.0 ** -38) + 2.0 ** -1073
    settles = (bound < quarter) & (r < 1.0) & (limit != 0.0) & np.isfinite(limit)
    return int(np.max(np.where(settles, first, length), initial=3))


def _parse_aitken(node: dict) -> AitkenScenario:
    where = "aitken"
    _check_keys(node, {"sequence", "gate", "floor_scale"}, where)
    seq_node = _require_mapping(node.get("sequence"), f"{where}.sequence")
    kind = seq_node.get("kind")
    if kind == "geometric":
        _check_keys(seq_node, {"kind", "limit", "coeff", "ratio", "length"}, f"{where}.sequence")
        try:
            limit, coeff, ratio = (
                np.atleast_1d(np.asarray(_numbers(seq_node.get(key, default), f"{where}.sequence.{key}"), dtype=float))
                for key, default in (("limit", 0.0), ("coeff", 1.0), ("ratio", 0.5))
            )
        except ValueError as exc:  # ragged nested lists
            raise ConfigValidationError(f"{where}.sequence: {exc}") from exc
        length = _get(seq_node, "length", f"{where}.sequence", default=30, integer=True)
        if length < 3:
            raise ConfigValidationError(f"{where}.sequence.length: need >= 3 terms")
        if np.any(np.abs(ratio) >= 1):
            raise ConfigValidationError(f"{where}.sequence.ratio: need |ratio| < 1")
        sizes = {v.size for v in (limit, coeff, ratio)} - {1}
        if any(v.ndim != 1 for v in (limit, coeff, ratio)) or 0 in sizes or len(sizes) > 1:
            raise ConfigValidationError(
                f"{where}.sequence: limit, coeff and ratio must be numbers or lists of one length"
            )
        d = max(limit.size, coeff.size, ratio.size)
        terms = GeometricSequence(*(np.broadcast_to(v, (d,)).astype(float) for v in (limit, coeff, ratio)), length)
        finite = terms.all_finite()
    elif kind == "values":
        _check_keys(seq_node, {"kind", "values"}, f"{where}.sequence")
        raw = seq_node.get("values")
        if not isinstance(raw, list) or len(raw) < 3:
            raise ConfigValidationError(f"{where}.sequence.values: need a list of >= 3 terms")
        try:
            terms = np.atleast_2d(np.asarray(_numbers(raw, f"{where}.sequence.values"), dtype=float))
        except ValueError as exc:  # ragged rows
            raise ConfigValidationError(f"{where}.sequence.values: {exc}") from exc
        if terms.ndim != 2 or not terms.size:
            raise ConfigValidationError(f"{where}.sequence.values: expected numbers or non-empty rows of numbers")
        if terms.shape[0] < 3:
            terms = terms.T
        finite = np.isfinite(terms).all()
    else:
        raise ConfigValidationError(f"{where}.sequence.kind: unknown kind {kind!r} (geometric, values)")
    if not finite:
        raise ConfigValidationError(f"{where}.sequence: every term must be finite")
    gate = parse_gate(node["gate"], f"{where}.gate") if "gate" in node else GatePolicy.always_on()
    floor_scale = _get(node, "floor_scale", where, default=DEFAULT_FLOOR_SCALE)
    return AitkenScenario(terms=terms, gate=gate, floor_scale=floor_scale)


def _parse_scan(node: dict) -> ScanSpec:
    where = "scan"
    _check_keys(node, {"count", "dim", "steps", "horizon", "seed", "mu_range", "t_norm_range", "tail_tol"}, where)
    try:
        return ScanSpec(
            count=_get(node, "count", where, default=100, integer=True),
            dim=_get(node, "dim", where, default=5, integer=True),
            steps=_get(node, "steps", where, default=300, integer=True),
            horizon=_get(node, "horizon", where, default=300, integer=True),
            seed=_get(node, "seed", where, default=12345, integer=True),
            mu_range=_get_pair(node, "mu_range", where, (0.8, 2.5)),
            t_norm_range=_get_pair(node, "t_norm_range", where, (0.05, 0.9)),
            tail_tol=_get(node, "tail_tol", where, default=0.01),
        )
    except ValueError as exc:
        raise ConfigValidationError(f"{where}: {exc}") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate a config document; unknown keys are errors.

    The document is read by libyaml when PyYAML was built with it, else by
    the pure-Python loader; both apply the same YAML 1.1 rules.
    """
    try:
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigParseError(f"config is not valid YAML{loc}: {exc}") from exc
    doc = _require_mapping(doc, "config")
    _check_keys(doc, {"scenario", "output"} | {key for key, _, _ in SCENARIOS.values()}, "config")
    scenario = doc.get("scenario")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigValidationError(f"config.scenario: expected one of {tuple(SCENARIOS)}, got {scenario!r}")
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigValidationError("config.output: expected a path string")

    cfg = ExperimentConfig(scenario=scenario, output=output)
    for key, parse, _ in SCENARIOS.values():
        if key in doc:
            setattr(cfg, key, parse(_require_mapping(doc[key], key)))
    cfg.active()  # the chosen scenario must have its block
    return cfg


def parse_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))  # YAML is UTF-8, whatever the locale


# ---------------------------------------------------------------------------
# serialization


def write_csv(columns, path: Path) -> None:
    """Write ``(name, values)`` columns as one CSV table, in UTF-8.

    ``columns`` is a list of columns, or an iterator of such lists that
    gives the table one row block after another, each block with the same
    columns; a list of whole columns is the simplest source, one block.  A
    2-D array of numbers becomes the columns ``name[0]``, ``name[1]``, ...
    Every cell is written as ``str`` writes it (a float as its shortest
    round-trip decimal).  A column shorter than the longest of its block
    leaves its trailing cells empty.  Rows are formatted in the row blocks
    of ``aitken.row_blocks``, so a long trace never sits in memory as text.  A
    block is first a matrix of integer codes, one per cell, into a table of
    the block's cell texts, and then its bytes, taken from that table by
    the matrix in ``BYTE_CHUNKS`` row chunks; ``-1`` codes the empty cell
    past a column's end.  The float arrays of a block share one
    ``np.unique``, so each distinct value becomes text once, in
    ``floattext.float_texts``, which writes what ``repr`` writes without a
    Python call per value and ``floattext.CHUNK`` floats a kernel call.  Integers
    and bools become text without a Python call per value either: a
    ``range`` column is coded by position and written by
    ``floattext.int_texts``, an array of one-byte items by ``value - min``
    into the fixed table of ``floattext.byte_texts``, and any other integer
    array by ``np.unique`` and ``int_texts``.  Other cells, floats wider
    than 8 bytes included, go through ``str`` one by one.
    Nothing is quoted: a name, or a cell of a column that does not hold
    numbers, that holds a comma, a quote or a line break raises
    ``InvalidArgumentError`` (a ``ValueError``), as does an empty cell in a
    one-column table (it would read back as a blank line), a row block
    whose columns differ from the first block's, or a stream of no row
    blocks, before any file is opened.
    ``path`` stays the last argument: the benchmark's byte counter reads it there.
    """
    blocks = iter([columns] if isinstance(columns, list) else columns)
    block = next(blocks, None)
    if block is None:
        raise InvalidArgumentError("write_csv needs at least one row block, got an empty stream")
    groups = _groups(block)
    del block
    shape = [group[:3] for group in groups]
    header = [name if ndim == 1 else f"{name}[{i}]" for name, ndim, width in shape for i in range(width)]
    lone = len(header) == 1
    _check_cells("the header", header, lone)
    seen = []  # the last float keys and their texts, which a block with the same keys takes over
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        while groups is not None:
            n_rows = max((len(group[3]) for group in groups), default=0)
            for rows in row_blocks(n_rows, len(header)):
                _write_block(fh, groups, rows.start, rows.stop, len(header), lone, seen)
            groups = None  # let go before the source makes the next block
            block = next(blocks, None)
            if block is not None:
                groups = _groups(block)
                if [group[:3] for group in groups] != shape:
                    raise InvalidArgumentError(f"a row block's columns differ from the first block's, {shape}")
                del block


def _groups(columns) -> list:
    """``(name, ndim, width, values)`` for each column of ``columns`` that
    has cells: a 1-D column is one wide, and a 2-D array of numbers as wide
    as its rows (a width of 0 has no cells)."""
    groups = []
    for name, values in columns:
        ndim = getattr(values, "ndim", 1)
        if ndim == 2 and values.dtype.kind in _NUMERIC:
            width = values.shape[1]
        elif ndim == 1:
            width = 1
        else:
            raise InvalidArgumentError(f"column {name!r}: expected a 1-D column or a 2-D array of numbers")
        if width:
            groups.append((name, ndim, width, values))
    return groups


_NUMERIC = "biuf"  # dtype kinds of arrays of numbers; floats wider than 8 bytes are written by str
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')
_FILL = bytes([floattext.FILL])
#: a block's cells are taken from its table, and written, in this many row chunks
BYTE_CHUNKS = 4


def _write_block(fh, groups: list, lo: int, hi: int, width: int, lone: bool, seen: list) -> None:
    """Write rows ``lo:hi`` of the table to ``fh``, each cell as ``str``
    writes it; cells past the end of a column are empty.  ``seen`` holds
    the distinct floats and their texts, ``(keys, texts)``, of the last
    block with floats, its texts the rows of that block's table; a block
    whose floats are all among those keys takes them over (a converged
    trace repeats its values), and any other block frees them, and that
    table, before it sorts its own.

    The cells are coded first: ``codes[r, c]`` indexes the table of the
    block's texts, whose last row is the empty cell, so ``-1`` fills the
    cells past a column's end.  Each group adds its texts to the table as a
    ``uint8`` matrix, and codes its cells into them:

    * a ``range`` column by position, since its values are distinct;
    * a group of bools or one-byte integers by ``value - min``, since the
      dtype bounds the span to 256 values;
    * a group of other integers by ``np.unique``;
    * the float groups of the block together, by ``np.unique`` of their
      float64 bits, since 0.0 and -0.0 compare equal but print
      differently and a NaN equals nothing;
    * any other group cell by cell, its texts written by ``str``.

    The one-byte groups' texts come from ``floattext.byte_texts``, the
    other integers' from ``floattext.int_texts`` and the floats' from
    ``floattext.float_texts``.  Each table row is a text padded with
    ``floattext.FILL`` bytes and a comma; the rows of the cells follow one
    another, the last comma of a line becomes a line break, and deleting
    the ``FILL`` bytes leaves the lines.  The cells are taken from the
    table, become bytes and lose their ``FILL`` bytes in ``BYTE_CHUNKS`` row
    chunks, so one chunk's cells and bytes are held beside the codes and
    the table.
    """
    codes = np.full((hi - lo, width), -1, dtype=np.int32)
    tables, floats = [], []  # tables: the texts of the groups, in code order; floats: (columns, rows)
    count = 0  # the table rows so far
    col = 0
    for name, _, wide, values in groups:
        part, cols = values[lo:hi], slice(col, col + wide)
        col += wide
        if not len(part):
            continue
        if isinstance(part, range):
            texts = floattext.int_texts(np.arange(part.start, part.stop, part.step))
            local = np.arange(len(part))[:, None]
        elif not (isinstance(part, np.ndarray) and part.dtype.kind in _NUMERIC):
            cells = list(map(str, part.tolist() if isinstance(part, np.ndarray) else part))
            _check_cells(f"column {name!r}", cells, lone)
            texts, local = _text_rows(cells), np.arange(len(cells))[:, None]
        else:
            part = part.reshape(len(part), wide)
            if part.dtype.kind == "f" and part.dtype.itemsize <= 8:
                floats.append((cols, part))
                continue
            if part.dtype.kind == "f":
                # a wider float: its scalar's repr is np.longdouble('...'), and np.unique
                # would merge 0.0 with -0.0, so each cell is written by str on its own
                texts = _text_rows(list(map(str, part.ravel().tolist())))
                local = np.arange(part.size).reshape(part.shape)
            elif part.dtype.itemsize == 1:
                small = part.view(np.uint8) if part.dtype.kind == "b" else part
                low = int(small.min())
                texts = floattext.byte_texts(low, int(small.max()), part.dtype.kind == "b")
                local = small - np.array(low, dtype=np.int64)
            else:
                keys, local = np.unique(part, return_inverse=True)
                texts, local = floattext.int_texts(keys), local.reshape(part.shape)
        codes[:len(local), cols] = local + count
        del local  # freed before the floats are coded
        tables.append(texts)
        count += len(texts)
    if floats:
        with np.errstate(invalid="ignore"):  # a signaling NaN widens to a quiet one, with a warning
            flat = np.concatenate([part.ravel() for _, part in floats], dtype=np.float64)
        bits = flat.view(np.uint64)
        inverse = _positions(seen[0][0], bits) if seen else None
        if inverse is None:
            seen.clear()  # the texts of the block before are freed before the sort
            keys, inverse = np.unique(bits, return_inverse=True)
        inverse += count
        start = 0
        for cols, part in floats:
            codes[:len(part), cols] = inverse[start:start + part.size].reshape(part.shape)
            start += part.size
        del flat, bits, inverse  # freed before the texts are made
        if not seen:
            seen.append((keys, floattext.float_texts(keys.view(np.float64))))
        keys, texts = seen[0]
        tables.append(texts)
        count += len(keys)
    table = np.full((count + 1, max((t.shape[1] for t in tables), default=0) + 1), floattext.FILL, dtype=np.uint8)
    table[:, -1] = ord(",")
    start = 0
    for texts in tables:
        table[start:start + len(texts), :texts.shape[1]] = texts
        start += len(texts)
    if floats:
        seen[0] = (keys, table[start - len(keys):start, :-1])  # the texts taken over, not held twice
        del keys
    tables = texts = None
    chunk = -(-len(codes) // BYTE_CHUNKS)
    for r in range(0, len(codes), chunk):
        cells = np.take(table, codes[r:r + chunk], axis=0)
        cells[:, -1, -1] = ord("\n")
        fh.write(cells.tobytes().translate(None, _FILL))


def _positions(keys: np.ndarray, bits: np.ndarray) -> np.ndarray | None:
    """The position of each of ``bits`` in the sorted ``keys``, or ``None``
    if one of them is not there."""
    if not (keys[0] <= bits.min() and bits.max() <= keys[-1]):
        return None
    positions = keys.searchsorted(bits)
    return positions if np.array_equal(keys[positions], bits) else None


def _text_rows(cells: list) -> np.ndarray:
    """The texts ``cells`` as a ``uint8`` matrix, one row each, padded with ``FILL`` bytes."""
    encoded = [cell.encode() for cell in cells]
    size = max(map(len, encoded), default=0)
    return np.frombuffer(b"".join(text.ljust(size, _FILL) for text in encoded),
                         dtype=np.uint8).reshape(len(encoded), size)


def _check_cells(where: str, cells: list, lone: bool) -> None:
    """Raise ``ValueError`` for a cell that would need CSV quoting."""
    if _NEEDS_QUOTES.search("".join(cells)) or (lone and "" in cells):
        bad = next(c for c in cells if _NEEDS_QUOTES.search(c) or (lone and c == ""))
        raise InvalidArgumentError(f"{where}: cell {bad!r} needs CSV quoting (a comma, quote or line break, "
                         "or an empty cell alone in its row)")


def _optional(values, show=lambda v: str(v).lower()) -> list:
    """Cells of optional values: empty for None, else ``show`` (default: a lower-case bool)."""
    return ["" if v is None else show(v) for v in values]


# ---------------------------------------------------------------------------
# scenario runners


class Report:
    """Ordered PASS/FAIL/INFO lines; exit status is 0 iff no FAIL."""

    def __init__(self):
        self.lines: list[tuple[str, str]] = []

    def add(self, status: str, text: str) -> None:
        self.lines.append((status, text))

    def ok(self, passed: bool, text: str) -> None:
        self.add("PASS" if passed else "FAIL", text)

    @property
    def failed(self) -> bool:
        return any(status == "FAIL" for status, _ in self.lines)

    @property
    def checked(self) -> bool:
        """Whether any PASS or FAIL line was emitted."""
        return any(status != "INFO" for status, _ in self.lines)

    def render(self) -> str:
        return "".join(f"{status} {text}\n" for status, text in self.lines)


def _run_jungck(scn: JungckScenario, outdir: Path, report: Report) -> None:
    cfg = scn.cfg
    opts = scn.stability
    fold = None
    if opts is not None:
        horizon = max(opts.horizon, cfg.steps)
        # the certificate constants read the powers the run forms
        try:
            fold = stability.ConstantsFold(cfg, horizon, opts.tail_start)
        except (JungckitError, ValueError):
            pass  # certify raises it again after the run, where the report places it
    trace = engine.run(cfg, fold=fold)
    residuals = engine.identity_residuals(trace)
    write_csv([("n", range(trace.n_raw)), ("z", trace.z), ("y", trace.y), ("Sz", trace.sz), ("Sy", trace.sy),
               ("ASz", trace.asz), ("ASy", trace.asy), ("gate_z", trace.gates_z), ("gate_y", trace.gates_y),
               ("identity_residual", residuals)], outdir / "trace.csv")
    pair = cfg.pair
    report.add("INFO", f"jungck run: dim={cfg.dim} steps={cfg.steps} rows={trace.n_raw}")
    report.add("INFO", f"operator data: min_modulus(s)={pair.s_min_modulus:.6g} "
                       f"norm(s)={pair.s_norm:.6g} norm(t)={pair.t_norm:.6g}")
    if pair.inverse_solve_warning is not None:
        report.add("INFO", f"solve accuracy: {pair.inverse_solve_warning}")
    if trace.diverged:
        report.add("FAIL", f"run diverged and was truncated: {trace.failure}")

    if trace.n_raw >= 2:
        rel = np.divide(residuals, engine.identity_scales(trace), out=np.zeros_like(residuals),
                        where=residuals > 0)
        worst = float(np.max(rel))
        report.ok(worst <= IDENTITY_TOL, f"identity-residual: max relative {worst:.3e} (tol {IDENTITY_TOL:g})")
    else:
        report.add("INFO", "identity-residual: skipped, trace too short")

    if opts is not None:
        try:
            sreport = stability.certify(cfg, horizon=horizon, tail_start=opts.tail_start, tail_tol=opts.tail_tol,
                                        constants=None if fold is None else fold.constants())
        except IndexOutOfRangeError:
            report.add("INFO", f"certificates skipped: schedules not evaluable through horizon {horizon}")
            sreport = None
        if sreport is not None:
            constants = sreport.constants
            report.add("INFO", f"certificate constants: formed {constants.powers_read} of {horizon + 1} "
                               f"powers of t, ran {constants.svds_run} SVDs")
            for name, res in sreport.properties.items():
                report.add("INFO", f"certificate {name}: applies={res.applies} margin={res.margin:.6g}")
            report.add("INFO", f"certificate prediction: {sreport.predicted} (horizon {sreport.horizon})")
            sreport = stability.cross_validate(sreport, trace)
            if sreport.simulation_agrees is None:
                report.add("INFO", "certificate cross-check: no certificate applies; nothing to check")
            else:
                report.ok(sreport.simulation_agrees,
                          "certificate cross-check: " + "; ".join(sreport.simulation_notes))
        if opts.positivity and sreport is not None:
            pos = stability.check_positivity_constraints(cfg, horizon=horizon, tol=opts.tail_tol)
            report.ok(pos.b_in_range and pos.b_tends_to_one,
                      f"positivity constraint 1: b in (0,1] and tends to 1 "
                      f"(tail deviation {pos.b_tail_deviation:.3g})")
            report.ok(pos.a_in_range and pos.a_tail_limit is not None,
                      f"positivity constraint on a: in [0,1] with tail limit {pos.a_tail_limit}")
            report.ok(pos.s_inv_nonneg and pos.t_nonneg,
                      f"positivity constraint 3: min entry inv(s)={pos.min_s_inv_entry:.3g} "
                      f"t={pos.min_t_entry:.3g}")

    if cfg.nonneg_domain and trace.n_raw:
        low = float(np.min(trace.sz))
        report.ok(low >= -NONNEG_SLACK, f"nonnegative orthant: min Sz component {low:.3e}")

    try:
        conv = diagnostics.build_convergence_report(trace.sz, trace.asz)
    except (NotConvergingError, SequenceTooShortError) as exc:
        report.add("INFO", f"limit diagnostics skipped: {exc}")
        return
    report.add("INFO", f"limit of Sz ({conv.limit_method}): {np.array2string(conv.estimated_limit, precision=8)}")
    ratios = conv.accel_ratios
    if ratios:
        mid = len(ratios) // 2
        report.add("INFO", f"acceleration ratios |ASz-L|/|Sz-L|: first={ratios[0]:.3e} "
                           f"mid={ratios[mid]:.3e} last={ratios[-1]:.3e} ({len(ratios)} reported)")
    else:
        report.add("INFO", "acceleration ratios: raw sequence already at its limit")
    if conv.equivalent is None:
        report.add("INFO", conv.notes[-1])  # why equivalence was not decidable
    else:
        report.ok(conv.equivalent, f"limit equivalence Sz vs ASz (tol {diagnostics.EQUIVALENCE_TOL:g})")


def _run_venter(scn: VenterScenario, outdir: Path, report: Report) -> None:
    cfg = scn.cfg
    trace = venter.venter_run(cfg)
    write_csv([("n", range(trace.steps + 1)), ("x", trace.x), ("k_hat", trace.k_hat),
               ("alpha", trace.alpha_vals), ("gamma", trace.gamma_vals), ("omega", trace.omega_vals),
               ("sum_alpha_x", trace.sum_alpha_x), ("sum_gamma_x", trace.sum_gamma_x),
               ("sum_omega", trace.sum_omega), ("sum_x", trace.sum_x)], outdir / "trace.csv")
    report.add("INFO", f"venter run: steps={cfg.steps} sigma={cfg.sigma:g} x0={cfg.x0:g}")
    k_hat = trace.k_hat_final
    report.add("INFO", f"cesaro mean K_hat at horizon: {k_hat!r}")
    if k_hat > venter.K_HAT_WARN:
        report.add("INFO", f"K_hat exceeds {venter.K_HAT_WARN}; contraction-style bounds are near-vacuous")

    try:
        verdict = venter.verify_summability(trace, cfg)
        report.ok(verdict.passed,
                  f"telescoping identity: worst residual {verdict.value:.3e} (tol {verdict.threshold:.3e})")
    except HypothesisViolatedError as exc:
        report.add("INFO", f"telescoping identity: skipped ({exc})")

    try:
        verdict = venter.verify_property_i(trace, cfg, scn.eps)
        div_txt = {True: "diverges", False: "converges", None: "unknown"}[verdict.info["sum_alpha_diverges"]]
        report.ok(verdict.passed,
                  f"decay-to-zero: x_N={verdict.value:.3e} (eps {verdict.threshold:g}; alpha series {div_txt})")
        info = verdict.info
        report.ok(info["expansion_holds"], f"geometric-expansion identity: residual "
                                           f"{info['expansion_residual']:.3e} (tol {info['expansion_tol']:.3e})")
    except HypothesisViolatedError as exc:
        report.add("INFO", f"decay-to-zero: skipped ({exc})")

    try:
        verdict = venter.verify_property_iv(trace, cfg)
        report.ok(verdict.passed,
                  f"uniform bound: sup x={verdict.value!r} bound={verdict.threshold!r} margin={verdict.margin:.3e}")
    except HypothesisViolatedError as exc:
        report.add("INFO", f"uniform bound: skipped ({exc})")


def _aitken_block_rows(d: int) -> int:
    """The windows in one block of an aitken-only run of ``d`` columns:
    whole row blocks of its trace.csv (columns n, x, Ax and gate), about
    ``aitken.BLOCK_ELEMENTS`` entries of terms in all."""
    step = block_rows(1 + 3 * d)
    return step * block_rows(d * step)


def _run_aitken(scn: AitkenScenario, outdir: Path, report: Report) -> None:
    """Correct, write and check the sequence one row block at a time: a
    geometric one is never held whole, and parsed values only as parsed."""
    terms, lim = scn.terms, scn.geometric_limit
    geometric = lim is not None
    n, d = terms.shape
    # refuses a sequence before any row is written
    blocks = corrected_blocks(terms, scn.gate, scn.floor_scale, _aitken_block_rows(d))
    estimate = None  # the report line of the limit estimate of parsed values
    if lim is None:
        try:
            est = diagnostics.estimate_limit(terms)  # reads the last 11 terms
            estimate = f"limit estimate ({est.method}): {np.array2string(est.value, precision=8)}"
            lim = est.value
        except (NotConvergingError, SequenceTooShortError) as exc:
            estimate = f"limit estimate skipped: {exc}"
    worst, applied = 0.0, 0  # the largest |Ax - L| of a geometric sequence, and the gates applied
    ratios, floored = [], lim is None  # the first and last ratios, taken up to the first raw row at the floor

    def rows():
        """The trace's row blocks; each is folded into the checks once written."""
        nonlocal worst, applied, ratios, floored
        lo = 0
        for window, accel, gates in blocks:
            raw = window if lo + len(window) == n else window[:len(accel)]  # the last block ends the trace
            yield [("n", range(lo, lo + len(raw))), ("x", raw), ("Ax", accel), ("gate", gates)]
            lo += len(raw)
            applied += int(np.count_nonzero(gates))
            if geometric:
                with np.errstate(over="ignore"):  # a difference past the float range is an inf miss
                    worst = max(worst, float(np.max(diagnostics.distances(accel, lim))))
            if not floored:
                part = diagnostics.acceleration_ratio(window, accel, lim)
                floored = len(part) < len(accel)
                if part:  # a block that starts at the floor row adds no ratio
                    ratios = (ratios or part)[:1] + part[-1:]
            del window, raw, accel, gates  # let go before the next block is made

    write_csv(rows(), outdir / "trace.csv")
    report.add("INFO", f"aitken run: {n} terms, dim={d}")
    if geometric:
        tol = 1e-10 * (1.0 + float(exact_row_norms(lim[None])[0]))
        report.ok(worst <= tol, f"geometric exactness: worst |Ax - L| = {worst:.3e} (tol {tol:.3e})")
    if estimate is not None:
        report.add("INFO", estimate)
    if ratios:
        report.add("INFO", f"acceleration ratios: first={ratios[0]:.3e} last={ratios[-1]:.3e}")
    report.add("INFO", f"gates applied: {applied} of {(n - 2) * d} components")


def _run_scan(spec: ScanSpec, outdir: Path, report: Report) -> None:
    result = run_scan(spec)
    outs = result.outcomes
    write_csv([("index", [o.index for o in outs]), ("certified", ["+".join(o.certified) or "none" for o in outs]),
               ("predicted", [o.predicted for o in outs]),
               ("simulation_agrees", _optional(o.simulation_agrees for o in outs)),
               ("monotone_ok", _optional(o.monotone_ok for o in outs)),
               ("final_ratio", _optional((o.final_ratio for o in outs), repr))], outdir / "trace.csv")
    counts = result.counts_by_property()
    report.add("INFO", f"scan: {spec.count} configs, dim={spec.dim}, steps={spec.steps}, seed={spec.seed}")
    report.add("INFO", "certified counts: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    report.add("INFO", f"configs with any certificate: {result.certified_count}")
    violations = result.violations
    report.ok(not violations, f"certificate soundness: {len(violations)} violation(s)")
    for o in violations:
        report.add("INFO", f"violating config index {o.index}: certified={o.certified} notes={o.notes}")


#: scenario name -> (config block, parser, runner); the block is also the
#: ExperimentConfig attribute that holds the parsed scenario
SCENARIOS = {
    "jungck": ("jungck", _parse_jungck, _run_jungck),
    "venter": ("venter", _parse_venter, _run_venter),
    "aitken-only": ("aitken", _parse_aitken, _run_aitken),
    "stability-scan": ("scan", _parse_scan, _run_scan),
}


def run_experiment(cfg: ExperimentConfig, output_dir: str | Path | None = None, quiet: bool = False) -> int:
    """Run the configured scenario; write trace.csv and report.txt.

    Returns the exit status: 0 when every enabled check passed, 1 when any
    FAIL line was emitted, no check ran or the run errored.
    """
    outdir = Path(output_dir or cfg.output or "out")
    outdir.mkdir(parents=True, exist_ok=True)
    report = Report()
    try:
        _, _, run = SCENARIOS[cfg.scenario]
        run(cfg.active(), outdir, report)
    except JungckitError as exc:
        report.add("FAIL", f"run aborted: {exc}")
    if not report.checked:
        report.add("FAIL", f"no check ran: every check of this {cfg.scenario} run was skipped or does not apply")
    (outdir / "report.txt").write_text(report.render(), encoding="utf-8")
    if not quiet:
        sys.stdout.write(report.render())
    return 1 if report.failed else 0


# ---------------------------------------------------------------------------
# entry point


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jungckit",
        description="Run two-map iteration experiments from a config file and "
                    "emit a CSV trace plus a PASS/FAIL report.",
    )
    parser.add_argument("--config", required=True, help="path to the YAML experiment config")
    parser.add_argument("--output", default=None, help="output directory (default: config's, else ./out)")
    parser.add_argument("--steps", type=int, default=None, help="override the scenario's step count")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the scenario's main tolerance (jungck: solve_tol, "
                             "venter: eps, aitken-only: floor_scale, stability-scan: tail_tol)")
    parser.add_argument("--scenario", default=None, choices=SCENARIOS,
                        help="override the config's scenario (its block must be present)")
    parser.add_argument("--quiet", action="store_true", help="do not echo the report to stdout")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """Apply --scenario, --steps and --tolerance.  Each new block is built
    with ``dataclasses.replace``, so it is checked as a parsed one is."""
    if args.scenario:
        cfg.scenario = args.scenario
    key, _, _ = SCENARIOS[cfg.scenario]
    block = cfg.active()
    try:
        if args.steps is not None:
            if cfg.scenario == "aitken-only":
                raise ConfigValidationError("--steps does not apply to aitken-only (set sequence.length)")
            if cfg.scenario == "stability-scan":
                block = replace(block, steps=args.steps)
            else:
                block = replace(block, cfg=replace(block.cfg, steps=args.steps))
        if args.tolerance is not None:
            tol = args.tolerance
            if cfg.scenario == "jungck":
                block = replace(block, cfg=replace(block.cfg, pair=replace(block.cfg.pair, solve_tol=tol)))
            else:
                name = {"venter": "eps", "aitken-only": "floor_scale", "stability-scan": "tail_tol"}[cfg.scenario]
                block = replace(block, **{name: tol})
    except ConfigValidationError:
        raise
    except (JungckitError, ValueError) as exc:  # a library check, worded as the parser words it
        raise ConfigValidationError(f"{key}: {exc}") from exc
    setattr(cfg, key, block)
    return cfg


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        cfg = parse_config(args.config)
        cfg = _apply_overrides(cfg, args)
    except (JungckitError, ValueError) as exc:  # config errors and bad override combinations
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"cannot read config: {exc}\n")
        return 2
    try:
        return run_experiment(cfg, output_dir=args.output, quiet=args.quiet)
    except JungckitError as exc:
        sys.stderr.write(f"run failed: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
