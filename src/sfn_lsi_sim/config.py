"""Experiment configuration: INI files, JSON manifests, flag overrides.

A config file fully determines a run.  Parsing validates every field and
reports all problems at once, each message naming the offending key and the
accepted range; numbers must be finite.  One table of keys (``_KEYS``)
drives the unknown-key checks, the parsing, the assembly and the manifest:
each row names the ExperimentConfig attribute it fills, such as
``"grid.isd"``, and the manifest reads that attribute back.  Each key's
parser also rejects a value outside the key's own range, as "out of range
(got ...)", so ``config_from_mapping`` checks only the rules that join keys;
a dataclass rule that names its field is reported under that field's key.
The JSON manifest written by a run contains the resolved configuration in
the same schema and parses back to an identical ExperimentConfig, so a
manifest alone reproduces its run.  A manifest key takes only the JSON type
that the manifest writes for it.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import sys
import types
import typing
from dataclasses import dataclass, is_dataclass, replace
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, NamedTuple

from sfn_lsi_sim.allocation import ContentPlan, SchemeConfig, SchemeKind, is_mod_order
from sfn_lsi_sim.errors import ConfigurationError, ConfigValidationError
from sfn_lsi_sim.grid import D_MIN_M, AreaKind, EvalArea, GridSpec
from sfn_lsi_sim.propagation import PathLossKind, PathLossModel, RadioEnv, gain

MANIFEST_FORMAT = "sfn-lsi-sim/manifest-v1"

# Upper bound on eval.resolution and --resolution: samples per cell edge.
MAX_RESOLUTION = 200

# Upper bound on grid.rows and grid.cols: 125 times the paper's cells.  A
# 100 x 100 grid ran --resolution 2 in 0.5 s on a 2-CPU x86 machine, and
# every cell adds a window to every kernel slab, so larger grids only run
# slower.  It also keeps hypot(cols, rows) a small float.
MAX_GRID_SIDE = 100

# Upper bound on contents.count: every content-count map then fits uint8
# and every count PGM's maxval stays <= 255.  It also bounds the lists that
# a single value broadcasts to.
MAX_CONTENTS = 255

# Upper bound on the largest SINR and spectral efficiency a config can
# give: far inside float64's range, so the engine's sums and divisions stay
# finite.
MAX_RATIO = 1e300


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated run description."""

    grid: GridSpec
    plan: ContentPlan
    schemes: tuple[SchemeConfig, ...]
    imo_buffer_reallocation: str
    pathloss: PathLossModel
    n0: float
    resolution: int
    thresholds_db: tuple[float, ...]
    coverage_area_kind: AreaKind
    map_area_kind: AreaKind
    content_map_threshold_db: float
    out_dir: str
    emit_sinr_maps: bool
    seed: int

    def env(self) -> RadioEnv:
        return RadioEnv(n0=self.n0, pathloss=self.pathloss)

    def coverage_area(self) -> EvalArea:
        return EvalArea(kind=self.coverage_area_kind, resolution=self.resolution)

    def map_area(self) -> EvalArea:
        return EvalArea(kind=self.map_area_kind, resolution=self.resolution)

    def to_mapping(self) -> dict[str, dict[str, Any]]:
        """Schema-shaped mapping of the resolved config (manifest payload):
        each row's attribute, an enum as its value, the schemes as their
        config text and any other tuple as a list."""
        mapping: dict[str, dict[str, Any]] = {}
        for row in _KEYS:
            value = attrgetter(row.field)(self)
            if row.field == "schemes":
                value = ", ".join(map(_scheme_entry, value))
            elif isinstance(value, Enum):
                value = value.value
            elif isinstance(value, tuple):
                value = list(value)
            mapping.setdefault(row.section, {})[row.key] = value
        return mapping


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _shown(value: Any) -> str:
    """``value`` for an error line, by its length where it is longer than
    any float's repr (24 characters): a long integer or text."""
    text = repr(value)
    if len(text) <= 24:
        return text
    if isinstance(value, int):
        return f"an integer of {len(text.lstrip('-'))} digits"
    return f"a text of {len(value)} characters"


def _checked(parse: Callable[[str], Any], ok: Callable[[Any], bool]) -> Callable[[str], Any]:
    """``parse``, rejecting a parsed value outside the key's own range."""
    def parse_checked(text: str) -> Any:
        value = parse(text)
        if not ok(value):
            raise ValueError(f"out of range (got {_shown(value)})")
        return value
    return parse_checked


def _choice(kind: type[Enum], case: Callable[[str], str]) -> Callable[[str], Enum]:
    """Parser of an enum key whose values are spelled in ``case``; a value
    out of range is shown as typed."""
    in_range = _checked(str, lambda text: case(text) in {k.value for k in kind})
    return lambda text: kind(case(in_range(text)))


def _list_of(parse: Callable[[str], Any]) -> Callable[[str], tuple]:
    def parse_list(text: str) -> tuple:
        parts = text.replace(",", " ").split()
        if not parts:
            raise ValueError("empty list")
        return tuple(parse(p) for p in parts)
    return parse_list


def _parse_scheme_entry(entry: str, imo_realloc: str) -> SchemeConfig:
    name, _, beta_text = entry.partition(":")
    name = name.strip().lower()
    beta = 1.0
    if beta_text.strip():
        if name in ("olsi", "reuse1"):
            raise ValueError(f"{name} takes no beta (got {entry.strip()!r})")
        beta = float(beta_text)
    if name == "reuse1":
        return SchemeConfig(SchemeKind.IMLSI_PS, beta=1.0, label="reuse1")
    if name == "olsi":
        return SchemeConfig(SchemeKind.OLSI)
    if name == "ps":
        return SchemeConfig(SchemeKind.IMLSI_PS, beta=beta)
    if name == "imo":
        return SchemeConfig(SchemeKind.IMLSI_O, beta=beta, buffer_reallocation=imo_realloc)
    raise ValueError(
        f"unknown scheme {entry!r} (use olsi, reuse1, ps:<beta>, imo:<beta>)"
    )


def _scheme_entry(scheme: SchemeConfig) -> str:
    """Inverse of ``_parse_scheme_entry``, without the reallocation."""
    if scheme.label == "reuse1":
        return "reuse1"
    if scheme.kind is SchemeKind.OLSI:
        return "olsi"
    return f"{scheme.kind.value}:{scheme.beta!r}"


_REQUIRED = object()
# A required value that is missing or bad, or a part that failed its rules:
# not None, which is power_prime_w's default.
_BAD = object()


class _Key(NamedTuple):
    """One config key: the dotted ExperimentConfig attribute it fills, its
    parser, which also rejects values outside the key's own range, what it
    accepts and its default (or ``_REQUIRED``)."""

    section: str
    key: str
    field: str
    parse: Callable[[str], Any]
    expect: str
    default: Any


_POSITIVE = _checked(_finite, lambda v: v > 0)
_POWERS = _list_of(_checked(_finite, lambda p: p >= 0))

# Every config key, once.  Unknown-key checks, parsing, assembly and the
# manifest all read this table.  Tuple-valued [contents] keys hold one value
# per content and broadcast from a single value.
_KEYS = (
    _Key("grid", "rows", "grid.rows", _checked(int, lambda n: 1 <= n <= MAX_GRID_SIDE),
         f"integer in [1, {MAX_GRID_SIDE}]", _REQUIRED),
    _Key("grid", "cols", "grid.cols", _checked(int, lambda n: 2 <= n <= MAX_GRID_SIDE),
         f"integer in [2, {MAX_GRID_SIDE}]", _REQUIRED),
    _Key("grid", "isd_m", "grid.isd", _POSITIVE,
         "positive meters, with hypot(cols, rows)*isd_m a finite float", _REQUIRED),
    # The side cap bounds both splits, so GridSpec only relates them to cols.
    _Key("grid", "lsa1_cols", "grid.lsa1_cols", _checked(int, lambda n: 1 <= n < MAX_GRID_SIDE),
         "integer in [1, cols-1]", _REQUIRED),
    _Key("grid", "buffer_cols_per_side", "grid.buffer_cols_per_side",
         _checked(int, lambda n: 1 <= n <= MAX_GRID_SIDE // 2),
         "integer in [1, min(lsa1_cols, cols-lsa1_cols)]", 1),
    _Key("contents", "count", "plan.m_count", _checked(int, lambda m: 2 <= m <= MAX_CONTENTS),
         f"integer in [2, {MAX_CONTENTS}], so that count maps fit 8 bits", _REQUIRED),
    _Key("contents", "bandwidth_hz", "plan.bandwidth_hz", _list_of(_POSITIVE),
         "positive Hz, 1 or M values, with n0*B a normal float", _REQUIRED),
    _Key("contents", "subcarriers", "plan.subcarriers", _list_of(_checked(int, lambda s: s >= 1)),
         "positive integers, 1 or M values, with sum(S*log2(mu)) a finite float", _REQUIRED),
    _Key("contents", "mod_order", "plan.mod_order", _list_of(_checked(int, is_mod_order)),
         "powers of two >= 2, 1 or M values", _REQUIRED),
    _Key("contents", "t_sym_s", "plan.t_sym", _POSITIVE,
         f"positive seconds, with sum(S*log2(mu)) / (t_sym*sum(B)) <= {MAX_RATIO:g}", _REQUIRED),
    _Key("contents", "power_w", "plan.base_power", _POWERS,
         "non-negative watts, 1 or M values, with sum(power_w) > 0 and cells*sum(power_w)"
         f"*g({D_MIN_M:g} m) / (n0*min(B)) <= {MAX_RATIO:g}", _REQUIRED),
    _Key("contents", "power_prime_w", "plan.base_power_prime", _POWERS,
         "non-negative watts, 1 or M values, the first equal to power_w's, "
         f"with cells*sum(power_prime_w)*g({D_MIN_M:g} m) / (n0*min(B)) <= {MAX_RATIO:g}",
         None),
    _Key("propagation", "model", "pathloss.kind", _choice(PathLossKind, str.lower),
         "power_law or hata", _REQUIRED),
    # Each range below binds under one model only, so PathLossModel checks it.
    _Key("propagation", "eta", "pathloss.eta", _finite, "2 <= eta <= 6", 3.5),
    _Key("propagation", "f_mhz", "pathloss.f_mhz", _finite, "150 <= f_mhz <= 1500", 700.0),
    _Key("propagation", "hb_m", "pathloss.hb_m", _finite, "30 <= hb_m <= 200", 30.0),
    _Key("propagation", "hm_m", "pathloss.hm_m", _finite, "1 <= hm_m <= 10", 1.5),
    _Key("radio", "n0_w_per_hz", "n0", _POSITIVE, "positive W/Hz, with n0*B a normal float",
         _REQUIRED),
    # config_from_mapping splits it into SchemeConfigs, naming each bad entry.
    _Key("schemes", "list", "schemes", str, "comma list of olsi|reuse1|ps:<beta>|imo:<beta>",
         _REQUIRED),
    _Key("schemes", "imo_buffer_reallocation", "imo_buffer_reallocation",
         _checked(str.lower, lambda r: r in ("global", "none")), "global or none", "global"),
    _Key("eval", "resolution", "resolution", _checked(int, lambda r: 1 <= r <= MAX_RESOLUTION),
         f"integer in [1, {MAX_RESOLUTION}]", _REQUIRED),
    _Key("eval", "thresholds_db", "thresholds_db", _list_of(_finite), "one or more dB values",
         _REQUIRED),
    _Key("eval", "coverage_area", "coverage_area_kind", _choice(AreaKind, str.upper),
         "a1 or a2", AreaKind.A1),
    _Key("eval", "map_area", "map_area_kind", _choice(AreaKind, str.upper), "a1 or a2",
         AreaKind.A2),
    _Key("eval", "content_map_threshold_db", "content_map_threshold_db", _finite, "dB value",
         15.0),
    _Key("output", "dir", "out_dir", str, "directory path", _REQUIRED),
    _Key("output", "emit_sinr_maps", "emit_sinr_maps", _parse_bool, "true or false", False),
    _Key("output", "seed", "seed", _checked(int, lambda s: s >= 0), "integer >= 0", 0),
)
_ROWS = {f"{row.section}.{row.key}": row for row in _KEYS}
# The key of each attribute a row fills.
_NAMES = {row.field: name for name, row in _ROWS.items()}

# The declared type of every ExperimentConfig attribute and of every field
# of its dataclass parts, by dotted name: "grid" is GridSpec, "grid.isd" float.
_TYPES = typing.get_type_hints(ExperimentConfig)
_TYPES.update({f"{part}.{field}": hint for part, cls in tuple(_TYPES.items())
               if is_dataclass(cls) for field, hint in typing.get_type_hints(cls).items()})
# The section of each dataclass part's keys, for a rule that names no field.
_SECTIONS = {row.field.partition(".")[0]: row.section for row in _KEYS}

# The JSON type of each Python type that json.loads gives, null aside.
_JSON_TYPES = {bool: "boolean", int: "number", float: "number", str: "string", list: "list",
               dict: "object"}


def _written_type(field: str) -> tuple[str, bool]:
    """The JSON type ``to_mapping`` writes for attribute ``field``, of each
    entry where it writes a list, and whether it writes one.  An enum and
    the schemes are written as text."""
    hint = _TYPES[field]
    if isinstance(hint, types.UnionType):  # tuple[float, ...] | None
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple and field != "schemes":
        return _JSON_TYPES[typing.get_args(hint)[0]], True
    return _JSON_TYPES.get(hint, "string"), False


def _error(name: str, problem: str) -> str:
    """The error line for key ``name`` ("section.key"), with what it expects."""
    return f"{name}: {problem}; expected {_ROWS[name].expect}"


def _finite_run_errors(spec: GridSpec, plan: ContentPlan, pathloss: PathLossModel,
                       n0: float) -> list[str]:
    """Where a plan would make a run's numbers non-finite, one message per
    key at fault, giving its bound.

    Per content the noise is n0*B and no point receives more than every
    cell's power budget at the gain of ``D_MIN_M``, so the bounds on the
    noise and on that power over it keep every SINR finite; every scheme
    weights a content by at most 1, so the bounds on the bits per symbol
    and on the unweighted rate keep every spectral efficiency finite."""
    noise = [n0 * b for b in plan.bandwidth_hz]
    bad = [n for n in noise if not sys.float_info.min <= n <= sys.float_info.max]
    if bad:
        problem = f"n0*B = {bad[0]!r} W is not a normal float"
        return [_error("contents.bandwidth_hz", problem), _error("radio.n0_w_per_hz", problem)]
    errors = []
    budgets = [("contents.power_w", plan.base_power)]
    if plan.base_power_prime != plan.base_power:
        budgets.append(("contents.power_prime_w", plan.base_power_prime))
    g_max = gain(pathloss, D_MIN_M)
    for name, powers in budgets:
        ratio = spec.rows * spec.cols * sum(powers) * g_max / min(noise)
        if not ratio <= MAX_RATIO:
            errors.append(_error(name, f"the received power at {D_MIN_M:g} m over "
                                       f"the noise reaches {ratio!r}"))
    bits = sum(s * b for s, b in zip(plan.subcarriers, plan.bits_per_symbol))
    try:
        bits = float(bits)
    except OverflowError:
        return errors + [_error("contents.subcarriers",
                                "sum(S*log2(mu)) is too large for a float")]
    try:
        xi = bits / (plan.t_sym * sum(plan.bandwidth_hz))
    except ZeroDivisionError:
        xi = math.inf
    if not xi <= MAX_RATIO:
        errors.append(_error("contents.t_sym_s",
                             f"the spectral efficiency reaches {xi!r} bits/s/Hz"))
    return errors


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigValidationError([f"{path}: not UTF-8 text: {exc}"]) from exc


def _load_ini(path: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(_read_text(path), source=path)
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _stringify(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _manifest_problem(name: str, value: Any) -> str | None:
    """Why key ``name`` cannot take the manifest's JSON ``value``: a type
    other than the one ``to_mapping`` writes for it.  A list is taken only
    where the key holds one, and only of scalars."""
    want, holds_list = _written_type(_ROWS[name].field)
    values = value if isinstance(value, list) and holds_list else [value]
    within = " in a list" if values is value else ""
    found = [_JSON_TYPES[type(v)] for v in values]
    nested = [t for t in found if t in ("list", "object")]
    if nested:
        return f"a JSON {nested[0]}{within} is not a single value"
    if holds_list and not within:
        return f"a JSON {found[0]} is not a list"
    other = [t for t in found if t != want]
    return f"a JSON {other[0]}{within} is not a {want}" if other else None


def _load_manifest(path: str) -> dict[str, dict[str, str]]:
    try:
        document = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigValidationError([f"{path}: not valid JSON: {exc}"]) from exc
    if not isinstance(document, dict) or "config" not in document:
        raise ConfigValidationError([f"{path}: manifest must be an object with a 'config' key"])
    config = document["config"]
    if not isinstance(config, dict):
        raise ConfigValidationError([f"{path}: manifest 'config' must be an object of sections"])
    errors: list[str] = []
    mapping: dict[str, dict[str, str]] = {}
    for section, entries in config.items():
        if not isinstance(entries, dict):
            errors.append(f"{path}: manifest section {section!r} must be an object")
            continue
        mapping[section] = {}
        for key, value in entries.items():
            name = f"{section}.{key}"
            # JSON null has no config text; str() would read it as the word 'None'.
            if value is None or isinstance(value, list) and None in value:
                errors.append(f"{path}: manifest key '{name}' is null")
            elif name in _ROWS and (problem := _manifest_problem(name, value)):
                errors.append(_error(name, problem))
            else:
                values = value if isinstance(value, list) else [value]
                mapping[section][key] = " ".join(map(_stringify, values))
    if errors:
        raise ConfigValidationError(errors)
    return mapping


def _assemble(part: str, values: dict[str, Any], errors: list[str]) -> Any:
    """ExperimentConfig's dataclass ``part`` of the fields ``values``, or
    ``_BAD``; a failed rule goes to ``errors`` under the key of its field."""
    if any(v is _BAD for v in values.values()):
        return _BAD
    try:
        return _TYPES[part](**values)
    except ConfigurationError as exc:
        name = _NAMES.get(f"{part}.{exc.field}")
        errors.append(_error(name, str(exc)) if name else f"{_SECTIONS[part]}: {exc}")
        return _BAD


def config_from_mapping(mapping: dict[str, dict[str, str]]) -> ExperimentConfig:
    """Validate a raw section/key/string mapping into an ExperimentConfig.

    Collects every validation problem and raises one ConfigValidationError
    listing them all.
    """
    errors: list[str] = []
    known: dict[str, set[str]] = {}
    for row in _KEYS:
        known.setdefault(row.section, set()).add(row.key)
    for section, entries in mapping.items():
        if section not in known:
            errors.append(f"{section}: unknown section (known: {', '.join(sorted(known))})")
            continue
        for key in entries:
            if key not in known[section]:
                errors.append(
                    f"{section}.{key}: unknown key "
                    f"(known: {', '.join(sorted(known[section]))})"
                )

    # ExperimentConfig attribute -> value, the fields of its dataclass parts
    # grouped under the part: {"grid": {"isd": ...}, ..., "n0": ...}.
    values: dict[str, Any] = {}
    for name, row in _ROWS.items():
        text = mapping.get(row.section, {}).get(row.key, "").strip()
        value = _BAD if row.default is _REQUIRED else row.default
        if text:
            try:
                value = row.parse(text)
            except (ValueError, ConfigurationError) as exc:
                errors.append(_error(name, str(exc)))
        elif row.default is _REQUIRED:
            errors.append(_error(name, "required key is missing"))
        part, _, field = row.field.rpartition(".")
        (values.setdefault(part, {}) if part else values)[field] = value

    contents, m_count = values["plan"], values["plan"]["m_count"]
    if m_count is not _BAD:
        for field, seq in contents.items():
            if isinstance(seq, tuple) and len(seq) == 1:
                contents[field] = seq * m_count
            elif isinstance(seq, tuple) and len(seq) != m_count:
                errors.append(f"{_NAMES['plan.' + field]}: expected 1 or {m_count} values "
                              f"(got {len(seq)})")
                contents[field] = _BAD
    for part in ("grid", "plan", "pathloss"):
        values[part] = _assemble(part, values[part], errors)

    grid, plan, pathloss, n0 = (values[k] for k in ("grid", "plan", "pathloss", "n0"))
    if grid is not _BAD:
        # No lattice offset or distance exceeds the grid's diagonal.
        diagonal = math.hypot(grid.cols, grid.rows) * grid.isd
        if not diagonal <= sys.float_info.max:
            errors.append(_error("grid.isd_m", f"the grid's diagonal reaches {diagonal!r} m"))
    if _BAD not in (grid, plan, pathloss, n0):
        errors += _finite_run_errors(grid, plan, pathloss, n0)

    schemes: list[SchemeConfig] = []
    if values["schemes"] is not _BAD:
        entries = [e.strip() for e in values["schemes"].split(",") if e.strip()]
        if not entries:
            errors.append("schemes.list: must name at least one scheme")
        for entry in entries:
            try:
                schemes.append(_parse_scheme_entry(entry, values["imo_buffer_reallocation"]))
            except (ValueError, ConfigurationError) as exc:
                errors.append(f"schemes.list: {exc}")
        labels = [s.label for s in schemes]
        if len(set(labels)) != len(labels):
            errors.append(f"schemes.list: duplicate scheme labels in {labels}")
    values["schemes"] = tuple(schemes)

    thresholds = () if values["thresholds_db"] is _BAD else values["thresholds_db"]
    # Floats compare equal across spellings (15, 15.0); name each once.
    errors += [f"eval.thresholds_db: {t!r} dB is listed more than once"
               for i, t in enumerate(thresholds) if thresholds[:i].count(t) == 1]
    if errors:
        raise ConfigValidationError(sorted(errors))
    return ExperimentConfig(**values)


def parse_config(path: str) -> ExperimentConfig:
    """Parse an INI config file or a JSON run manifest."""
    if not os.path.isfile(path):
        raise ConfigValidationError([f"{path}: config file not found"])
    if path.endswith(".json"):
        mapping = _load_manifest(path)
    else:
        try:
            mapping = _load_ini(path)
        except configparser.Error as exc:
            raise ConfigValidationError([f"{path}: {exc}"]) from exc
    return config_from_mapping(mapping)


def apply_overrides(
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    scheme: str | None = None,
    beta: float | None = None,
    resolution: int | None = None,
) -> ExperimentConfig:
    """Apply command-line overrides on top of a parsed config."""
    if beta is not None and scheme is None:
        raise ConfigValidationError(["--beta requires --scheme"])
    if scheme is not None:
        entry = scheme if beta is None else f"{scheme}:{beta!r}"
        try:
            cfg = replace(cfg, schemes=(_parse_scheme_entry(entry, cfg.imo_buffer_reallocation),))
        except (ValueError, ConfigurationError) as exc:
            raise ConfigValidationError([f"--scheme: {exc}"]) from exc
    if resolution is not None:
        row = _ROWS["eval.resolution"]
        try:
            row.parse(str(resolution))
        except ValueError as exc:
            raise ConfigValidationError([f"--resolution: {exc}; expected {row.expect}"]) from exc
        cfg = replace(cfg, resolution=resolution)
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    return cfg
