"""Experiment configuration: INI files, JSON manifests, flag overrides.

A config file fully determines a run.  Parsing validates every field and
reports all problems at once, each message naming the offending key and the
accepted range; numbers must be finite.  One table of keys (``_KEYS``)
drives the unknown-key checks, the parsing and the manifest.  Each key's
parser also rejects a value outside the key's own range, as "out of range
(got ...)", so ``config_from_mapping`` checks only the rules that join keys.
The JSON manifest written by a run contains the resolved configuration in
the same schema and parses back to an identical ExperimentConfig, so a
manifest alone reproduces its run.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable, NamedTuple

from sfn_lsi_sim.allocation import ContentPlan, SchemeConfig, SchemeKind
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

    def imo_reallocation(self) -> str:
        """Buffer reallocation of the IMO schemes ("global" when there are none)."""
        return next(
            (s.buffer_reallocation for s in self.schemes if s.kind is SchemeKind.IMLSI_O),
            "global",
        )

    def to_mapping(self) -> dict[str, dict[str, Any]]:
        """Schema-shaped mapping of the resolved config (manifest payload)."""
        mapping: dict[str, dict[str, Any]] = {}
        for row in _KEYS:
            mapping.setdefault(row.section, {})[row.key] = row.manifest(self)
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


class _Key(NamedTuple):
    """One config key: its parser, which also rejects values outside the
    key's own range, what it accepts, its default (or ``_REQUIRED``) and its
    manifest value read back from a config."""

    section: str
    key: str
    parse: Callable[[str], Any]
    expect: str
    default: Any
    manifest: Callable[[ExperimentConfig], Any]


_POSITIVE = _checked(_finite, lambda v: v > 0)
_POWERS = _list_of(_checked(_finite, lambda p: p >= 0))

# Every config key, once.  Unknown-key checks, parsing and the manifest all
# read this table.  Tuple-valued [contents] keys hold one value per content
# and broadcast from a single value.
_KEYS = (
    _Key("grid", "rows", _checked(int, lambda n: 1 <= n <= MAX_GRID_SIDE),
         f"integer in [1, {MAX_GRID_SIDE}]", _REQUIRED, lambda c: c.grid.rows),
    _Key("grid", "cols", _checked(int, lambda n: 2 <= n <= MAX_GRID_SIDE),
         f"integer in [2, {MAX_GRID_SIDE}]", _REQUIRED, lambda c: c.grid.cols),
    _Key("grid", "isd_m", _POSITIVE,
         "positive meters, with hypot(cols, rows)*isd_m a finite float", _REQUIRED,
         lambda c: c.grid.isd),
    # The side cap bounds both splits, so GridSpec only relates them to cols.
    _Key("grid", "lsa1_cols", _checked(int, lambda n: 1 <= n < MAX_GRID_SIDE),
         "integer in [1, cols-1]", _REQUIRED, lambda c: c.grid.lsa1_cols),
    _Key("grid", "buffer_cols_per_side", _checked(int, lambda n: 1 <= n <= MAX_GRID_SIDE // 2),
         "integer in [1, min(lsa1_cols, cols-lsa1_cols)]", 1,
         lambda c: c.grid.buffer_cols_per_side),
    _Key("contents", "count", _checked(int, lambda m: 2 <= m <= MAX_CONTENTS),
         f"integer in [2, {MAX_CONTENTS}], so that count maps fit 8 bits", _REQUIRED,
         lambda c: c.plan.m_count),
    _Key("contents", "bandwidth_hz", _list_of(_POSITIVE),
         "positive Hz, 1 or M values, with n0*B a normal float", _REQUIRED,
         lambda c: list(c.plan.bandwidth_hz)),
    _Key("contents", "subcarriers", _list_of(_checked(int, lambda s: s >= 1)),
         "positive integers, 1 or M values, with sum(S*log2(mu)) a finite float",
         _REQUIRED, lambda c: list(c.plan.subcarriers)),
    _Key("contents", "mod_order",
         _list_of(_checked(int, lambda mu: mu >= 2 and not mu & (mu - 1))),
         "powers of two >= 2, 1 or M values", _REQUIRED, lambda c: list(c.plan.mod_order)),
    _Key("contents", "t_sym_s", _POSITIVE,
         f"positive seconds, with sum(S*log2(mu)) / (t_sym*sum(B)) <= {MAX_RATIO:g}",
         _REQUIRED, lambda c: c.plan.t_sym),
    _Key("contents", "power_w", _POWERS,
         "non-negative watts, 1 or M values, with sum(power_w) > 0 and cells*sum(power_w)"
         f"*g({D_MIN_M:g} m) / (n0*min(B)) <= {MAX_RATIO:g}",
         _REQUIRED, lambda c: list(c.plan.base_power)),
    _Key("contents", "power_prime_w", _POWERS,
         "non-negative watts, 1 or M values, the first equal to power_w's, "
         "with cells*sum(power_prime_w)"
         f"*g({D_MIN_M:g} m) / (n0*min(B)) <= {MAX_RATIO:g}",
         None, lambda c: list(c.plan.base_power_prime)),
    _Key("propagation", "model", _choice(PathLossKind, str.lower), "power_law or hata",
         _REQUIRED, lambda c: c.pathloss.kind.value),
    # Each range below binds under one model only, so PathLossModel checks it.
    _Key("propagation", "eta", _finite, "2 <= eta <= 6", 3.5, lambda c: c.pathloss.eta),
    _Key("propagation", "f_mhz", _finite, "150 <= f_mhz <= 1500", 700.0,
         lambda c: c.pathloss.f_mhz),
    _Key("propagation", "hb_m", _finite, "30 <= hb_m <= 200", 30.0, lambda c: c.pathloss.hb_m),
    _Key("propagation", "hm_m", _finite, "1 <= hm_m <= 10", 1.5, lambda c: c.pathloss.hm_m),
    _Key("radio", "n0_w_per_hz", _POSITIVE, "positive W/Hz, with n0*B a normal float",
         _REQUIRED, lambda c: c.n0),
    _Key("schemes", "list", str, "comma list of olsi|reuse1|ps:<beta>|imo:<beta>",
         _REQUIRED, lambda c: ", ".join(_scheme_entry(s) for s in c.schemes)),
    _Key("schemes", "imo_buffer_reallocation",
         _checked(str.lower, lambda r: r in ("global", "none")), "global or none", "global",
         ExperimentConfig.imo_reallocation),
    _Key("eval", "resolution", _checked(int, lambda r: 1 <= r <= MAX_RESOLUTION),
         f"integer in [1, {MAX_RESOLUTION}]", _REQUIRED, lambda c: c.resolution),
    _Key("eval", "thresholds_db", _list_of(_finite), "one or more dB values", _REQUIRED,
         lambda c: list(c.thresholds_db)),
    _Key("eval", "coverage_area", _choice(AreaKind, str.upper), "a1 or a2", AreaKind.A1,
         lambda c: c.coverage_area_kind.value),
    _Key("eval", "map_area", _choice(AreaKind, str.upper), "a1 or a2", AreaKind.A2,
         lambda c: c.map_area_kind.value),
    _Key("eval", "content_map_threshold_db", _finite, "dB value", 15.0,
         lambda c: c.content_map_threshold_db),
    _Key("output", "dir", str, "directory path", _REQUIRED, lambda c: c.out_dir),
    _Key("output", "emit_sinr_maps", _parse_bool, "true or false", False,
         lambda c: c.emit_sinr_maps),
    _Key("output", "seed", _checked(int, lambda s: s >= 0), "integer >= 0", 0,
         lambda c: c.seed),
)
_ROWS = {f"{row.section}.{row.key}": row for row in _KEYS}
# The keys that hold a list, one value per content or per threshold.
_LIST_KEYS = {name for name, row in _ROWS.items() if row.parse.__name__ == "parse_list"}


def _error(name: str, problem: str) -> str:
    """The error line for key ``name`` ("section.key"), with what it expects."""
    return f"{name}: {problem}; expected {_ROWS[name].expect}"


# The key of each dataclass field whose rule joins keys, or binds under one
# model only; the dataclass checks the rule and names the field.
_FIELD_KEYS = {"base_power": "contents.power_w", "base_power_prime": "contents.power_prime_w",
               **{field: f"propagation.{field}" for field in ("eta", "f_mhz", "hb_m", "hm_m")}}


def _rule_error(section: str, exc: ConfigurationError) -> str:
    """A dataclass rule's message, under the key of the field it names."""
    name = _FIELD_KEYS.get(exc.field)
    return _error(name, str(exc)) if name else f"{section}: {exc}"


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
    bits = sum(s * (mu.bit_length() - 1) for s, mu in zip(plan.subcarriers, plan.mod_order))
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
    errors = [f"{path}: manifest section {section!r} must be an object"
              for section, entries in config.items() if not isinstance(entries, dict)]
    if errors:
        raise ConfigValidationError(errors)
    # JSON null has no config text; str() would read it as the word 'None'.
    errors = [f"{path}: manifest key '{section}.{key}' is null"
              for section, entries in config.items() for key, value in entries.items()
              if value is None or isinstance(value, list) and None in value]
    if errors:
        raise ConfigValidationError(errors)
    # A key holds one JSON scalar, or a list of them where it holds a list.
    mapping: dict[str, dict[str, str]] = {section: {} for section in config}
    for section, entries in config.items():
        for key, value in entries.items():
            name = f"{section}.{key}"
            values = value if isinstance(value, list) and name in _LIST_KEYS else [value]
            nested = [v for v in values if isinstance(v, (list, dict))]
            if nested and name in _ROWS:
                shape = "list" if isinstance(nested[0], list) else "object"
                within = " in a list" if values is value else ""
                errors.append(_error(name, f"a JSON {shape}{within} is not a single value"))
            mapping[section][key] = " ".join(map(_stringify, values))
    if errors:
        raise ConfigValidationError(errors)
    return mapping


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

    # section -> key -> parsed value; None where a required key is missing or bad
    values: dict[str, dict[str, Any]] = {section: {} for section in known}
    for name, row in _ROWS.items():
        text = mapping.get(row.section, {}).get(row.key, "").strip()
        value = None if row.default is _REQUIRED else row.default
        if text:
            try:
                value = row.parse(text)
            except (ValueError, ConfigurationError) as exc:
                errors.append(_error(name, str(exc)))
        elif row.default is _REQUIRED:
            errors.append(_error(name, "required key is missing"))
        values[row.section][row.key] = value

    grid = values["grid"]
    grid_spec = None
    if None not in grid.values():
        try:
            grid_spec = GridSpec(rows=grid["rows"], cols=grid["cols"], isd=grid["isd_m"],
                                 lsa1_cols=grid["lsa1_cols"],
                                 buffer_cols_per_side=grid["buffer_cols_per_side"])
        except ConfigurationError as exc:
            errors.append(_rule_error("grid", exc))
        else:
            # No lattice offset or distance exceeds the grid's diagonal.
            diagonal = math.hypot(grid_spec.cols, grid_spec.rows) * grid_spec.isd
            if not diagonal <= sys.float_info.max:
                errors.append(_error("grid.isd_m", f"the grid's diagonal reaches {diagonal!r} m"))

    contents = values["contents"]
    m_count = contents["count"]
    plan = None
    if m_count is not None:
        for key, seq in contents.items():
            if isinstance(seq, tuple) and len(seq) == 1:
                contents[key] = seq * m_count
            elif isinstance(seq, tuple) and len(seq) != m_count:
                errors.append(
                    f"contents.{key}: expected 1 or {m_count} values (got {len(seq)})"
                )
                contents[key] = None
        per_content = ("bandwidth_hz", "subcarriers", "mod_order", "t_sym_s", "power_w")
        if None not in (contents[key] for key in per_content):
            try:
                plan = ContentPlan(
                    m_count=m_count, bandwidth_hz=contents["bandwidth_hz"],
                    subcarriers=contents["subcarriers"], mod_order=contents["mod_order"],
                    t_sym=contents["t_sym_s"], base_power=contents["power_w"],
                    base_power_prime=contents["power_prime_w"],
                )
            except ConfigurationError as exc:
                errors.append(_rule_error("contents", exc))

    prop = values["propagation"]
    pathloss = None
    if None not in prop.values():
        try:
            pathloss = PathLossModel(kind=prop["model"], eta=prop["eta"], f_mhz=prop["f_mhz"],
                                     hb_m=prop["hb_m"], hm_m=prop["hm_m"])
        except ConfigurationError as exc:
            errors.append(_rule_error("propagation", exc))

    n0 = values["radio"]["n0_w_per_hz"]
    if None not in (grid_spec, plan, pathloss, n0):
        errors += _finite_run_errors(grid_spec, plan, pathloss, n0)

    schemes: list[SchemeConfig] = []
    imo_realloc = values["schemes"]["imo_buffer_reallocation"] or "global"
    if values["schemes"]["list"] is not None:
        entries = [e.strip() for e in values["schemes"]["list"].split(",") if e.strip()]
        if not entries:
            errors.append("schemes.list: must name at least one scheme")
        for entry in entries:
            try:
                schemes.append(_parse_scheme_entry(entry, imo_realloc))
            except (ValueError, ConfigurationError) as exc:
                errors.append(f"schemes.list: {exc}")
        labels = [s.label for s in schemes]
        if len(set(labels)) != len(labels):
            errors.append(f"schemes.list: duplicate scheme labels in {labels}")

    evals, output = values["eval"], values["output"]
    thresholds = evals["thresholds_db"] or ()
    # Floats compare equal across spellings (15, 15.0); name each once.
    errors += [f"eval.thresholds_db: {t!r} dB is listed more than once"
               for i, t in enumerate(thresholds) if thresholds[:i].count(t) == 1]
    if errors:
        raise ConfigValidationError(sorted(errors))

    return ExperimentConfig(
        grid=grid_spec, plan=plan, schemes=tuple(schemes), pathloss=pathloss, n0=n0,
        resolution=evals["resolution"], thresholds_db=evals["thresholds_db"],
        coverage_area_kind=evals["coverage_area"], map_area_kind=evals["map_area"],
        content_map_threshold_db=evals["content_map_threshold_db"],
        out_dir=output["dir"], emit_sinr_maps=output["emit_sinr_maps"], seed=output["seed"],
    )


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
            cfg = replace(cfg, schemes=(_parse_scheme_entry(entry, cfg.imo_reallocation()),))
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
