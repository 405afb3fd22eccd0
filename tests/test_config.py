"""Config parsing tests: INI files, JSON manifests, overrides, error text."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import pytest

from sfn_lsi_sim.allocation import SchemeKind
from sfn_lsi_sim.config import (
    _KEYS,
    _NAMES,
    MANIFEST_FORMAT,
    _error,
    apply_overrides,
    config_from_mapping,
    parse_config,
)
from sfn_lsi_sim.errors import ConfigurationError, ConfigValidationError
from sfn_lsi_sim.grid import AreaKind

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def base_mapping() -> dict[str, dict[str, str]]:
    return {
        "grid": {
            "rows": "2", "cols": "4", "isd_m": "1700", "lsa1_cols": "2",
            "buffer_cols_per_side": "1",
        },
        "contents": {
            "count": "3", "bandwidth_hz": "2.4e6", "subcarriers": "1200",
            "mod_order": "64", "t_sym_s": "1e-3", "power_w": "1",
        },
        "propagation": {"model": "power_law", "eta": "3.0"},
        "radio": {"n0_w_per_hz": "5e-18"},
        "schemes": {"list": "olsi, reuse1, ps:0.5, imo:0.5"},
        "eval": {"resolution": "4", "thresholds_db": "10 15 20"},
        "output": {"dir": "out/test"},
    }



def edited(edits: dict[str, str | None]) -> dict[str, dict[str, str]]:
    """base_mapping() with each "section.key" set to a value, or deleted
    where the value is None."""
    mapping = base_mapping()
    for name, value in edits.items():
        section, key = name.split(".")
        if value is None:
            del mapping[section][key]
        else:
            mapping.setdefault(section, {})[key] = value
    return mapping


# One case per kind of message, pinned byte for byte as the sorted list.
MESSAGE_CASES = [
    pytest.param({"grid.rows": None}, {},
                 ["grid.rows: required key is missing; expected integer in [1, 100]"],
                 id="missing-required"),
    pytest.param({"grid.rows": "two"}, {},
                 ["grid.rows: invalid literal for int() with base 10: 'two'; "
                  "expected integer in [1, 100]"],
                 id="parse-failure"),
    pytest.param({"grid.cols": "101"}, {},
                 ["grid.cols: out of range (got 101); expected integer in [2, 100]"],
                 id="grid-side-cap"),
    pytest.param({"output.bogus": "1"}, {},
                 ["output.bogus: unknown key (known: dir, emit_sinr_maps, seed)"],
                 id="unknown-key"),
    pytest.param({"extras.x": "1"}, {},
                 ["extras: unknown section (known: contents, eval, grid, output, "
                  "propagation, radio, schemes)"],
                 id="unknown-section"),
    pytest.param({"contents.power_w": "1 2"}, {},
                 ["contents.power_w: expected 1 or 3 values (got 2)"],
                 id="list-length"),
    pytest.param({"contents.power_prime_w": "1 1e308 1"}, {},
                 ["contents.power_prime_w: the received power at 20 m over the noise "
                  "reaches inf; expected non-negative watts, 1 or M values, the first "
                  "equal to power_w's, with cells*sum(power_prime_w)*g(20 m) / "
                  "(n0*min(B)) <= 1e+300"],
                 id="lsa2-power-bound"),
    pytest.param({"contents.power_w": "0"}, {},
                 ["contents.power_w: total power P_t must be positive; expected "
                  "non-negative watts, 1 or M values, with sum(power_w) > 0 and "
                  "cells*sum(power_w)*g(20 m) / (n0*min(B)) <= 1e+300"],
                 id="total-power-positive"),
    pytest.param({"contents.power_prime_w": "2 1 1"}, {},
                 ["contents.power_prime_w: global content power must be common to both "
                  "LSAs (got 1.0 and 2.0); expected non-negative watts, 1 or M values, "
                  "the first equal to power_w's, with cells*sum(power_prime_w)*g(20 m) / "
                  "(n0*min(B)) <= 1e+300"],
                 id="global-power-shared"),
    pytest.param({"grid.isd_m": "1e308"}, {},
                 ["grid.isd_m: the grid's diagonal reaches inf m; expected positive "
                  "meters, with hypot(cols, rows)*isd_m a finite float"],
                 id="isd-bound"),
    pytest.param({"contents.subcarriers": "1" + "0" * 309}, {},
                 ["contents.subcarriers: sum(S*log2(mu)) is too large for a float; "
                  "expected positive integers, 1 or M values, with sum(S*log2(mu)) "
                  "a finite float"],
                 id="subcarriers-bound"),
    pytest.param({"contents.mod_order": "12"}, {},
                 ["contents.mod_order: out of range (got 12); "
                  "expected powers of two >= 2, 1 or M values"],
                 id="mod-order-power-of-two"),
    pytest.param({"contents.mod_order": "12", "contents.count": None}, {},
                 ["contents.count: required key is missing; "
                  "expected integer in [2, 255], so that count maps fit 8 bits",
                  "contents.mod_order: out of range (got 12); "
                  "expected powers of two >= 2, 1 or M values"],
                 id="mod-order-without-count"),
    pytest.param({"grid.lsa1_cols": "4"}, {},
                 ["grid: lsa1_cols must satisfy 1 <= lsa1_cols < cols (got 4, cols=4)"],
                 id="grid-cross-check"),
    pytest.param({"propagation.model": "free_space"}, {},
                 ["propagation.model: out of range (got 'free_space'); "
                  "expected power_law or hata"],
                 id="unknown-model"),
    pytest.param({"eval.coverage_area": "a3"}, {},
                 ["eval.coverage_area: out of range (got 'a3'); expected a1 or a2"],
                 id="unknown-coverage-area"),
    pytest.param({"eval.map_area": "Whole"}, {},
                 ["eval.map_area: out of range (got 'Whole'); expected a1 or a2"],
                 id="unknown-map-area"),
    pytest.param({"propagation.eta": "9"}, {},
                 ["propagation.eta: eta must satisfy 2 <= eta <= 6 (got 9.0); "
                  "expected 2 <= eta <= 6"],
                 id="propagation-range"),
    pytest.param({"radio.n0_w_per_hz": "-1"}, {},
                 ["radio.n0_w_per_hz: out of range (got -1.0); "
                  "expected positive W/Hz, with n0*B a normal float"],
                 id="n0-positive"),
    pytest.param({"schemes.imo_buffer_reallocation": "elsewhere"}, {},
                 ["schemes.imo_buffer_reallocation: out of range (got 'elsewhere'); "
                  "expected global or none"],
                 id="imo-reallocation"),
    pytest.param({"schemes.list": ","}, {},
                 ["schemes.list: must name at least one scheme"],
                 id="empty-scheme-list"),
    pytest.param({"schemes.list": "olsi, mystery"}, {},
                 ["schemes.list: unknown scheme 'mystery' "
                  "(use olsi, reuse1, ps:<beta>, imo:<beta>)"],
                 id="unknown-scheme"),
    pytest.param({"schemes.list": "olsi:0.5, reuse1:0.3"}, {},
                 ["schemes.list: olsi takes no beta (got 'olsi:0.5')",
                  "schemes.list: reuse1 takes no beta (got 'reuse1:0.3')"],
                 id="beta-on-olsi-and-reuse1"),
    pytest.param({}, {"scheme": "olsi", "beta": 0.5},
                 ["--scheme: olsi takes no beta (got 'olsi:0.5')"],
                 id="beta-override-on-olsi"),
    pytest.param({"schemes.list": "ps:0.5, ps:0.5"}, {},
                 ["schemes.list: duplicate scheme labels in ['ps_beta0.5', 'ps_beta0.5']"],
                 id="duplicate-schemes"),
    pytest.param({"eval.resolution": "500"}, {},
                 ["eval.resolution: out of range (got 500); expected integer in [1, 200]"],
                 id="resolution-range"),
    pytest.param({}, {"resolution": 0},
                 ["--resolution: out of range (got 0); expected integer in [1, 200]"],
                 id="resolution-override-range"),
    pytest.param({"output.seed": "-1"}, {},
                 ["output.seed: out of range (got -1); expected integer >= 0"],
                 id="negative-seed"),
    pytest.param({"eval.thresholds_db": "10 15 15.0 20 10 15"}, {},
                 ["eval.thresholds_db: 10.0 dB is listed more than once",
                  "eval.thresholds_db: 15.0 dB is listed more than once"],
                 id="repeated-threshold"),
]


@pytest.mark.parametrize("edits,overrides,expected", MESSAGE_CASES)
def test_exact_error_messages(edits, overrides, expected):
    with pytest.raises(ConfigValidationError) as exc_info:
        apply_overrides(config_from_mapping(edited(edits)), **overrides)
    assert exc_info.value.errors == expected


SCHEMES = base_mapping()["schemes"]["list"]

# A config file's edit and the library construction of the same config.
LIBRARY_CASES = [
    pytest.param({"grid.isd_m": "1e308"},
                 lambda cfg: replace(cfg, grid=replace(cfg.grid, isd=1e308)), id="grid-diagonal"),
    pytest.param({"radio.n0_w_per_hz": "1e308"}, lambda cfg: replace(cfg, n0=1e308),
                 id="noise-names-bandwidth-and-n0"),
    pytest.param({"contents.power_w": "1e300"},
                 lambda cfg: replace(cfg, plan=replace(cfg.plan, base_power=(1e300,) * 3,
                                                       base_power_prime=None)),
                 id="received-power"),
    pytest.param({"eval.thresholds_db": "15 15"},
                 lambda cfg: replace(cfg, thresholds_db=(15.0, 15.0)), id="repeated-threshold"),
    pytest.param({"schemes.list": f"{SCHEMES}, {SCHEMES}"},
                 lambda cfg: replace(cfg, schemes=cfg.schemes * 2), id="duplicate-labels"),
    pytest.param({"schemes.list": ","}, lambda cfg: replace(cfg, schemes=()), id="no-scheme"),
    # A config file builds its IMO schemes from the field, so it cannot
    # disagree with them: the case gives the line itself.
    pytest.param(["schemes.imo_buffer_reallocation: 'none', but scheme imo_beta0.5 reallocates "
                  "'global'; expected global or none"],
                 lambda cfg: replace(cfg, imo_buffer_reallocation="none"),
                 id="imo-reallocation-not-the-schemes"),
]


@pytest.mark.parametrize("edits,build", LIBRARY_CASES)
def test_library_construction_refuses_what_a_config_file_does(edits, build):
    if isinstance(edits, list):
        expected = edits
    else:
        with pytest.raises(ConfigValidationError) as from_file:
            config_from_mapping(edited(edits))
        expected = from_file.value.errors
    with pytest.raises(ConfigurationError) as exc_info:
        build(config_from_mapping(base_mapping()))
    exc = exc_info.value
    if isinstance(exc, ConfigValidationError):
        assert exc.errors == expected
    else:  # GridSpec's own rule, which a config file reports under its field's key
        assert [_error(_NAMES[f"grid.{exc.field}"], str(exc))] == expected


FLOAT_KEYS = {
    "grid.isd_m": "positive meters, with hypot(cols, rows)*isd_m a finite float",
    "contents.bandwidth_hz": "positive Hz, 1 or M values, with n0*B a normal float",
    "contents.t_sym_s": "positive seconds, with sum(S*log2(mu)) / (t_sym*sum(B)) <= 1e+300",
    "contents.power_w": "non-negative watts, 1 or M values, with sum(power_w) > 0 and "
                        "cells*sum(power_w)*g(20 m) / (n0*min(B)) <= 1e+300",
    "contents.power_prime_w": "non-negative watts, 1 or M values, the first equal to "
                              "power_w's, with cells*sum(power_prime_w)*g(20 m) / "
                              "(n0*min(B)) <= 1e+300",
    "propagation.eta": "2 <= eta <= 6",
    "propagation.f_mhz": "150 <= f_mhz <= 1500",
    "propagation.hb_m": "30 <= hb_m <= 200",
    "propagation.hm_m": "1 <= hm_m <= 10",
    "radio.n0_w_per_hz": "positive W/Hz, with n0*B a normal float",
    "eval.thresholds_db": "one or more dB values",
    "eval.content_map_threshold_db": "dB value",
}


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("name", sorted(FLOAT_KEYS))
def test_non_finite_numbers_rejected(name, text):
    with pytest.raises(ConfigValidationError) as exc_info:
        config_from_mapping(edited({name: text}))
    assert exc_info.value.errors == [
        f"{name}: not a finite number: {text!r}; expected {FLOAT_KEYS[name]}"]


def test_non_finite_list_entry_named():
    with pytest.raises(ConfigValidationError) as exc_info:
        config_from_mapping(edited({"eval.thresholds_db": "10 nan 20"}))
    assert exc_info.value.errors == [
        "eval.thresholds_db: not a finite number: 'nan'; expected one or more dB values"]


class TestMappingParsing:
    def test_valid_mapping(self):
        cfg = config_from_mapping(base_mapping())
        assert cfg.grid.rows == 2 and cfg.grid.cols == 4
        assert cfg.plan.m_count == 3
        assert cfg.plan.bandwidth_hz == (2.4e6,) * 3  # single value broadcasts
        assert [s.label for s in cfg.schemes] == [
            "olsi", "reuse1", "ps_beta0.5", "imo_beta0.5"]
        assert cfg.resolution == 4
        assert cfg.thresholds_db == (10.0, 15.0, 20.0)
        # defaults
        assert cfg.coverage_area_kind is AreaKind.A1
        assert cfg.map_area_kind is AreaKind.A2
        assert cfg.content_map_threshold_db == 15.0
        assert cfg.emit_sinr_maps is False
        assert cfg.seed == 0

    def test_power_prime_defaults_to_power(self):
        cfg = config_from_mapping(base_mapping())
        assert cfg.plan.base_power_prime == cfg.plan.base_power

    def test_per_content_values(self):
        mapping = base_mapping()
        mapping["contents"]["power_w"] = "1.5 1.0 0.5"
        mapping["contents"]["power_prime_w"] = "1.5 0.75 0.75"
        cfg = config_from_mapping(mapping)
        assert cfg.plan.base_power == (1.5, 1.0, 0.5)
        assert cfg.plan.base_power_prime == (1.5, 0.75, 0.75)

    def test_missing_required_keys_all_reported(self):
        with pytest.raises(ConfigValidationError) as exc_info:
            config_from_mapping({})
        text = str(exc_info.value)
        for name in ("grid.rows", "grid.cols", "grid.isd_m", "grid.lsa1_cols",
                     "contents.count", "contents.bandwidth_hz", "propagation.model",
                     "radio.n0_w_per_hz", "schemes.list", "eval.resolution",
                     "eval.thresholds_db", "output.dir"):
            assert name in text, f"missing mention of {name}"

    def test_unknown_key_and_section(self):
        mapping = base_mapping()
        mapping["output"]["bogus"] = "1"
        mapping["extras"] = {"x": "1"}
        with pytest.raises(ConfigValidationError) as exc_info:
            config_from_mapping(mapping)
        assert "output.bogus: unknown key" in str(exc_info.value)
        assert "extras: unknown section" in str(exc_info.value)

    def test_beta_out_of_range(self):
        mapping = base_mapping()
        mapping["schemes"]["list"] = "ps:1.5"
        with pytest.raises(ConfigValidationError, match="0 <= beta <= 1"):
            config_from_mapping(mapping)

    def test_multiple_errors_collected_in_one_raise(self):
        mapping = base_mapping()
        del mapping["grid"]["rows"]
        mapping["schemes"]["list"] = "imo:2"
        mapping["eval"]["resolution"] = "500"
        mapping["contents"]["mod_order"] = "12"
        with pytest.raises(ConfigValidationError) as exc_info:
            config_from_mapping(mapping)
        errors = exc_info.value.errors
        assert len(errors) >= 4
        text = str(exc_info.value)
        assert "grid.rows" in text
        assert "0 <= beta <= 1" in text
        assert "eval.resolution: out of range (got 500)" in text
        assert "contents.mod_order: out of range (got 12)" in text

    def test_wrong_list_length(self):
        mapping = base_mapping()
        mapping["contents"]["power_w"] = "1.0 2.0"  # M is 3
        with pytest.raises(ConfigValidationError, match="expected 1 or 3 values"):
            config_from_mapping(mapping)

    def test_unknown_scheme_name(self):
        mapping = base_mapping()
        mapping["schemes"]["list"] = "olsi, mystery"
        with pytest.raises(ConfigValidationError, match="unknown scheme"):
            config_from_mapping(mapping)

    def test_duplicate_scheme_labels(self):
        mapping = base_mapping()
        mapping["schemes"]["list"] = "ps:0.5, ps:0.5"
        with pytest.raises(ConfigValidationError, match="duplicate"):
            config_from_mapping(mapping)

    def test_bad_bool(self):
        mapping = base_mapping()
        mapping["output"]["emit_sinr_maps"] = "maybe"
        with pytest.raises(ConfigValidationError, match="not a boolean"):
            config_from_mapping(mapping)

    def test_imo_reallocation_choices(self):
        mapping = base_mapping()
        mapping["schemes"]["imo_buffer_reallocation"] = "none"
        cfg = config_from_mapping(mapping)
        imo = next(s for s in cfg.schemes if s.kind is SchemeKind.IMLSI_O)
        assert imo.buffer_reallocation == "none"
        mapping["schemes"]["imo_buffer_reallocation"] = "elsewhere"
        with pytest.raises(ConfigValidationError, match="expected global or none"):
            config_from_mapping(mapping)


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["paper_table1.cfg", "smoke_1x2.cfg"])
    def test_parses(self, name):
        cfg = parse_config(str(CONFIG_DIR / name))
        assert cfg.plan.m_count >= 2
        assert len(cfg.schemes) >= 1

    def test_table_config_contents(self):
        cfg = parse_config(str(CONFIG_DIR / "paper_table1.cfg"))
        assert (cfg.grid.rows, cfg.grid.cols, cfg.grid.lsa1_cols) == (8, 10, 5)
        assert cfg.plan.m_count == 3
        labels = [s.label for s in cfg.schemes]
        assert "reuse1" in labels
        assert any(l.startswith("imo_beta") for l in labels)
        assert 15.0 in cfg.thresholds_db and 20.0 in cfg.thresholds_db


class TestKeyTable:
    def test_rows_fill_every_attribute_once(self):
        fields = [row.field for row in _KEYS]
        assert len(set(fields)) == len(fields)
        cfg = parse_config(str(CONFIG_DIR / "paper_table1.cfg"))
        attributes = set()
        for field in dataclasses.fields(cfg):
            value = getattr(cfg, field.name)
            if dataclasses.is_dataclass(value):
                attributes |= {f"{field.name}.{f.name}" for f in dataclasses.fields(value)}
            else:
                attributes.add(field.name)
        assert set(fields) == attributes

    @pytest.mark.parametrize("name", ["paper_table1.cfg", "smoke_1x2.cfg"])
    def test_every_row_names_an_attribute_of_the_config(self, name):
        cfg = parse_config(str(CONFIG_DIR / name))
        for row in _KEYS:
            assert attrgetter(row.field)(cfg) is not None, row.field


class TestReadme:
    def test_readme_example_is_the_table_config(self, tmp_path):
        readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        assert parse_config(str(path)) == parse_config(str(CONFIG_DIR / "paper_table1.cfg"))


class TestFileHandling:
    def test_missing_file(self):
        with pytest.raises(ConfigValidationError, match="not found"):
            parse_config("/nonexistent/run.cfg")

    def test_malformed_ini(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("rows = 2\n")  # key before any section header
        with pytest.raises(ConfigValidationError):
            parse_config(str(path))

    def test_ini_round_trip(self, tmp_path):
        mapping = base_mapping()
        lines = []
        for section, entries in mapping.items():
            lines.append(f"[{section}]")
            lines.extend(f"{k} = {v}" for k, v in entries.items())
            lines.append("")
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(lines))
        assert parse_config(str(path)) == config_from_mapping(mapping)


class TestManifestRoundTrip:
    def test_manifest_reproduces_config(self, tmp_path):
        cfg = parse_config(str(CONFIG_DIR / "paper_table1.cfg"))
        manifest = {"format": MANIFEST_FORMAT, "config": cfg.to_mapping()}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        assert parse_config(str(path)) == cfg

    def test_manifest_reproduces_non_default_config(self, tmp_path):
        # every key with a default is set to something else
        mapping = edited({
            "grid.rows": "3", "grid.cols": "6", "grid.lsa1_cols": "3",
            "grid.buffer_cols_per_side": "2",
            "contents.power_w": "1.5 1.0 0.5", "contents.power_prime_w": "1.5 0.75 0.75",
            "propagation.model": "hata", "propagation.eta": "2.5",
            "propagation.f_mhz": "900", "propagation.hb_m": "45", "propagation.hm_m": "2",
            "schemes.imo_buffer_reallocation": "none",
            "eval.coverage_area": "a2", "eval.map_area": "a1",
            "eval.content_map_threshold_db": "12.5",
            "output.emit_sinr_maps": "true", "output.seed": "7",
        })
        cfg = config_from_mapping(mapping)
        assert cfg.pathloss.kind.value == "hata" and cfg.imo_buffer_reallocation == "none"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format": MANIFEST_FORMAT, "config": cfg.to_mapping()}))
        assert parse_config(str(path)) == cfg

    @pytest.mark.parametrize("section,key,value", [
        ("output", "dir", None),
        ("radio", "n0_w_per_hz", None),
        ("eval", "thresholds_db", [5.0, None, 30.0]),
    ])
    def test_null_value_is_named(self, tmp_path, section, key, value):
        mapping = parse_config(str(CONFIG_DIR / "paper_table1.cfg")).to_mapping()
        mapping[section][key] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format": MANIFEST_FORMAT, "config": mapping}))
        with pytest.raises(ConfigValidationError) as exc_info:
            parse_config(str(path))
        assert exc_info.value.errors == [f"{path}: manifest key '{section}.{key}' is null"]

    def test_every_fault_of_a_manifest_is_named_at_once(self, tmp_path):
        mapping = parse_config(str(CONFIG_DIR / "paper_table1.cfg")).to_mapping()
        mapping["eval"]["thresholds_db"] = [[5.0, 7.5]]
        mapping["output"]["dir"] = None
        mapping["extras"] = [1]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format": MANIFEST_FORMAT, "config": mapping}))
        with pytest.raises(ConfigValidationError) as exc_info:
            parse_config(str(path))
        assert exc_info.value.errors == [
            "eval.thresholds_db: a JSON list in a list is not a single value; "
            "expected one or more dB values",
            f"{path}: manifest key 'output.dir' is null",
            f"{path}: manifest section 'extras' must be an object"]

    def test_manifest_without_config_key(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"format": MANIFEST_FORMAT}))
        with pytest.raises(ConfigValidationError, match="config"):
            parse_config(str(path))


class TestOverrides:
    def make_cfg(self):
        return config_from_mapping(base_mapping())

    def test_beta_requires_scheme(self):
        with pytest.raises(ConfigValidationError, match="--beta requires --scheme"):
            apply_overrides(self.make_cfg(), beta=0.5)

    def test_scheme_replaces_list(self):
        cfg = apply_overrides(self.make_cfg(), scheme="ps", beta=0.25)
        assert len(cfg.schemes) == 1
        assert cfg.schemes[0].kind is SchemeKind.IMLSI_PS
        assert cfg.schemes[0].beta == 0.25

    def test_scheme_keeps_configured_reallocation(self):
        mapping = base_mapping()
        mapping["schemes"]["imo_buffer_reallocation"] = "none"
        cfg = apply_overrides(config_from_mapping(mapping), scheme="imo", beta=0.5)
        assert cfg.schemes[0].buffer_reallocation == "none"

    def test_bad_scheme_name(self):
        with pytest.raises(ConfigValidationError, match="--scheme"):
            apply_overrides(self.make_cfg(), scheme="mystery")

    @pytest.mark.parametrize("resolution", [0, 201])
    def test_resolution_bounds(self, resolution):
        with pytest.raises(ConfigValidationError, match="resolution"):
            apply_overrides(self.make_cfg(), resolution=resolution)

    def test_accepted_overrides(self):
        cfg = apply_overrides(self.make_cfg(), out_dir="elsewhere", resolution=7)
        assert cfg.out_dir == "elsewhere"
        assert cfg.resolution == 7
        # untouched parts preserved
        assert cfg.plan == self.make_cfg().plan
