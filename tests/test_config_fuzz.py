"""Edge values for every config key, on both shipped configs.

Each row of ``config._KEYS`` is set in turn to each of ``EDGES`` on a
shipped config, loaded as an INI mapping so that one value broadcasts to
every content.  Whatever the value, ``config_from_mapping`` returns a
config or raises ConfigValidationError; a value its key's own parser
rejects is reported under that key's name; and every config that validates
runs at resolution 1 without a RuntimeWarning, writing JSON that holds no
NaN or Infinity.

A run manifest gives each key a JSON value of the type that the manifest
writes for it: a list of numbers for a key that holds one value per content
or threshold, and one number, boolean or string for any other.  A value of
another shape or type fails with one line under the key's name.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from sfn_lsi_sim.config import (
    _KEYS,
    _REQUIRED,
    _load_ini,
    apply_overrides,
    config_from_mapping,
    parse_config,
)
from sfn_lsi_sim.errors import ConfigValidationError
from sfn_lsi_sim.runner import run_experiment

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

EDGES = ["0", "-0.0", "5e-324", "1e-320", "1e-300", "1e300", "1e308", "-1",
         "1" + "0" * 12, "1" + "0" * 30, "1" + "0" * 400, "", "π", "nan"]


def _no_constant(name: str):
    raise AssertionError(f"JSON artifact holds {name}")


@pytest.fixture(scope="module")
def ran() -> set:
    """Configs already run: many edge values resolve to the same run, such
    as an empty optional key, or any output directory or resolution."""
    return set()


@pytest.mark.parametrize("row", _KEYS, ids=[f"{row.section}.{row.key}" for row in _KEYS])
@pytest.mark.parametrize("config", ["paper_table1.cfg", "smoke_1x2.cfg"])
def test_edge_values_validate_or_name_their_key(tmp_path, monkeypatch, ran, config, row):
    monkeypatch.chdir(tmp_path)
    name = f"{row.section}.{row.key}"
    base = _load_ini(str(CONFIG_DIR / config))
    for value in EDGES:
        mapping = {section: dict(entries) for section, entries in base.items()}
        mapping.setdefault(row.section, {})[row.key] = value
        # The message the key's own parser gives, if it rejects the value.
        own = None
        if not value and row.default is _REQUIRED:
            own = f"{name}: required key is missing; expected {row.expect}"
        elif value:
            try:
                row.parse(value)
            except ValueError as exc:
                own = f"{name}: {exc}; expected {row.expect}"
        try:
            cfg = config_from_mapping(mapping)
        except ConfigValidationError as exc:
            assert own is None or exc.errors == [own], (value, exc.errors)
            assert any(e.startswith(f"{name}:") for e in exc.errors), (value, exc.errors)
            continue
        assert own is None, (value, own)
        run = apply_overrides(cfg, out_dir="run", resolution=1)
        if run in ran:
            continue
        ran.add(run)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_experiment(run)
        for file in result.files:
            if file.endswith(".json"):
                json.loads(Path("run", file).read_text(), parse_constant=_no_constant)


# One JSON value of each scalar type, and the type of each value json.loads gives.
SCALARS = {"boolean": True, "number": 3, "string": "3"}
JSON_TYPES = {bool: "boolean", int: "number", float: "number", str: "string"}


@pytest.mark.parametrize("row", _KEYS, ids=[f"{row.section}.{row.key}" for row in _KEYS])
def test_manifest_value_of_another_shape_names_its_key(tmp_path, row):
    name = f"{row.section}.{row.key}"
    manifest = config_from_mapping(_load_ini(str(CONFIG_DIR / "smoke_1x2.cfg"))).to_mapping()
    value = manifest[row.section][row.key]
    if isinstance(value, list):
        want = JSON_TYPES[type(value[0])]
        cases = [("a JSON list in a list is not a single value", [value]),
                 ("a JSON object in a list is not a single value", [*value, {"value": value[0]}]),
                 ("a JSON object is not a single value", {"value": value}),
                 (f"a JSON {want} is not a list", value[0])]
        cases += [(f"a JSON {kind} in a list is not a {want}", [*value, bad])
                  for kind, bad in SCALARS.items() if kind != want]
    else:
        want = JSON_TYPES[type(value)]
        cases = [("a JSON list is not a single value", [value]),
                 ("a JSON list is not a single value", [value, value]),
                 ("a JSON object is not a single value", {"value": value})]
        cases += [(f"a JSON {kind} is not a {want}", bad)
                  for kind, bad in SCALARS.items() if kind != want]
    # to_mapping never writes an empty list or an empty string.
    cases += [("an empty JSON list holds no value", []),
              ("an empty JSON string holds no value", "")]
    path = tmp_path / "manifest.json"
    # The type to_mapping writes validates.
    path.write_text(json.dumps({"config": manifest}))
    parse_config(str(path))
    for problem, bad in cases:
        edited = {section: dict(entries) for section, entries in manifest.items()}
        edited[row.section][row.key] = bad
        path.write_text(json.dumps({"config": edited}))
        with pytest.raises(ConfigValidationError) as exc_info:
            parse_config(str(path))
        assert exc_info.value.errors == [f"{name}: {problem}; expected {row.expect}"], bad
