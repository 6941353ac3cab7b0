"""Deterministic serialization and the layered configuration."""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlab.config import Config, load_config
from fermatlab.families import build_family
from fermatlab.reports import (
    CSV_HEADER,
    canonical_json,
    format_float,
    points_csv,
    scan_payload,
    write_csv,
    write_json,
)
from fermatlab.verify import ScanWindow, derivative_identity_scan, residual_scan


# -- float formatting --------------------------------------------------------


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


def test_format_float_nonfinite():
    assert format_float(float("nan")) == "nan"
    assert format_float(float("inf")) == "inf"
    assert format_float(float("-inf")) == "-inf"


# -- canonical JSON ----------------------------------------------------------


def test_floats_rendered_unquoted():
    text = canonical_json({"x": 0.1})
    assert '"x": 0.10000000000000001' in text
    assert "\\u0001" not in text and "\x01" not in text


def test_nonfinite_rendered_as_strings():
    text = canonical_json({"a": float("nan"), "b": float("-inf")})
    data = json.loads(text)
    assert data == {"a": "nan", "b": "-inf"}


def test_key_order_is_canonical():
    a = canonical_json({"alpha": 1, "beta": 2.5, "gamma": [1.0, 2.0]})
    b = canonical_json({"gamma": [1.0, 2.0], "beta": 2.5, "alpha": 1})
    assert a == b
    assert a.endswith("\n")


def test_complex_encoding():
    data = json.loads(canonical_json({"z": 1.5 - 2.5j}))
    assert data["z"] == {"re": 1.5, "im": -2.5}


def test_bool_and_none_pass_through():
    data = json.loads(canonical_json({"t": True, "f": False, "n": None, "i": 7}))
    assert data == {"t": True, "f": False, "n": None, "i": 7}


def test_to_dict_duck_typing():
    class Point:
        def to_dict(self):
            return {"x": 1.0, "y": 2.0}

    data = json.loads(canonical_json({"p": Point()}))
    assert data["p"] == {"x": 1.0, "y": 2.0}


def test_unserializable_rejected():
    with pytest.raises(TypeError):
        canonical_json({"s": {1, 2}})


def test_sentinel_carrying_strings_rejected():
    # \x01 marks float sentinels internally; a payload string containing it
    # would be unquoted into invalid JSON, so serialization must refuse
    with pytest.raises(ValueError, match="x01"):
        canonical_json({"s": "\x01f:99"})
    with pytest.raises(ValueError, match="x01"):
        canonical_json({"\x01f:": 0.0})


@given(
    st.dictionaries(
        st.text(
            st.characters(blacklist_characters="\x01"), min_size=1, max_size=8
        ),
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(min_value=-(10**9), max_value=10**9),
            st.booleans(),
        ),
        max_size=6,
    )
)
@settings(max_examples=50, deadline=None)
def test_json_round_trip_is_exact(d):
    data = json.loads(canonical_json(d))
    assert data == d


# -- report payloads ---------------------------------------------------------


@pytest.fixture(scope="module")
def small_scan():
    return residual_scan(
        build_family("case2"),
        window=ScanWindow(-1, 1, -1, 1, grid_density=5),
        keep_samples=True,
    )


def test_scan_payload_provenance(small_scan):
    payload = scan_payload(small_scan, "0.1.0", "fermatlab verify --family case2")
    assert payload["tool_version"] == "0.1.0"
    assert payload["command"].startswith("fermatlab ")
    assert payload["family"] == "case2"
    assert payload["verdict"] == "PASS"
    canonical_json(payload)  # must be serializable end to end


def test_points_csv_layout(small_scan):
    text = points_csv(small_scan.samples)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + small_scan.points_total
    first = lines[1].split(",")
    assert len(first) == 5
    assert first[4] in ("0", "1")
    assert float(first[0]) == -1.0


@pytest.mark.parametrize(
    "family_id, params, denominator, digest",
    [
        ("case2", {}, 0, "d9e425e1b74cc20d07b7bcefa95a2589d888bf6da298b57a0b00bba29bc699a4"),
        (
            "case4",
            {"variant": 1, "zeta_index": 0},
            562,
            "f08f7b06318d88d02ec97efb11d08f21ec533ba2accc0a5faa779b50a60d7006",
        ),
    ],
)
def test_points_csv_bytes_are_pinned(family_id, params, denominator, digest):
    """Both scans have excluded rows and a row whose residual is not finite
    (written nan); the digests pin every byte of the 81 x 81 CSV."""
    rep = residual_scan(build_family(family_id, **params), keep_samples=True)
    text = points_csv(rep.samples)
    assert ",nan,nan,1\n" in text
    assert rep.exclusion_reasons == {"nonfinite": 1, "denominator": denominator, "pole-magnitude": 0}
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "family_id, params, scan, digest",
    [
        ("case2", {}, residual_scan,
         "66d50877495e1c7e2511bd6821cbd7d183d145cceeee9a306481783dad111187"),
        ("case4", {"variant": 1}, derivative_identity_scan,
         "da8f3160f31c09643eae775c33ff36446edf6ccc45931a1a0f40e94000b767ba"),
        ("corollary", {}, derivative_identity_scan,
         "730c21920393e48d9445c06b5147914409f35570172c9e89ea6408d04e26a4d6"),
    ],
)
def test_multi_block_csv_bytes_are_pinned(family_id, params, scan, digest):
    """161 x 161 grids span four evaluation blocks, so a fault at a block
    seam changes these digests."""
    rep = scan(build_family(family_id, **params), ScanWindow(grid_density=40.0),
               keep_samples=True)
    assert hashlib.sha256(points_csv(rep.samples).encode()).hexdigest() == digest


def test_write_json_and_csv_are_byte_stable(tmp_path, small_scan):
    payload = scan_payload(small_scan, "0.1.0", "cmd")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, payload)
    write_json(p2, payload)
    assert p1.read_bytes() == p2.read_bytes()
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(c1, small_scan.samples)
    write_csv(c2, small_scan.samples)
    assert c1.read_bytes() == c2.read_bytes()
    assert c1.read_bytes().endswith(b"\n")


def test_rescan_is_byte_identical(small_scan):
    again = residual_scan(
        build_family("case2"),
        window=ScanWindow(-1, 1, -1, 1, grid_density=5),
        keep_samples=True,
    )
    assert canonical_json(scan_payload(small_scan, "0.1.0", "cmd")) == canonical_json(
        scan_payload(again, "0.1.0", "cmd")
    )
    assert points_csv(small_scan.samples) == points_csv(again.samples)


# -- configuration -----------------------------------------------------------


def test_config_defaults():
    cfg = Config()
    assert cfg.tol == 1e-8
    assert cfg.grid_density == 20.0
    assert cfg.soft_exclusion == 0.05
    assert cfg.exclusion_budget == 0.20
    assert cfg.series_order == 40


def test_config_override_skips_none():
    cfg = Config().override(tol=None, grid_density=10.0)
    assert cfg.tol == 1e-8 and cfg.grid_density == 10.0
    assert Config().override() == Config()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": 0.0},
        {"grid_density": 1.0},
        {"soft_exclusion": -0.1},
        {"pole_ceiling": 0.0},
        {"exclusion_budget": 1.5},
        {"series_order": 5},
        {"series_order": 100_000},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        Config(**kwargs)


def test_load_config(tmp_path):
    path = tmp_path / "lab.cfg"
    path.write_text("[scan]\ntol = 1e-6\ngrid_density = 8\n\n[series]\norder = 24\n")
    cfg = load_config(path)
    assert cfg.tol == 1e-6
    assert cfg.grid_density == 8.0
    assert cfg.series_order == 24
    assert cfg.soft_exclusion == 0.05  # untouched default


def test_load_config_rejects_unknown_section(tmp_path):
    path = tmp_path / "lab.cfg"
    path.write_text("[scans]\ntol = 1e-6\n")
    with pytest.raises(ValueError, match="unknown config section"):
        load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "lab.cfg"
    path.write_text("[scan]\ntolerance = 1e-6\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(path)


def test_load_config_rejects_bad_value(tmp_path):
    path = tmp_path / "lab.cfg"
    path.write_text("[series]\norder = fast\n")
    with pytest.raises(ValueError, match="not a"):
        load_config(path)
