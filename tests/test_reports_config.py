"""Deterministic serialization and the layered configuration."""

import hashlib
import json
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatlab import reports
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
from fermatlab.verify import _SAMPLE_DTYPE, ScanWindow, derivative_identity_scan, residual_scan


# -- float formatting --------------------------------------------------------


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


def test_format_float_nonfinite():
    assert format_float(float("nan")) == "nan"
    assert format_float(float("inf")) == "inf"
    assert format_float(float("-inf")) == "-inf"


# -- the CSV's float kernel --------------------------------------------------


def kernel_text(values):
    """reports._render_floats of values, one bytes object per value."""
    out = reports._render_floats(np.asarray(values, dtype=np.float64))
    return [row.tobytes().replace(b"\0", b"") for row in out]


def reference_text(values):
    return [("%.17g" % v).encode() for v in values]


def signed(values):
    return [v for x in values for v in (x, -x)]


POWERS = [float(Fraction(10) ** k) for k in range(-300, 301)]
FAST_MIN, FAST_MAX = reports._FAST_MIN, reports._FAST_MAX

EDGE_VALUES = {
    "zeros, subnormal and extremes": signed(
        [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    "non-finite": [math.inf, -math.inf, math.nan, -math.nan],
    # 13 of these doubles lie below their power by less than half a unit
    # of the 17th digit, so their digits carry into the next decade
    "powers of ten and neighbours": signed(
        [v for p in POWERS for v in (math.nextafter(p, 0), p, math.nextafter(p, math.inf))]),
    "%g switch points": signed(
        [v for p in (1e-5, 9.9999999999999995e-5, 1e-4, 1e16, 1e17)
         for v in (math.nextafter(p, 0), p, math.nextafter(p, math.inf))]),
    # |x| 10^(16 - k) is exactly n + 1/2: "%.17g" rounds half to even
    "exact 17-digit ties": signed([1e15 + 0.25, 1e15 + 0.75, 2e15 + 0.25, 2.25e15 - 0.25]),
    "edges of the certified range": signed(
        [v for p in (FAST_MIN, FAST_MAX)
         for v in (math.nextafter(p, 0), p, math.nextafter(p, math.inf))]),
}


def test_edge_values_reach_the_carry_and_tie_paths():
    carried = [p for k, p in zip(range(-300, 301), POWERS) if Fraction(p) < Fraction(10) ** k
               and ("%.17g" % p).startswith("1e")]
    assert len(carried) == 13
    ties = [Fraction(x) * 10 for x in EDGE_VALUES["exact 17-digit ties"]]
    assert all(t % 1 == Fraction(1, 2) for t in ties)


@pytest.mark.parametrize("values", EDGE_VALUES.values(), ids=EDGE_VALUES.keys())
def test_kernel_matches_printf_on_edge_values(values):
    assert kernel_text(values) == reference_text(values)


def spy_on_fallback(monkeypatch):
    seen = []
    printf = reports._printf

    def spy(x):
        seen.extend(x.tolist())
        return printf(x)

    monkeypatch.setattr(reports, "_printf", spy)
    return seen


@pytest.mark.parametrize("values", EDGE_VALUES.values(), ids=EDGE_VALUES.keys())
def test_kernel_fallback_matches_printf(values, monkeypatch):
    """With a margin above one half every value takes the fallback."""
    monkeypatch.setattr(reports, "_TIE_MARGIN", 1.0)
    seen = spy_on_fallback(monkeypatch)
    assert kernel_text(values) == reference_text(values)
    assert len(seen) == len(values)


def scaled_fraction(x):
    """The fractional part of |x| 10^(16 - k), k = floor(log10 |x|), exactly."""
    f = abs(Fraction(x))
    k = math.floor(math.log10(f))
    k += (Fraction(10) ** (k + 1) <= f) - (Fraction(10) ** k > f)
    scaled = f * Fraction(10) ** (16 - k)
    return scaled - math.floor(scaled)


def test_kernel_falls_back_only_off_its_range_and_at_ties(monkeypatch):
    """Carries, decade guesses and %g switches are the kernel's own work."""
    seen = spy_on_fallback(monkeypatch)
    values = [v for values in EDGE_VALUES.values() for v in values]
    kernel_text(values)
    certified = [v for v in values if FAST_MIN <= abs(v) <= FAST_MAX]
    slow = [v for v in seen if v in certified]
    assert all(abs(scaled_fraction(v) - Fraction(1, 2)) < 1e-6 for v in slow)
    assert set(EDGE_VALUES["exact 17-digit ties"]) <= set(slow)
    assert len(seen) - len(slow) == len(values) - len(certified)


def bits_to_float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@given(st.one_of(st.integers(0, 2**64 - 1).map(bits_to_float),
                 st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
@settings(max_examples=2000, deadline=None)
def test_kernel_matches_printf_on_any_double(x):
    assert kernel_text([x]) == reference_text([x])


def test_kernel_matches_printf_on_random_arrays():
    rng = np.random.default_rng(20261019)
    x = np.concatenate([rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64),
                        rng.standard_normal(20000) * 10.0 ** rng.integers(-20, 20, 20000),
                        np.linspace(-2.0, 2.0, 401)])
    assert kernel_text(x) == reference_text(x.tolist())


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


def reference_csv(samples):
    """points_csv as one "%.17g" format per row, the formula before the
    kernel."""
    row = "%.17g,%.17g,%.17g,%.17g,%d\n"
    return CSV_HEADER + "\n" + "".join([row % r for r in samples.tolist()])


def edge_samples(n):
    """n sample rows cycling through every edge value in every column, with
    the z columns repeating as they do along a grid."""
    pool = np.array([v for values in EDGE_VALUES.values() for v in values])
    i = np.arange(n)
    samples = np.empty(n, dtype=_SAMPLE_DTYPE)
    samples["z_re"] = pool[i % 61]
    samples["z_im"] = pool[(i // 61) % len(pool)]
    samples["residual_abs"] = pool[i % len(pool)]
    samples["residual_rel"] = pool[(7 * i + 3) % len(pool)]
    samples["excluded"] = np.array([0, 1, 1, 0, -128, 127, -1])[i % 7]
    return samples


B = reports._CSV_BLOCK


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 1])
def test_points_csv_matches_the_row_formula(n, tmp_path):
    samples = edge_samples(n)
    text = points_csv(samples)
    assert text == reference_csv(samples)
    write_csv(tmp_path / "points.csv", samples)
    assert (tmp_path / "points.csv").read_bytes() == text.encode()


@pytest.fixture(scope="module")
def scans_81_and_401():
    fam = build_family("case2")
    return (residual_scan(fam, keep_samples=True),
            residual_scan(fam, ScanWindow(grid_density=100.0), keep_samples=True))


def traced_peak(fn, *args):
    fn(*args)  # the kernel's tables are built once, on first use
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_points_csv_memory_is_bounded(scans_81_and_401):
    """One "%.17g" per row peaked at 1.85 MiB (81 x 81) and 49.6 MiB
    (401 x 401); the text's blocks and their joins stay below that."""
    small, large = scans_81_and_401
    assert len(large.samples) == 401 * 401
    assert traced_peak(points_csv, small.samples) < 1.85 * 2**20
    assert traced_peak(points_csv, large.samples) < 49.5 * 2**20


def test_write_csv_streams_its_blocks(scans_81_and_401, tmp_path):
    """write_csv never holds the 13 MB text of a 401 x 401 scan."""
    path = tmp_path / "points.csv"
    samples = scans_81_and_401[1].samples
    assert traced_peak(write_csv, path, samples) < 2 * 2**20
    assert path.stat().st_size == 13271033


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
