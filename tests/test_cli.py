import collections
import dataclasses
import itertools
import math
import os
import pathlib
import shutil
import tempfile
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsharsim import AfsharGeometry, apparatus, duality, remnant
from afsharsim import cli
from afsharsim.cli import main
from afsharsim.config import Config, ConfigError, load_config, parse_config
from afsharsim.report import (
    _CSV,
    _FMT_DTYPE,
    POWERS_COLUMNS,
    ReportError,
    _fmt,
    _fmt_kept,
    _fmt_rows,
    _head,
    _kept,
    _parse,
    _read_csv,
)
from afsharsim.wavefield import _BLOCK, Grid


# a focal length one ulp below the 0.716875 m object distance: 1/f - 1/s
# rounds to zero, so the lens has no real image of the slits
ULP_SHORT_FOCUS = (
    "z_slits_to_grid = 0.216875\nz_grid_to_lens = 0.5\nfocal_length = 0.7168749999999999\n"
)


def run(*argv):
    return main(list(argv))


def fingerprint(geometry, grid):
    """The config stamp, from its definition: CRC-32 of the 8 geometry and 3 grid fields."""
    values = [getattr(geometry, name) for name in GEOMETRY_FIELDS]
    values += [grid.n_samples, grid.spacing, grid.center]
    return format(zlib.crc32(",".join(repr(float(v)) for v in values).encode()), "08x")


GEOMETRY_FIELDS = (
    "slit_width",
    "slit_separation",
    "z_slits_to_grid",
    "z_grid_to_lens",
    "focal_length",
    "wire_width",
    "n_wires",
    "wavelength",
)
DEFAULT_FINGERPRINT = fingerprint(AfsharGeometry.default(), Grid(2**14, 5e-6))


def cosine_pattern(n=512, shift=None, set_i=None):
    """x_m and intensity of a 32-sample-period cosine on n samples of 10 um.

    ``shift = (i, f)`` moves sample i by f spacings; ``set_i = (i, v)`` sets
    its intensity to v.
    """
    dx = 1e-5
    xs = (np.arange(n) - n // 2) * dx
    intensity = 1 + np.cos(2 * np.pi * xs / (32 * dx))
    if shift is not None:
        xs[shift[0]] += shift[1] * dx
    if set_i is not None:
        intensity[set_i[0]] = set_i[1]
    return xs, intensity


def pattern_csv(xs, intensity):
    rows = (f"{float(x)!r},{float(v)!r}" for x, v in zip(xs, intensity))
    return "x_m,intensity\n" + "\n".join(rows) + "\n"


@pytest.fixture
def opened(monkeypatch):
    """The ``pathlib.Path.open`` calls of the test, counted per file name."""
    counts = collections.Counter()
    path_open = pathlib.Path.open

    def counting_open(path, *args, **kwargs):
        counts[path.name] += 1
        return path_open(path, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "open", counting_open)
    return counts


@pytest.fixture(scope="module")
def cli_out(tmp_path_factory):
    """One standard command set, shared by the assertions below."""
    out = tmp_path_factory.mktemp("cli")
    for scenario, grid in (("both", "in"), ("both", "out"), ("upper", "out"), ("upper", "in")):
        assert run("simulate", "--scenario", scenario, "--grid", grid, "--out", str(out)) == 0
    assert (
        run(
            "duality",
            "--probe", "0.6,0.8",
            "--random-detectors", "50",
            "--seed", "7",
            "--out", str(out),
        )
        == 0
    )
    assert run("remnant", "--direction", "1,0", "--out", str(out)) == 0
    assert run("report", "--out", str(out)) == 0
    return out


class TestSimulate:
    def test_csv_files_and_headers(self, cli_out):
        for name in ("sigma1.csv", "sigma2.csv"):
            lines = (cli_out / name).read_text().splitlines()
            assert lines[:2] == [f"# config {DEFAULT_FINGERPRINT}", "x_m,intensity"], name
        powers = (cli_out / "powers.csv").read_text().splitlines()
        assert powers[0] == f"# config {DEFAULT_FINGERPRINT}"
        assert powers[1] == (
            "scenario,grid,power_incident,power_after_grid,power_at_detectors,"
            "power_window_U,power_window_L"
        )
        assert len(powers) == 6  # stamp, header and four accumulated scenario rows

    def test_profiles_share_one_x_m_column(self, cli_out):
        # sigma1.csv's rows fill the x_m table and sigma2.csv's read it back
        xs = [_fmt(x) for x in Grid(2**14, 5e-6).coordinates]
        for name in ("sigma1.csv", "sigma2.csv"):
            rows = (cli_out / name).read_text().splitlines()[2:]
            assert [row.split(",")[0] for row in rows] == xs, name

    def test_bench_is_released_before_the_profiles_are_written(self, tmp_path, monkeypatch):
        held = []
        write_lines = cli._write_lines

        def write(path, lines):
            held.append(apparatus._bench.cache_info().currsize)
            write_lines(path, lines)

        monkeypatch.setattr(cli, "_write_lines", write)
        assert run("simulate", "--out", str(tmp_path)) == 0
        assert held == [0, 0, 0, 0]

    def test_full_double_precision_round_trip(self, cli_out):
        row = (cli_out / "sigma1.csv").read_text().splitlines()[2]
        x_text, i_text = row.split(",")
        assert repr(float(x_text)) == x_text
        assert repr(float(i_text)) == i_text

    def test_grid_transparency_row(self, cli_out):
        rows = {}
        for line in (cli_out / "powers.csv").read_text().splitlines()[2:]:
            parts = line.split(",")
            rows[(parts[0], parts[1])] = [float(v) for v in parts[2:]]
        p_in = rows[("both", "in")][2]
        p_out = rows[("both", "out")][2]
        assert p_in / p_out >= 0.99

    def test_window_fraction_row(self, cli_out):
        for line in (cli_out / "powers.csv").read_text().splitlines()[2:]:
            parts = line.split(",")
            if (parts[0], parts[1]) == ("upper", "out"):
                vals = [float(v) for v in parts[2:]]
                assert vals[3] / vals[2] >= 0.99

    def test_mirrored_slits_have_identical_power_rows(self, tmp_path):
        out = tmp_path / "s"
        for scenario in ("upper", "lower"):
            assert run("simulate", "--scenario", scenario, "--grid", "out", "--out", str(out)) == 0
        rows = {
            line.split(",")[0]: line.split(",")
            for line in (out / "powers.csv").read_text().splitlines()[2:]
        }
        # the lower record is the upper one mirrored: the same text, with
        # the two window fields swapped
        upper, lower = rows["upper"], rows["lower"]
        assert lower == ["lower", *upper[1:5], upper[6], upper[5]]

    def test_missing_config_exits_2_without_partial_files(self, tmp_path):
        out = tmp_path / "never_created"
        code = run("simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(out))
        assert code == 2
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wavelenght = 650e-9\n")
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2

    def test_detector_distance_is_not_a_config_key(self, tmp_path, capsys):
        # the lens fixes it: 1/s + 1/z = 1/f
        cfg = tmp_path / "c.cfg"
        cfg.write_text("focal_length = 0.5\nz_lens_to_detectors = 0.75\n")
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err == "error: line 2: unknown key 'z_lens_to_detectors'\n"
        assert not (tmp_path / "o").exists()

    def test_band_limit_violation_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text("spacing = 1e-3\nn_samples = 256\n")
        code = run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 3
        assert "source" in capsys.readouterr().err

    def test_downstream_band_limit_violation_exits_3_with_one_line(self, tmp_path, capsys):
        # a box twice as wide at the default spacing passes the source and
        # sigma1 guards, and the lensed field of every slit configuration
        # fails the lens_phase guard (tail fractions 1.4e-4 to 2.1e-4)
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("n_samples = 32768\nspacing = 5e-6\n")
        for slits, state in itertools.product(("both", "upper", "lower"), ("in", "out")):
            argv = ("--config", str(cfg), "--scenario", slits, "--grid", state)
            assert run("simulate", *argv, "--out", str(tmp_path / "o")) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: band-limit guard violated at stage 'lens_phase'")
            assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, scenario, grid",
        [
            ("n_wires = 5\n", "both", "in"),
            ("n_wires = 5\n", "upper", "out"),
            ("spacing = inf\n", "both", "in"),
            ("focal_length = 0\n", "both", "out"),
            ("n_samples = 1099511627776\n", "both", "out"),
            # valid geometries whose sigma1 minima are not resolvable
            ("slit_width = 150e-6\n", "both", "out"),
            ("slit_width = 150e-6\n", "both", "in"),
            ("slit_width = 150e-6\n", "upper", "in"),
            ("z_slits_to_grid = 0.1\n", "both", "in"),
            (ULP_SHORT_FOCUS, "both", "out"),
            # a real image 9e15 m away: the detector windows lie beyond the grid
            ("focal_length = 1.4999999999999998\n", "upper", "out"),
        ],
    )
    def test_invalid_config_exits_2_with_one_line(self, tmp_path, capsys, text, scenario, grid):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        argv = ("--config", str(cfg), "--scenario", scenario, "--grid", grid)
        assert run("simulate", *argv, "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_corrupt_powers_csv_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        corrupt = "scenario,grid,power_incident\nboth,out\n"
        (out / "powers.csv").write_text(corrupt)
        assert run("simulate", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "powers.csv:2" in err
        assert (out / "powers.csv").read_text() == corrupt
        assert not (out / "sigma1.csv").exists()

    def test_config_file_round_trip(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "# reference bench, slightly shorter camera arm\n"
            "wavelength = 650e-9\n"
            "z_grid_to_lens = 0.25   # sigma1 to lens\n"
            "focal_length = 0.5\n"
        )
        out = tmp_path / "o"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
        assert (out / "powers.csv").is_file()


class TestDuality:
    COSINE = pattern_csv(*cosine_pattern())

    def test_probe_endpoint_row(self, tmp_path):
        out = tmp_path / "d"
        assert run("duality", "--probe", "1,0", "--out", str(out)) == 0
        rows = (out / "vk.csv").read_text().splitlines()
        assert rows[0] == "model,a_or_V_source,V,K,V2K2"
        probe_row = rows[1].split(",")
        assert probe_row[0] == "probe"
        assert float(probe_row[2]) == 0.0 and float(probe_row[3]) == 1.0
        assert float(probe_row[4]) == 1.0

    def test_random_detectors_satisfy_identity(self, cli_out):
        for line in (cli_out / "vk.csv").read_text().splitlines()[1:]:
            parts = line.split(",")
            if parts[0] == "detector":
                assert abs(float(parts[4]) - 1.0) < 1e-12

    def test_random_detectors_equal_one_stack(self, tmp_path):
        # the command reduces one block of detectors at a time to V and K
        n = 2 * _BLOCK + 1
        argv = ("--random-detectors", str(n), "--seed", "7", "--out", str(tmp_path))
        assert run("duality", *argv) == 0
        rows = [r.split(",") for r in (tmp_path / "vk.csv").read_text().splitlines()[1:]]
        detectors = [r for r in rows if r[0] == "detector"]
        pair = duality.vk_from_detector(duality.random_detector_model(np.random.default_rng(7), n))
        assert [r[2] for r in detectors] == [_fmt(v) for v in pair.V]
        assert [r[3] for r in detectors] == [_fmt(k) for k in pair.K]

    def test_memory_grows_by_the_detectors_rows_only(self, tmp_path):
        # V, K and V^2+K^2 are 24 B a detector; a stack of detectors is 160 B
        def peak(n):
            tracemalloc.start()
            try:
                assert run("duality", "--random-detectors", str(n), "--out", str(tmp_path)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = 8 * _BLOCK, 64 * _BLOCK
        assert (peak(large) - peak(small)) / (large - small) < 48

    def test_ladder_is_non_increasing(self, cli_out):
        rows = (cli_out / "visibility_bins.csv").read_text().splitlines()
        assert rows[0] == "bin_width_m,V"
        values = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] < 0.01

    def test_pattern_csv_input(self, tmp_path):
        csv = tmp_path / "pattern.csv"
        csv.write_text(self.COSINE)
        out = tmp_path / "d"
        assert (
            run(
                "duality",
                "--pattern", str(csv),
                "--period-samples", "32",
                "--bin-ladder", "6",
                "--out", str(out),
            )
            == 0
        )
        rows = (out / "vk.csv").read_text().splitlines()
        pattern_rows = [r for r in rows[1:] if r.startswith("pattern,")]
        assert len(pattern_rows) == 1
        assert float(pattern_rows[0].split(",")[2]) == pytest.approx(1.0, abs=1e-6)

    def test_bad_probe_exits_2(self, tmp_path):
        assert run("duality", "--probe", "1,1", "--out", str(tmp_path / "d")) == 2

    def test_random_rows_do_not_depend_on_count(self, tmp_path):
        rows = {}
        for n in (1000, 20000):
            out = tmp_path / str(n)
            argv = ("--random-detectors", str(n), "--seed", "2", "--out", str(out))
            assert run("duality", *argv) == 0
            lines = (out / "vk.csv").read_text().splitlines()
            rows[n] = [line for line in lines if line.startswith("detector,random[")]
        assert len(rows[1000]) == 1000 and len(rows[20000]) == 20000
        assert rows[1000] == rows[20000][:1000]

    @pytest.mark.parametrize(
        "flags, where",
        [
            (("--seed", "-1", "--random-detectors", "2"), "--seed"),
            (("--random-detectors", "-3"), "--random-detectors"),
            (("--random-detectors", str(2**20 + 1)), "--random-detectors"),
            (("--random-detectors", str(2**40)), "--random-detectors"),
            (("--bin-ladder", "-1"), "--bin-ladder"),
            (("--bin-ladder", "0"), "--bin-ladder"),
            (("--period-samples", "0"), "--period-samples"),
            # the built-in cosine has a fixed period: the flag needs --pattern
            (("--period-samples", "7"), "--period-samples applies only to a --pattern"),
            (("--period-samples", "100000"), "--period-samples applies only to a --pattern"),
            (("--probe", "nan,1"), "nan"),
            # |a|^2 overflows: the norm check must reject it, not raise OverflowError
            (("--probe", "1e200,0"), "inf"),
        ],
    )
    def test_bad_flag_exits_2_with_one_line(self, tmp_path, capsys, flags, where):
        assert run("duality", *flags, "--out", str(tmp_path / "d")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "text, flags, where",
        [
            pytest.param(
                pattern_csv(*cosine_pattern(shift=(100, 0.3))),
                (),
                "pattern.csv: x_m is not a uniform grid",
                id="shifted-x",
            ),
            pytest.param(
                pattern_csv(*cosine_pattern(set_i=(7, np.nan))),
                (),
                "pattern.csv: intensity must be finite",
                id="nan-i",
            ),
            pytest.param(
                pattern_csv(*cosine_pattern(set_i=(7, np.inf))),
                (),
                "pattern.csv: intensity must be finite",
                id="inf-i",
            ),
            pytest.param(
                pattern_csv(*cosine_pattern(set_i=(7, -0.5))),
                (),
                "pattern.csv: intensity must be finite and non-negative",
                id="neg-i",
            ),
            pytest.param(
                pattern_csv(*cosine_pattern(n=500)), (), "power of two", id="500-samples"
            ),
            pytest.param(
                pattern_csv(*cosine_pattern(n=1)), (), "pattern.csv: fewer than two", id="1-sample"
            ),
            pytest.param("x_m,intensity\n0.0,1.0\nabc,1.0\n", (), "pattern.csv:3: x_m", id="abc"),
            pytest.param("x_m,I\n0.0,1.0\n1.0,1.0\n", (), "pattern.csv:1: missing", id="header"),
            pytest.param("x_m,intensity\n", (), "pattern.csv: no data rows", id="no-rows"),
            # the widest ladder bin, one period, must leave two bins of the 512 samples
            pytest.param(COSINE, ("--period-samples", "256"), "[1, 255], got 256", id="period"),
            pytest.param(COSINE, ("--period-samples", "2048"), "[1, 255]", id="period-2048"),
        ],
    )
    def test_bad_pattern_exits_2_with_one_line(self, tmp_path, capsys, text, flags, where):
        csv = tmp_path / "pattern.csv"
        csv.write_text(text)
        argv = ("--pattern", str(csv), *flags, "--out", str(tmp_path / "d"))
        assert run("duality", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("name", ["a,b.csv", "a\nb.csv"], ids=["comma", "newline"])
    def test_pattern_name_that_would_split_its_row_exits_2(self, tmp_path, capsys, name):
        # the file name is the source field of the pattern's vk.csv row
        csv = tmp_path / name
        csv.write_text(self.COSINE)
        assert run("duality", "--pattern", str(csv), "--out", str(tmp_path / "d")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --pattern ") and err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    def test_fine_grid_far_off_axis_is_uniform(self, tmp_path):
        # 1 nm samples at x ~ 100 m: xs[1] - xs[0] is 1.1e-5 nm short, which
        # drifts the grid 0.087 spacings over 16384 samples; the spacing of
        # the end samples drifts 1.4e-5 spacings
        xs = 100.0 + (np.arange(2**14) - 2**13) * 1e-9
        csv = tmp_path / "pattern.csv"
        csv.write_text(pattern_csv(xs, 1 + np.cos(2 * np.pi * (xs - 100.0) / 64e-9)))
        assert run("duality", "--pattern", str(csv), "--out", str(tmp_path / "d")) == 0

    def test_widest_period_that_fits_the_pattern(self, tmp_path):
        csv = tmp_path / "pattern.csv"
        csv.write_text(self.COSINE)
        argv = ("--pattern", str(csv), "--period-samples", "255", "--out", str(tmp_path / "d"))
        assert run("duality", *argv) == 0

    def test_random_detector_bound_checked_before_allocation(self, tmp_path, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("detectors drawn")

        monkeypatch.setattr(duality, "random_detector_model", no_draw)
        argv = ("--random-detectors", str(2**20 + 1), "--out", str(tmp_path / "d"))
        assert run("duality", *argv) == 2


class TestRemnant:
    def test_sample_memory_does_not_grow_with_the_samples(self, tmp_path):
        # the draws are taken and written a block at a time; one rng.choice
        # call would hold 16 B a sample
        def peak(n):
            apparatus._bench.cache_clear()
            tracemalloc.start()
            try:
                argv = ("--seed", "1", "--samples", str(n), "--out", str(tmp_path))
                assert run("remnant", *argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10**6) - peak(10**4) < 2**19

    def test_headers_and_custom_direction(self, cli_out):
        rows = (cli_out / "remnant.csv").read_text().splitlines()
        assert rows[1] == "x_m,total,post_vU,post_vL,post_plus,post_minus,post_custom"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[2:]])
        # --direction 1,0 is exactly the v_U selection
        np.testing.assert_array_equal(data[:, 2], data[:, 6])

    def test_summary_probabilities(self, cli_out):
        probs = {}
        for line in (cli_out / "remnant_summary.csv").read_text().splitlines()[2:]:
            key, val = line.split(",")
            probs[key] = float(val)
        assert probs["post_vU"] + probs["post_vL"] == pytest.approx(1.0, abs=1e-12)
        # the lower slit mirrors the upper, so v_L's outcome is v_U's mirrored
        assert probs["post_vU"] == probs["post_vL"]
        assert probs["post_plus"] + probs["post_minus"] == pytest.approx(1.0, abs=1e-12)

    def test_lower_column_is_the_upper_column_mirrored(self, cli_out):
        rows = (cli_out / "remnant.csv").read_text().splitlines()[2:]
        upper, lower = zip(*(row.split(",")[2:4] for row in rows))
        # row i is site i; the mirror x -> -x sends it to row n - i, row 0 to itself
        assert list(lower) == [upper[0], *upper[:0:-1]]

    def test_completeness_from_files(self, cli_out):
        rows = (cli_out / "remnant.csv").read_text().splitlines()
        data = np.array([[float(v) for v in r.split(",")] for r in rows[2:]])
        probs = dict(
            line.split(",")
            for line in (cli_out / "remnant_summary.csv").read_text().splitlines()[2:]
        )
        recomposed = float(probs["post_vU"]) * data[:, 2] + float(probs["post_vL"]) * data[:, 3]
        np.testing.assert_allclose(recomposed, data[:, 1], atol=1e-12)

    def test_seeded_samples_are_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run("remnant", "--seed", "9", "--samples", "25", "--out", str(out)) == 0
        assert (out_a / "remnant_samples.csv").read_bytes() == (
            out_b / "remnant_samples.csv"
        ).read_bytes()

    def test_sampled_x_m_are_remnant_csv_strings(self, tmp_path):
        # each sample's x_m is, as text, remnant.csv's x_m of the site drawn,
        # with the sites drawn again from the same seed
        n, out = 3 * _BLOCK + 7, tmp_path / "r"
        assert run("remnant", "--seed", "4", "--samples", str(n), "--out", str(out)) == 0
        remnant_rows = (out / "remnant.csv").read_text().splitlines()[2:]
        x_m = [line.split(",", 1)[0] for line in remnant_rows]
        fields = apparatus.sigma1_fields(AfsharGeometry.default(), Grid(2**14, 5e-6))
        blocks = remnant.sample_sites(remnant.build_remnant(*fields), n, np.random.default_rng(4))
        sites = np.concatenate(list(blocks)).tolist()
        samples = (out / "remnant_samples.csv").read_text().splitlines()
        assert samples[0] == "index,x_m"
        assert samples[1:] == [f"{i},{x_m[site]}" for i, site in enumerate(sites)]

    def test_x_m_table_keeps_the_longest_reprs_whole(self):
        # 24 characters is the longest float64 repr; numpy would cut a
        # longer string to a narrower table's width without a word
        values = [-2.2250738585072014e-308, -1.7976931348623157e308, 5e-324, -0.0]
        table = np.empty(len(values), _FMT_DTYPE)
        assert list(_fmt_kept(values, table)) == [_fmt(v) for v in values]
        kept = list(_kept(table))
        assert kept == [_fmt(v) for v in values]
        assert np.array([float(x) for x in kept]).tobytes() == np.array(values).tobytes()

    def test_fine_grid_memory_holds_x_m_as_a_table(self, tmp_path):
        # 2^16 sites and 10^5 samples: 8.8 MiB measured with the 1.5 MiB
        # table; keeping every x_m string instead took 10.5 MiB
        cfg = tmp_path / "fine.cfg"
        cfg.write_text("n_samples = 65536\nspacing = 1.25e-6\n")
        argv = ("--config", str(cfg), "--seed", "1", "--samples", str(10**5))
        tracemalloc.start()
        try:
            assert run("remnant", *argv, "--out", str(tmp_path / "r")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9.5 * 2**20

    def test_samples_without_seed_exit_2(self, tmp_path):
        assert run("remnant", "--samples", "5", "--out", str(tmp_path / "r")) == 2

    @pytest.mark.parametrize(
        "text, flags",
        [
            pytest.param(text, (), id=text)
            for text in ("n_samples = 1099511627776\n", "slit_width = 1e-300\n", ULP_SHORT_FOCUS)
        ]
        + [
            ("", ("--seed", "-1", "--samples", "5")),
            ("seed = -1\n", ("--samples", "5")),
            ("", ("--seed", "1", "--samples", "-1")),
            ("", ("--seed", "1", "--samples", str(2**20 + 1))),
            ("", ("--seed", "1", "--samples", str(2**40))),
            ("", ("--samples", "5")),
            ("", ("--direction", "nan,1")),
            ("", ("--direction", "1e200,1")),
        ],
    )
    def test_invalid_config_exits_2_with_one_line(self, tmp_path, capsys, text, flags):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert run("remnant", "--config", str(cfg), *flags, "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()


class TestReport:
    def test_report_written_and_printed(self, cli_out, capsys):
        assert run("report", "--out", str(cli_out)) == 0
        text = capsys.readouterr().out
        assert "verdicts" in text
        assert "[PASS]" in text
        assert (cli_out / "report.txt").read_text() == text

    def test_report_verdicts_cover_transparency(self, cli_out):
        text = (cli_out / "report.txt").read_text()
        assert "grid transparency" in text
        assert "[FAIL]" not in text

    def test_afshar_pair_is_stated_after_the_verdicts_and_not_judged(self, cli_out, tmp_path):
        # V from grid transparency, K from the smaller grid-out
        # discrimination, both recomputed here from powers.csv
        out = tmp_path / "o"
        shutil.copytree(cli_out, out)
        for grid in ("in", "out"):
            assert run("simulate", "--scenario", "lower", "--grid", grid, "--out", str(out)) == 0
        assert run("report", "--out", str(out)) == 0
        rows = {}
        for line in (out / "powers.csv").read_text().splitlines()[2:]:
            parts = line.split(",")
            rows[(parts[0], parts[1])] = dict(zip(POWERS_COLUMNS[2:], map(float, parts[2:])))
        v = rows[("both", "in")]["power_at_detectors"] / rows[("both", "out")]["power_at_detectors"]
        windows = [
            (rows[(s, "out")]["power_window_U"], rows[(s, "out")]["power_window_L"])
            for s in ("upper", "lower")
        ]
        k = min(abs(u - l) / (u + l) for u, l in windows)
        text = (out / "report.txt").read_text()
        verdicts = text.split("verdicts\n")[1].split("\n\n")[0].splitlines()
        assert sum(line.startswith("  [PASS] ") for line in verdicts) == 14
        assert not any(line.startswith("  [FAIL] ") for line in verdicts)
        info = verdicts[-1]
        assert info.startswith("  [INFO] ")
        assert f"V^2 + K^2 = {v * v + k * k!r}," in info
        assert f"{v!r}" in info and f"{k!r}" in info
        assert "not tested" in info
        assert 1.99 < v * v + k * k < 2.0

    def test_afshar_pair_needs_both_grid_states_and_a_single_slit(self, tmp_path):
        out = tmp_path / "o"
        for slits, grid in (("both", "in"), ("both", "out"), ("upper", "in")):
            assert run("simulate", "--scenario", slits, "--grid", grid, "--out", str(out)) == 0
            assert run("report", "--out", str(out)) == 0
            assert "[INFO]" not in (out / "report.txt").read_text()

    def test_empty_directory_exits_2(self, tmp_path):
        assert run("report", "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("slits", ["upper", "both"])
    def test_zero_incident_power_skips_its_grid_losses(self, cli_out, tmp_path, capsys, slits):
        # a grid loss is a ratio to power_incident: like the other power
        # ratios, it is left out when its denominator is not positive
        lines = (cli_out / "powers.csv").read_text().splitlines(keepends=True)
        for i, line in enumerate(lines):
            if line.startswith(f"{slits},in,"):
                fields = line.split(",")
                lines[i] = ",".join(fields[:2] + ["0.0"] + fields[3:])
        (tmp_path / "powers.csv").write_text("".join(lines))
        (tmp_path / "derived.csv").write_bytes((cli_out / "derived.csv").read_bytes())
        assert run("report", "--out", str(tmp_path)) == 0
        assert "Traceback" not in capsys.readouterr().err
        verdicts = (tmp_path / "report.txt").read_text().split("verdicts\n")[1]
        assert "grid transparency" in verdicts
        if slits == "both":
            assert "loss ordering" not in verdicts
            assert "single-slit (upper) grid loss" in verdicts
        else:
            assert "single-slit (upper)" not in verdicts
            assert "both-slit loss" not in verdicts

    POWERS = (
        "scenario,grid,power_incident,power_after_grid,power_at_detectors,"
        "power_window_U,power_window_L\n"
        "both,out,1.0,1.0,1.0,0.5,0.5\n"
    )

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("powers.csv", POWERS + "both,in,1.0,1.0,1.0,0.5", "powers.csv:3"),
            ("powers.csv", "", "powers.csv"),
            ("powers.csv", POWERS.replace("0.5\n", "abc\n"), "powers.csv:2"),
            ("powers.csv", POWERS.replace("power_incident", "p_in"), "powers.csv:1"),
            # a non-finite number would pass or fail a verdict by accident
            (
                "powers.csv",
                POWERS + "both,in,1.0,1.0,inf,0.5,0.5\n",
                "powers.csv:3: power_at_detectors = 'inf' is not finite",
            ),
            (
                "visibility_bins.csv",
                "bin_width_m,V\n5e-06,1.0\n0.00032,-inf\n",
                "visibility_bins.csv:3: V = '-inf' is not finite",
            ),
            # one scan names the first bad line: a non-finite value before one that is no number
            (
                "powers.csv",
                POWERS.replace("both,out,1.0", "both,out,inf") + "both,in,abc,1.0,1.0,0.5,0.5\n",
                "powers.csv:2: power_incident = 'inf' is not finite",
            ),
            ("vk.csv", "model,a_or_V_source,V,K,V2K2\nprobe,x,0.5\n", "vk.csv:2"),
            ("visibility_bins.csv", "bin_width_m,V\n5e-06,one\n", "visibility_bins.csv:2"),
            ("remnant.csv", "x_m,total\n", "remnant.csv"),
            (
                "remnant.csv",
                "# config 0123abcd\nx_m,total,post_vU,post_vL,post_plus,post_minus\n",
                "remnant.csv: no data rows",
            ),
            (
                "vk.csv",
                "model,a_or_V_source,V,K\nprobe,x,0.6,0.8\n",
                "vk.csv:1: missing column 'V2K2'",
            ),
            (
                "visibility_bins.csv",
                "width,V\n5e-06,1.0\n",
                "visibility_bins.csv:1: missing column 'bin_width_m'",
            ),
            (
                "remnant.csv",
                "x_m,total,post_vL,post_plus,post_minus\n0.0,1.0,1.0,1.0,1.0\n",
                "remnant.csv:1: missing column 'post_vU'",
            ),
            # the reader requires the header the writer writes
            (
                "remnant.csv",
                "total,post_vU,post_vL,post_plus,post_minus\n1.0,1.0,1.0,1.0,1.0\n",
                "remnant.csv:1: missing column 'x_m'",
            ),
            # a surplus field fails the field-count check even where no column reads it
            (
                "remnant.csv",
                "x_m,total,post_vU,post_vL,post_plus,post_minus\n0.0,1.0,1.0,1.0,1.0,1.0,9.9\n",
                "remnant.csv:2: 7 fields where the header has 6",
            ),
            # x_m is parsed although no verdict reads it
            (
                "remnant.csv",
                "x_m,total,post_vU,post_vL,post_plus,post_minus\nabc,1.0,1.0,1.0,1.0,1.0\n",
                "remnant.csv:2: x_m = 'abc'",
            ),
            # the first bad line in row order is named, whatever its column
            (
                "vk.csv",
                "model,a_or_V_source,V,K,V2K2\nprobe,x,0.6,0.8,bad\nprobe,x,bad,0.8,1.0\n",
                "vk.csv:2: V2K2 = 'bad'",
            ),
            (
                "vk.csv",
                "model,a_or_V_source,V,K,V2K2\nprobe,x,0.6,0.8,1.0x\nprobe,x,0.5\n",
                "vk.csv:2: V2K2",
            ),
            (
                "vk.csv",
                "model,a_or_V_source,V,K,V2K2\nprobe,x,0.5\nprobe,x,a,b,c\n",
                "vk.csv:2: 3 fields",
            ),
        ],
    )
    def test_malformed_csv_exits_2_with_one_line(self, tmp_path, capsys, name, text, where):
        (tmp_path / name).write_text(text)
        assert run("report", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err
        assert not (tmp_path / "report.txt").exists()

    def test_each_input_is_opened_once(self, cli_out, opened):
        assert run("report", "--out", str(cli_out)) == 0
        inputs = ["powers.csv", "derived.csv", "vk.csv", "visibility_bins.csv"]
        inputs += ["remnant.csv", "remnant_summary.csv"]
        csvs = {name: n for name, n in opened.items() if name.endswith(".csv")}
        assert csvs == dict.fromkeys(inputs, 1)

    def test_malformed_row_past_the_first_block_is_named(self, cli_out, tmp_path, capsys):
        # row 1500 of remnant.csv, line 1502 under the stamp and the header, loses a field
        lines = (cli_out / "remnant.csv").read_text().splitlines(keepends=True)
        lines[1501] = lines[1501].split(",", 1)[1]
        path = tmp_path / "remnant.csv"
        path.write_text("".join(lines))
        assert run("report", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {path}:1502: 6 fields where the header has 7\n"
        assert not (tmp_path / "report.txt").exists()

    def test_non_number_past_the_first_block_is_named(self, tmp_path, capsys):
        assert run("duality", "--random-detectors", "2000", "--out", str(tmp_path)) == 0
        path = tmp_path / "vk.csv"
        lines = path.read_text().splitlines(keepends=True)
        fields = lines[1799].split(",")
        fields[2] = "abc"
        lines[1799] = ",".join(fields)
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run("report", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {path}:1800: V = 'abc' is not a number\n"
        assert not (tmp_path / "report.txt").exists()

    def test_undecodable_byte_is_named_by_its_offset_in_the_file(self, cli_out, tmp_path, capsys):
        # past the decoder's first chunk and after a malformed line: the byte
        # is named first, at its offset in the file, as a whole-file decode names it
        data = bytearray((cli_out / "remnant.csv").read_bytes())
        data[data.index(b"\n", 500) + 1] = ord("x")
        data[100_000] = 0xFF
        try:
            bytes(data).decode()
        except UnicodeDecodeError as exc:
            expected = f"not a text file: {exc}"
        assert "position 100000" in expected
        path = tmp_path / "remnant.csv"
        path.write_bytes(data)
        assert run("report", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {path}: {expected}\n"

    REMNANT = "x_m,total,post_vU,post_vL,post_plus,post_minus\n0.0,1.0,1.0,1.0,1.0,1.0\n"
    # a companion file is only read next to its main file
    MAIN = {"remnant_summary.csv": ("remnant.csv", REMNANT), "derived.csv": ("powers.csv", POWERS)}

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("remnant_summary.csv", "key,val\npost_vU,0.5\n", "missing column 'value'"),
            (
                "remnant_summary.csv",
                "key,value\npost_vU,0.5\npost_plus,0.5\npost_minus,0.5\n",
                "remnant_summary.csv: missing key 'post_vL'",
            ),
            ("derived.csv", "name,value\nfill_factor,0.1\n", "derived.csv:1: missing column"),
            ("derived.csv", "key,value\nfill_factor,inf\n", "derived.csv:2: value = 'inf' is not finite"),
        ],
    )
    def test_malformed_companion_csv_exits_2_with_one_line(
        self, tmp_path, capsys, name, text, where
    ):
        main_name, main_text = self.MAIN[name]
        (tmp_path / main_name).write_text(main_text)
        (tmp_path / name).write_text(text)
        assert run("report", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err
        assert not (tmp_path / "report.txt").exists()


def snapshot(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestProvenance:
    """Results of two configs never share an output directory or a report."""

    def test_config_dependent_files_are_stamped(self, cli_out):
        assert cli._STAMPED == (
            "powers.csv",
            "derived.csv",
            "sigma1.csv",
            "sigma2.csv",
            "remnant.csv",
            "remnant_summary.csv",
        )
        for name in cli._STAMPED:
            first = (cli_out / name).read_text().splitlines()[0]
            assert first == f"# config {DEFAULT_FINGERPRINT}", name
        for name in ("vk.csv", "visibility_bins.csv", "report.txt"):
            assert "# config" not in (cli_out / name).read_text(), name

    @pytest.mark.parametrize("name", GEOMETRY_FIELDS + ("n_samples", "spacing", "center"))
    def test_every_config_field_moves_the_fingerprint(self, name):
        geometry, grid = AfsharGeometry.default(), Grid(2**14, 5e-6)
        if name in GEOMETRY_FIELDS:
            value = getattr(geometry, name)
            changed = 2 * value if name == "n_wires" else value * (1 + 1e-15)
            geometry = dataclasses.replace(geometry, **{name: changed})
        else:
            value = getattr(grid, name)
            grid = dataclasses.replace(grid, **{name: 2 * value if value else 1e-12})
        got = cli._fingerprint(geometry, grid)
        assert got == fingerprint(geometry, grid)
        assert got != DEFAULT_FINGERPRINT

    def test_equal_config_merges_rows(self, tmp_path):
        # the same geometry spelled out, with another seed and output key,
        # is the same config
        cfg = tmp_path / "same.cfg"
        cfg.write_text("slit_width = 30e-6\nn_samples = 16384\nseed = 4\nout_dir = elsewhere\n")
        out = tmp_path / "o"
        assert run("simulate", "--grid", "out", "--out", str(out)) == 0
        assert run("simulate", "--config", str(cfg), "--grid", "in", "--out", str(out)) == 0
        assert run("remnant", "--config", str(cfg), "--out", str(out)) == 0
        powers = (out / "powers.csv").read_text().splitlines()
        assert powers[0] == f"# config {DEFAULT_FINGERPRINT}"
        assert [line.split(",", 2)[:2] for line in powers[2:]] == [["both", "in"], ["both", "out"]]
        assert run("report", "--out", str(out)) == 0

    @pytest.mark.parametrize("command", ["simulate", "remnant"])
    def test_another_config_is_refused_and_the_directory_kept(self, tmp_path, capsys, command):
        # the mix that once made report fail grid transparency silently:
        # both/out at the defaults, then both/in with 20 um slits
        out = tmp_path / "o"
        assert run("simulate", "--scenario", "both", "--grid", "out", "--out", str(out)) == 0
        assert run("remnant", "--out", str(out)) == 0
        capsys.readouterr()
        before = snapshot(out)
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text("slit_width = 20e-6\n")
        flags = ("--scenario", "both", "--grid", "in") if command == "simulate" else ()
        assert run(command, "--config", str(cfg), *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err
        narrow = fingerprint(
            dataclasses.replace(AfsharGeometry.default(), slit_width=20e-6), Grid(2**14, 5e-6)
        )
        assert err.startswith("error: ") and err.count("\n") == 1
        assert DEFAULT_FINGERPRINT in err and narrow in err
        assert snapshot(out) == before

    @pytest.mark.parametrize("stamp", ["# config 0123abcd\n", ""], ids=["foreign", "unstamped"])
    def test_remnant_csv_alone_is_refused(self, tmp_path, capsys, stamp):
        # remnant.csv is read by report, so it alone marks the directory
        out = tmp_path / "o"
        out.mkdir()
        text = stamp + "x_m,total,post_vU,post_vL,post_plus,post_minus\n0.0,1.0,1.0,1.0,1.0,1.0\n"
        (out / "remnant.csv").write_text(text)
        assert run("remnant", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "remnant.csv" in err and DEFAULT_FINGERPRINT in err
        assert ("0123abcd" if stamp else "unstamped") in err
        assert snapshot(out) == {"remnant.csv": text.encode()}

    @pytest.mark.parametrize("command", ["simulate", "remnant"])
    @pytest.mark.parametrize("name", ["sigma1.csv", "sigma2.csv"])
    @pytest.mark.parametrize("stamp", ["# config 0123abcd\n", ""], ids=["foreign", "unstamped"])
    def test_profile_csv_alone_is_refused(self, tmp_path, capsys, command, name, stamp):
        # a profile of another config is not overwritten by this one's
        out = tmp_path / "o"
        out.mkdir()
        text = stamp + "x_m,intensity\n0.0,1.0\n"
        (out / name).write_text(text)
        assert run(command, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err and DEFAULT_FINGERPRINT in err
        assert ("0123abcd" if stamp else "unstamped") in err
        assert snapshot(out) == {name: text.encode()}

    def test_unstamped_powers_csv_is_refused(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        unstamped = TestReport.POWERS
        (out / "powers.csv").write_text(unstamped)
        assert run("simulate", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "unstamped" in err and DEFAULT_FINGERPRINT in err and err.count("\n") == 1
        assert snapshot(out) == {"powers.csv": unstamped.encode()}

    def test_non_finite_powers_csv_is_named_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        text = TestReport.POWERS.replace("both,out,1.0", "both,out,nan")
        (out / "powers.csv").write_text(text)
        assert run("simulate", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {out / 'powers.csv'}:2: power_incident = 'nan' is not finite\n"
        assert snapshot(out) == {"powers.csv": text.encode()}

    def test_second_simulate_opens_each_input_once(self, tmp_path, opened):
        # powers.csv is read whole for its rows, and its stamp comes from that read
        out = tmp_path / "o"
        assert run("simulate", "--grid", "out", "--out", str(out)) == 0
        assert run("remnant", "--out", str(out)) == 0
        opened.clear()
        assert run("simulate", "--grid", "in", "--out", str(out)) == 0
        csvs = {name: n for name, n in opened.items() if name.endswith(".csv")}
        assert csvs == dict.fromkeys(cli._STAMPED, 1)

    @pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["cr", "crlf"])
    @pytest.mark.parametrize("foreign", [False, True], ids=["own", "foreign"])
    def test_every_command_reads_one_stamp_from_a_file(self, tmp_path, capsys, end, foreign):
        # the stamp line ends where the CSV reader's first line ends, so
        # simulate, which reads powers.csv whole, and remnant, which reads
        # its first line only, give one verdict on one file
        out = tmp_path / "o"
        assert run("simulate", "--grid", "out", "--out", str(out)) == 0
        capsys.readouterr()
        text = (out / "powers.csv").read_text()
        if foreign:
            text = text.replace(DEFAULT_FINGERPRINT, "0123abcd", 1)
        (out / "powers.csv").write_bytes(text.replace("\n", end, 1).encode())
        for command, flags in (("remnant", ()), ("simulate", ("--grid", "in"))):
            assert run(command, *flags, "--out", str(out)) == (2 if foreign else 0), command
            err = capsys.readouterr().err
            if foreign:
                assert f"config 0123abcd, not of this run's config {DEFAULT_FINGERPRINT}" in err

    @pytest.mark.parametrize("name", ["derived.csv", "remnant.csv", "remnant_summary.csv"])
    def test_report_refuses_inputs_of_different_configs(self, cli_out, tmp_path, capsys, name):
        out = tmp_path / "o"
        shutil.copytree(cli_out, out)
        (out / "report.txt").unlink()
        lines = (out / name).read_text().splitlines(keepends=True)
        lines[0] = "# config 0123abcd\n"
        (out / name).write_text("".join(lines))
        assert run("report", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "0123abcd" in err and DEFAULT_FINGERPRINT in err
        assert not (out / "report.txt").exists()
        # an unstamped file is a config of its own
        (out / name).write_text("".join(lines[1:]))
        assert run("report", "--out", str(out)) == 2
        assert "unstamped" in capsys.readouterr().err

    def test_stamped_file_errors_name_their_own_lines(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.mkdir()
        stamp = f"# config {DEFAULT_FINGERPRINT}\n"
        (out / "powers.csv").write_text(stamp + TestReport.POWERS + "both,in,1.0\n")
        assert run("report", "--out", str(out)) == 2
        assert "powers.csv:4: 3 fields" in capsys.readouterr().err
        (out / "powers.csv").write_text(stamp + TestReport.POWERS.replace("power_incident", "p_in"))
        assert run("report", "--out", str(out)) == 2
        assert "powers.csv:2: header is not" in capsys.readouterr().err


# values whose repr is easy to get wrong: signed zero, the smallest subnormal,
# the switch to exponent notation at both ends, and the non-finite ones
_EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, 1e16, 1e-7, 1e-5, 9999999999999998.0, math.inf, -math.inf, math.nan
]
# row counts at the edges of the writer's and the formatter's row blocks
_BLOCK_EDGES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]
_CSV_FLOATS = st.lists(
    st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats()), min_size=1, max_size=30
)


_STAMP_LINE = "# config 0123abcd"


class TestCsvFormat:
    """The column formatter and the bulk parser keep the byte-identical-rerun contract."""

    @settings(max_examples=200, deadline=None)
    @given(values=_CSV_FLOATS)
    def test_rows_are_fmt_of_each_value(self, values):
        assert list(_fmt_rows(values)) == [_fmt(v) for v in values]
        table = np.empty(len(values), _FMT_DTYPE)
        assert list(_fmt_kept(values, table)) == [_fmt(v) for v in values]
        assert list(_kept(table)) == [_fmt(v) for v in values]
        assert list(_fmt_rows(np.array(values))) == [_fmt(v) for v in values]
        backwards = values[::-1]
        assert list(_fmt_rows(values, backwards)) == [
            f"{_fmt(a)},{_fmt(b)}" for a, b in zip(values, backwards)
        ]

    @settings(max_examples=200, deadline=None)
    @given(values=_CSV_FLOATS)
    def test_bulk_parse_reads_what_float_reads(self, values):
        lines = list(_fmt_rows(values, values))
        parsed = _parse(lines, [0, 1])
        expected = np.array([float(_fmt(v)) for v in values])
        assert parsed.shape == (len(values), 2)
        assert parsed[:, 0].tobytes() == expected.tobytes()
        assert parsed[:, 1].tobytes() == expected.tobytes()

    def test_scalar_is_one_row(self):
        assert list(_fmt_rows(0.96, np.float64(0.28))) == ["0.96,0.28"]

    @pytest.mark.parametrize("n", _BLOCK_EDGES)
    def test_rows_across_blocks_are_fmt_of_each_value(self, n):
        values = np.random.default_rng(n).normal(size=(2, n)) * 1e-5
        assert list(_fmt_rows(*values)) == [f"{_fmt(a)},{_fmt(b)}" for a, b in values.T]
        # the kept table, read whole and as rows drawn from it
        table = np.empty(n, _FMT_DTYPE)
        assert list(_fmt_kept(values[0], table)) == [_fmt(a) for a in values[0]]
        picks = np.random.default_rng(n).integers(0, max(n, 1), size=2 * n)
        assert list(_kept(table[picks])) == [_fmt(values[0, i]) for i in picks]

    @pytest.mark.parametrize(
        "sep, end",
        [("\n", ""), ("\n", "\n\n\n"), ("\n\n", "\n"), ("\r\n", "\r\n"), ("\r", "\r"), ("\n\f", "")],
        ids=["no-last-newline", "blank-tail", "blank-lines", "crlf", "cr", "form-feed"],
    )
    @pytest.mark.parametrize("n", [1, _BLOCK, 2 * _BLOCK + 5])
    def test_reader_takes_the_lines_splitlines_gives(self, tmp_path, sep, end, n):
        # the rows, not the stamp and the header, are separated by sep
        values = np.random.default_rng(n).normal(size=(2, n))
        head = f"{_STAMP_LINE}\nx_m,intensity\n"
        rows = list(_fmt_rows(*values))
        path = tmp_path / "sigma2.csv"
        path.write_bytes((head + sep.join(rows) + end).encode())
        stamp, header, columns = _read_csv(path, _CSV["sigma2.csv"].header)
        assert (stamp, header) == ("0123abcd", ["x_m", "intensity"])
        assert columns["x_m"].tobytes() == values[0].tobytes()
        assert columns["intensity"].tobytes() == values[1].tobytes()
        # a bad row is named by its number among read_text().splitlines()
        text = head + sep.join([*rows, "1.0,abc", "2.0,3.0"]) + end
        path.write_bytes(text.encode())
        lineno = text.splitlines().index("1.0,abc") + 1
        with pytest.raises(ReportError) as err:
            _read_csv(path, _CSV["sigma2.csv"].header)
        assert str(err.value) == f"{path}:{lineno}: intensity = 'abc' is not a number"

    def test_reader_memory_is_the_float_columns_and_a_block(self, tmp_path):
        # 65,536 rows of six float columns, 3 MiB as floats: 6.2 MiB measured,
        # the blocks and their join; holding the text, lines and rows took 18 MiB
        columns = np.random.default_rng(0).random((6, 2**16))
        path = tmp_path / "remnant.csv"
        cli._write_lines(path, itertools.chain(_head("remnant.csv", "0123abcd"), _fmt_rows(*columns)))
        tracemalloc.start()
        try:
            _, _, read = _read_csv(path, _CSV["remnant.csv"].header)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read["post_minus"].tobytes() == columns[5].tobytes()
        assert peak < 8 * 2**20


class TestConfig:
    def test_defaults_are_the_reference_bench(self):
        assert load_config(None).geometry() == AfsharGeometry.default()

    def test_keys_set_only_what_they_name(self):
        geometry = parse_config("focal_length = 0.4\nn_wires = 4\n").geometry()
        assert geometry == dataclasses.replace(
            AfsharGeometry.default(), focal_length=0.4, n_wires=4
        )

    def test_n_samples_bound_checked_before_allocation(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("array allocated")

        monkeypatch.setattr(np, "arange", no_allocation)
        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(ConfigError, match="n_samples"):
            Config(n_samples=2**40).grid()


_FUZZ_FLOATS = st.one_of(
    st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan, 1e300, 1e-300]),
    st.floats(min_value=1e-7, max_value=2.0),
)
_FUZZ_GEOMETRY_KEYS = [f.name for f in dataclasses.fields(AfsharGeometry) if f.name != "n_wires"]
# command-line integers: invalid ones and small valid ones, never a slow valid one
_FUZZ_COUNTS = [None, -1, 0, 1, 3, 2**20 + 1, 2**40]


class TestFuzz:
    @settings(max_examples=25, deadline=None)
    @given(
        command=st.sampled_from(["simulate", "remnant"]),
        geometry=st.dictionaries(st.sampled_from(_FUZZ_GEOMETRY_KEYS), _FUZZ_FLOATS, max_size=3),
        n_wires=st.one_of(st.none(), st.integers(min_value=-4, max_value=12)),
        n_samples=st.one_of(st.none(), st.sampled_from([2**12, 2**13, 2**14, 2**40])),
        scenario=st.sampled_from(["both", "upper", "lower"]),
        grid=st.sampled_from(["in", "out"]),
    )
    def test_drawn_configs_exit_cleanly(self, command, geometry, n_wires, n_samples, scenario, grid):
        values = dict(geometry, n_wires=n_wires, n_samples=n_samples)
        text = "".join(f"{k} = {v!r}\n" for k, v in values.items() if v is not None)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = f"{tmp}/c.cfg"
            with open(cfg, "w") as fh:
                fh.write(text)
            argv = [command, "--config", cfg, "--out", f"{tmp}/o"]
            if command == "simulate":
                argv += ["--scenario", scenario, "--grid", grid]
            assert main(argv) in (0, 2, 3)

    @settings(max_examples=25, deadline=None)
    @given(
        command=st.sampled_from(["duality", "remnant"]),
        seed=st.sampled_from(_FUZZ_COUNTS),
        count=st.sampled_from(_FUZZ_COUNTS),
        bin_ladder=st.sampled_from(_FUZZ_COUNTS),
    )
    def test_drawn_flags_exit_cleanly(self, command, seed, count, bin_ladder):
        count_flag = "--random-detectors" if command == "duality" else "--samples"
        flags = {"--seed": seed, count_flag: count}
        if command == "duality":
            flags["--bin-ladder"] = bin_ladder
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command, "--out", f"{tmp}/o"]
            for flag, value in flags.items():
                if value is not None:
                    argv += [flag, str(value)]
            assert main(argv) in (0, 2, 3)


class TestCrashSafeWrites:
    """An output file is replaced whole or left as it was."""

    OLD = b"x_m,intensity\n0.0,1.0\n"

    def test_line_generator_failing_midway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "sigma1.csv"
        path.write_bytes(self.OLD)

        def lines():
            yield "x_m,intensity"
            yield "0.0,2.0"
            raise RuntimeError("formatting failed midway")

        with pytest.raises(RuntimeError, match="midway"):
            cli._write_lines(path, lines())
        assert path.read_bytes() == self.OLD
        assert [p.name for p in tmp_path.iterdir()] == ["sigma1.csv"]

    def test_line_generator_failing_after_a_written_block_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "remnant_samples.csv"
        path.write_bytes(self.OLD)
        written = []

        def lines():
            yield from ("9" * 80 for _ in range(_BLOCK))
            # asked for the first line of the second block: the first is in
            # the temporary file by now
            (tmp,) = (p for p in tmp_path.iterdir() if p.name.endswith(".tmp"))
            written.append(tmp.stat().st_size)
            raise RuntimeError("formatting failed after a block")

        with pytest.raises(RuntimeError, match="after a block"):
            cli._write_lines(path, lines())
        assert written[0] > 0
        assert path.read_bytes() == self.OLD
        assert [p.name for p in tmp_path.iterdir()] == ["remnant_samples.csv"]

    @pytest.mark.parametrize("n", _BLOCK_EDGES)
    def test_streamed_bytes_are_the_joined_lines(self, tmp_path, n):
        lines = [f"{i},{i / 7!r}" for i in range(n)]
        path = tmp_path / "vk.csv"
        cli._write_lines(path, iter(lines))
        # every line, the last one too, ends with a newline: no lines, no bytes
        assert path.read_bytes() == ("\n".join(lines) + "\n" if lines else "").encode()

    def test_writer_memory_does_not_grow_with_the_lines(self, tmp_path):
        # the writer holds a block of lines and its text, whatever the file's
        # length; joining the whole file first would hold a reference per
        # line and the text, 32 MB for 10^6 lines.  One line object, repeated,
        # keeps tracemalloc's per-allocation cost out of the test's time
        def peak(n):
            lines = itertools.repeat("0.5,1.0000000000000002", n)
            tracemalloc.start()
            try:
                cli._write_lines(tmp_path / "vk.csv", lines)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak(10**6) - peak(10**5)) < 256 * 2**10

    def test_write_failing_after_the_temporary_exists_removes_it(self, tmp_path):
        # a lone surrogate has no UTF-8 encoding, so the write fails after
        # the temporary file has been created
        path = tmp_path / "vk.csv"
        path.write_bytes(self.OLD)
        with pytest.raises(UnicodeEncodeError):
            cli._write_lines(path, ["a,b", "\ud800"])
        assert path.read_bytes() == self.OLD
        assert [p.name for p in tmp_path.iterdir()] == ["vk.csv"]

    def test_report_failing_to_replace_exits_2_and_keeps_the_old_report(
        self, cli_out, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "o"
        shutil.copytree(cli_out, out)
        (out / "report.txt").write_bytes(b"old report\n")
        before = sorted(p.name for p in out.iterdir())

        def refused(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", refused)
        assert run("report", "--out", str(out)) == 2
        assert "cannot replace" in capsys.readouterr().err
        assert (out / "report.txt").read_bytes() == b"old report\n"
        assert sorted(p.name for p in out.iterdir()) == before

    def test_rewrite_leaves_only_the_outputs_with_fresh_file_permissions(self, tmp_path):
        # the replaced file has the mode a newly created file gets
        path = tmp_path / "powers.csv"
        path.write_bytes(self.OLD)
        os.chmod(path, 0o600)
        reference = tmp_path / "reference"
        reference.write_text("")
        cli._write_lines(path, ["a", "b"])
        assert path.read_text() == "a\nb\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["powers.csv", "reference"]
        assert path.stat().st_mode == reference.stat().st_mode


class TestUsage:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run()
        assert err.value.code == 2

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["simulate", "duality", "remnant"])
    def test_out_on_regular_file_exits_2_with_one_line(self, tmp_path, capsys, command, under):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "o" if under else taken
        assert run(command, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "command, name",
        [
            ("simulate --config", "bench.cfg"),
            ("duality --pattern", "pattern.csv"),
            ("report", "powers.csv"),
            ("simulate", "powers.csv"),
        ],
    )
    def test_undecodable_input_exits_2_with_one_line(self, tmp_path, capsys, command, name):
        # a file holding the byte 0xff, which no UTF-8 text holds; powers.csv
        # is read from the output directory, the other files are named
        out = tmp_path / "o"
        out.mkdir()
        in_out = name == "powers.csv"
        path = (out if in_out else tmp_path) / name
        path.write_bytes(b"x_m,intensity\n0.0,\xff\n")
        argv = command.split() + ([] if in_out else [str(path)])
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and "Traceback" not in err
        # nothing is written
        assert [p.name for p in out.iterdir()] == ([name] if in_out else [])

    @pytest.mark.parametrize(
        "argv, where",
        [
            (("simulate", "--out", ""), "--out"),
            (("duality", "--out", ""), "--out"),
            (("remnant", "--out", ""), "--out"),
            (("report", "--out", ""), "--out"),
            (("simulate", "--config", "empty.cfg"), "'out_dir'"),
            (("remnant", "--config", "empty.cfg"), "'out_dir'"),
        ],
    )
    def test_empty_output_directory_exits_2_with_one_line(
        self, tmp_path, monkeypatch, capsys, argv, where
    ):
        # an empty path is the current directory: nothing is read or written there
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.cfg").write_text("out_dir =\n")
        (tmp_path / "powers.csv").write_text(TestReport.POWERS)
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert where in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.cfg", "powers.csv"]
        assert (tmp_path / "powers.csv").read_text() == TestReport.POWERS

    @pytest.mark.parametrize(
        "argv, module, name",
        [
            (("duality", "--probe", "0.6,0.8"), duality, "vk_from_probe"),
            (("remnant",), remnant, "postselect"),
            (("simulate",), apparatus, "fill_factor"),
            (("report",), cli, "build_report"),
        ],
        ids=["duality", "remnant", "simulate", "report"],
    )
    def test_any_library_value_error_exits_2_with_one_line(
        self, tmp_path, monkeypatch, capsys, argv, module, name
    ):
        # no command catches these calls' errors: main alone maps a ValueError to exit 2
        def refuse(*args, **kwargs):
            raise ValueError("refused by the library")

        monkeypatch.setattr(module, name, refuse)
        assert run(*argv, "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == "error: refused by the library\n"

    def test_unknown_scenario_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("simulate", "--scenario", "middle", "--out", str(tmp_path))
        assert err.value.code == 2
