import os
from dataclasses import replace

import numpy as np
import pytest

from tunnelfwi import fileio
from tunnelfwi.cli import cli_dispatch
from tunnelfwi.config import ConfigError, format_config, load_config, parse_config
from tunnelfwi.fileio import (FileFormatError, read_frequency_records,
                              read_model_grid, read_time_records,
                              write_frequency_records, write_model_grid,
                              write_time_records)
from tunnelfwi.material import ModelVector
from tunnelfwi.mesh import (Receiver, Source, StationLayout, TunnelGeometry,
                            build_tunnel_mesh)
from tunnelfwi.signal import TimeSeries


# -- config ---------------------------------------------------------------------

def test_minimal_config_applies_defaults():
    cfg = parse_config("domain_width = 40\n")
    s = cfg.scalars
    assert s["c_pml"] == 25000.0
    assert s["omega_c_ratio"] == 0.99
    assert s["max_iterations"] == 20
    assert s["station_radius"] == 2.5
    assert s["surface_distance"] == 1.75
    assert (s["vp"], s["vs"], s["rho"]) == (4000.0, 2400.0, 2500.0)
    assert s["domain_width"] == 40.0


def test_default_schedule_is_blindtest():
    cfg = parse_config("domain_width = 40\n")
    assert len(cfg.schedule().groups) == 28


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigError, match="foo"):
        parse_config("foo = 1\n")
    with pytest.raises(ConfigError, match="unknown key 'strict'"):
        parse_config("strict = 1\n")
    with pytest.raises(ConfigError, match="unknown key 'water_level'"):
        parse_config("water_level = 1e-4\n")


def test_negative_mask_distance_rejected():
    with pytest.raises(ConfigError, match="station_radius"):
        parse_config("station_radius = -1\n")


def test_parse_error_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("domain_width = 40\n# fine\nnot a pair\n")


@pytest.mark.parametrize("line", ["source = a 1 1 0", "receiver = 8 b xy",
                                  "group = 300 x", "frequencies = 500 y"],
                         ids=["source", "receiver", "group", "frequencies"])
def test_non_numeric_list_value_names_its_line(line):
    with pytest.raises(ConfigError, match="line 2: cannot parse value for"):
        parse_config(f"domain_width = 40\n{line}\n")


@pytest.mark.parametrize("line", ["c_pml = nan", "vp = nan", "rho = inf",
                                  "element_size = inf", "reduction_threshold = nan",
                                  "validate_source_x = -inf"])
def test_non_finite_scalar_rejected_by_key(line):
    key = line.split()[0]
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config(f"domain_width = 40\n{line}\n")


@pytest.mark.parametrize("line", ["source = 21 18 nan 0", "receiver = nan 18 xy",
                                  "group = nan", "frequencies = nan 300",
                                  "group = 300 inf"],
                         ids=["source", "receiver", "group", "frequencies", "group_inf"])
def test_non_finite_list_value_names_its_line(line):
    key = line.split()[0]
    with pytest.raises(ConfigError, match=f"line 2: {key} needs finite numbers"):
        parse_config(f"domain_width = 40\n{line}\n")


def test_sweep_degree_outside_the_supported_range_rejected_at_load():
    with pytest.raises(ConfigError, match=r"sweep_degrees need degrees in \[1, 3\]"):
        parse_config("sweep_degrees = 300:1 9000:4\n")
    with pytest.raises(ConfigError, match="sweep_degrees"):
        parse_config("sweep_degrees = 300:0 9000:2\n")
    assert parse_config("sweep_degrees = 300:1 9000:3\n").sweep_degrees == [
        (300.0, 1), (9000.0, 3)]


@pytest.mark.parametrize("value", ["inf:2", "300:1 nan:2"], ids=["inf", "nan"])
def test_non_finite_sweep_degree_bound_names_its_line(value):
    with pytest.raises(ConfigError, match="line 2: sweep_degrees needs finite numbers"):
        parse_config(f"domain_width = 40\nsweep_degrees = {value}\n")


@pytest.mark.parametrize("key", ["max_iterations", "lbfgs_capacity"])
@pytest.mark.parametrize("value", [0, -1])
def test_non_positive_iteration_count_or_capacity_rejected(key, value):
    # no capacity would empty the L-BFGS history: steepest descent throughout
    with pytest.raises(ConfigError, match=f"{key} must be > 0, got {value}"):
        parse_config(f"{key} = {value}\n")


def test_receiver_direction_error_names_its_line():
    with pytest.raises(ConfigError, match="^line 2: receiver directions must combine "
                                          "'x' and 'y', got 'z'$"):
        parse_config("domain_width = 40\nreceiver = 1 2 z\n")


@pytest.mark.parametrize("value", ["-5:2", "0:1 3000:2", "3000:1 3000:2"],
                         ids=["negative", "zero", "repeated"])
def test_sweep_degree_bounds_must_be_positive_and_distinct(value):
    with pytest.raises(ConfigError, match="sweep_degrees need distinct positive omega bounds"):
        parse_config(f"sweep_degrees = {value}\n")


def test_group_listing_a_frequency_twice_rejected_at_load():
    with pytest.raises(ConfigError, match="group 0 lists frequency 300.0 more than once"):
        parse_config("group = 300 300\n")


def test_frequencies_listing_a_value_twice_rejected_by_line():
    with pytest.raises(ConfigError, match="^line 2: frequencies lists 500.0 more than once$"):
        parse_config("domain_width = 40\nfrequencies = 300 500 500\n")


def test_stations_and_groups_accumulate():
    text = """
domain_width = 20
tunnel_height = 0
tunnel_length = 0
source = 5 10 0 1
source = 6 10 1 0
receiver = 8 10 xy
receiver = 9 10 x
group = 300
group = 200 600
"""
    cfg = parse_config(text)
    assert len(cfg.sources) == 2
    assert cfg.sources[0].direction == (0.0, 1.0)
    assert cfg.receivers[1].directions == (0,)
    assert cfg.schedule().groups == ((300.0,), (200.0, 600.0))


def test_invalid_schedule_rejected():
    with pytest.raises(ConfigError):
        parse_config("group = 500\ngroup = 400\n")


def test_source_direction_normalized():
    cfg = parse_config("source = 5 10 3 4\n")
    dx, dy = cfg.sources[0].direction
    assert (dx, dy) == pytest.approx((0.6, 0.8))


def test_config_dump_round_trip_idempotent():
    text = """
domain_width = 24
element_size = 0.5
degree = 2
source = 5 10 0 1
receiver = 8 10 y
group = 300
group = 250 700
frequencies = 500 1000
sweep_degrees = 1000:1 5000:2
"""
    cfg = parse_config(text)
    dumped = format_config(cfg)
    again = format_config(parse_config(dumped))
    assert dumped == again


def test_geometry_invariants_checked_at_load():
    with pytest.raises(ConfigError):
        parse_config("element_size = 0.7\n")  # does not divide the extents
    with pytest.raises(ConfigError, match="omega_c_ratio"):
        parse_config("omega_c_ratio = 1.5\n")


# -- time records -----------------------------------------------------------------

def test_time_records_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(90)
    traces = {(0, 0, "x"): TimeSeries(rng.normal(size=4), 1e-3, 0.0),
              (0, 0, "y"): TimeSeries(rng.normal(size=4), 1e-3, 0.0)}
    path = tmp_path / "rec.txt"
    write_time_records(path, traces)
    back = read_time_records(path)
    assert set(back) == set(traces)
    for k in traces:
        assert np.array_equal(back[k].samples, traces[k].samples)
        assert back[k].dt == traces[k].dt
        assert back[k].t0 == traces[k].t0


def test_time_records_two_traces_nt4(tmp_path):
    path = tmp_path / "rec.txt"
    traces = {(0, 0, "x"): TimeSeries(np.arange(4.0), 0.5),
              (0, 1, "y"): TimeSeries(np.arange(4.0) ** 2, 0.5)}
    write_time_records(path, traces)
    back = read_time_records(path)
    assert len(back) == 2
    assert all(len(t.samples) == 4 for t in back.values())


def test_time_records_bad_dt(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# time-records\nnt = 2\ndt = -0.5\nt0 = 0.0\n"
                    "trace = s0 r0 x\n1.0\n2.0\n")
    with pytest.raises(FileFormatError, match="dt"):
        read_time_records(path)


def test_time_records_inconsistent_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# time-records\nnt = 3\ndt = 0.5\nt0 = 0.0\n"
                    "trace = s0 r0 x\n1.0\n2.0\n")
    with pytest.raises(FileFormatError, match="sample rows"):
        read_time_records(path)


def _two_trace_file(tmp_path):
    path = tmp_path / "rec.txt"
    traces = {(0, 0, "x"): TimeSeries(np.arange(4.0), 0.5),
              (0, 0, "y"): TimeSeries(np.arange(4.0) ** 2, 0.5)}
    write_time_records(path, traces)
    return path, path.read_text().splitlines()


def test_time_records_ragged_row(tmp_path):
    path, lines = _two_trace_file(tmp_path)
    lines[-1] = lines[-1].split()[0]  # last sample row cut to one value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=f"rec.txt:{len(lines)}: expected 2 columns"):
        read_time_records(path)


def test_time_records_non_numeric_sample(tmp_path):
    path, lines = _two_trace_file(tmp_path)
    lines[-2] = lines[-2].split()[0] + " abc"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=f"rec.txt:{len(lines) - 1}: malformed number"):
        read_time_records(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_time_records_non_finite_sample(tmp_path, value):
    path, lines = _two_trace_file(tmp_path)
    lines[-2] = lines[-2].split()[0] + " " + value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=f"rec.txt:{len(lines) - 1}: number is not finite"):
        read_time_records(path)


@pytest.mark.parametrize("row, key", [(3, "dt"), (4, "t0")])
def test_time_records_non_finite_header(tmp_path, row, key):
    path, lines = _two_trace_file(tmp_path)
    lines[row - 1] = f"{key} = nan"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=f"rec.txt:{row}: {key} is not finite"):
        read_time_records(path)


def test_time_records_repeated_trace_declaration(tmp_path):
    path, lines = _two_trace_file(tmp_path)
    assert lines[4:6] == ["trace = s0 r0 x", "trace = s0 r0 y"]
    lines[5] = lines[4]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="rec.txt:6: trace s0 r0 x declared twice"):
        read_time_records(path)


def test_time_records_malformed_header(tmp_path):
    path, lines = _two_trace_file(tmp_path)
    bad_nt = lines[:1] + ["nt = four"] + lines[2:]
    path.write_text("\n".join(bad_nt) + "\n")
    with pytest.raises(FileFormatError, match="rec.txt:2: malformed nt"):
        read_time_records(path)
    bad_id = lines[:4] + ["trace = sx r0 x"] + lines[5:]
    path.write_text("\n".join(bad_id) + "\n")
    with pytest.raises(FileFormatError, match="rec.txt:5: malformed trace id"):
        read_time_records(path)


# -- spectra of time records ------------------------------------------------------

def _one_station_records():
    layout = StationLayout(sources=(Source((1.0, 1.0), (1.0, 0.0)),),
                           receivers=(Receiver((2.0, 2.0)),))
    rng = np.random.default_rng(94)
    traces = {(0, 0, d): TimeSeries(rng.normal(size=16), 1e-4, 0.0) for d in "xy"}
    return traces, layout, (700.0, 900.0)


def test_records_to_spectra_names_missing_traces():
    traces, _, omegas = _one_station_records()
    only_x = {(0, 0, "x"): traces[(0, 0, "x")]}
    x_layout = StationLayout(sources=(Source((1.0, 1.0), (1.0, 0.0)),),
                             receivers=(Receiver((2.0, 2.0), (0,)),))
    observed = fileio.records_to_spectra(only_x, omegas, x_layout)
    assert set(observed) == set(omegas)
    xy_layout = replace(x_layout, receivers=(Receiver((2.0, 2.0)),))
    # a y trace the records lack must not become a silent zero
    with pytest.raises(FileFormatError, match="missing traces: s0 r0 y"):
        fileio.records_to_spectra(only_x, omegas, xy_layout)
    two_sources = replace(x_layout, sources=x_layout.sources * 2)
    with pytest.raises(FileFormatError, match="missing traces: s1 r0 x"):
        fileio.records_to_spectra(only_x, omegas, two_sources)


def test_records_to_spectra_rejects_traces_outside_the_layout():
    traces, layout, omegas = _one_station_records()
    extra = {**traces, (2, 0, "y"): traces[(0, 0, "y")],
             (0, 1, "x"): traces[(0, 0, "x")]}
    with pytest.raises(FileFormatError, match="^traces outside the layout's 1 sources "
                                              "and 1 receivers: s2 r0 y, s0 r1 x$"):
        fileio.records_to_spectra(extra, omegas, layout)


# -- model grids --------------------------------------------------------------------

def test_model_grid_round_trip_bitwise(tmp_path):
    mesh = build_tunnel_mesh(TunnelGeometry(4, 2, 0, 2, 0, 0, 1))
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    path = tmp_path / "model.txt"
    write_model_grid(path, model, mesh)
    back = read_model_grid(path, mesh)
    assert np.array_equal(back.values, model.values)


def test_model_grid_toy_mesh_has_nine_rows(tmp_path):
    mesh = build_tunnel_mesh(TunnelGeometry(2, 1, 0, 1, 0, 0, 1))
    assert mesh.n_nodes == 9
    path = tmp_path / "model.txt"
    write_model_grid(path, ModelVector.homogeneous(mesh, 4000.0, 2400.0), mesh)
    rows = [ln for ln in path.read_text().splitlines()[5:] if ln.strip()]
    assert len(rows) == 9


def test_model_grid_header_mismatch(tmp_path):
    mesh = build_tunnel_mesh(TunnelGeometry(4, 2, 0, 2, 0, 0, 1))
    other = build_tunnel_mesh(TunnelGeometry(6, 2, 0, 2, 0, 0, 1))
    path = tmp_path / "model.txt"
    write_model_grid(path, ModelVector.homogeneous(mesh, 4000.0, 2400.0), mesh)
    with pytest.raises(FileFormatError, match="does not match"):
        read_model_grid(path, other)


def test_model_grid_negative_velocity(tmp_path):
    mesh = build_tunnel_mesh(TunnelGeometry(2, 1, 0, 1, 0, 0, 1))
    path = tmp_path / "model.txt"
    write_model_grid(path, ModelVector.homogeneous(mesh, 4000.0, 2400.0), mesh)
    text = path.read_text().replace("2400.0", "-2400.0")
    path.write_text(text)
    with pytest.raises(FileFormatError, match="velocity"):
        read_model_grid(path, mesh)


def test_model_grid_short_or_non_numeric_row(tmp_path):
    mesh = build_tunnel_mesh(TunnelGeometry(2, 1, 0, 1, 0, 0, 1))
    path = tmp_path / "model.txt"
    write_model_grid(path, ModelVector.homogeneous(mesh, 4000.0, 2400.0), mesh)
    lines = path.read_text().splitlines()
    short = lines[:6] + [" ".join(lines[6].split()[:3])] + lines[7:]
    path.write_text("\n".join(short) + "\n")
    with pytest.raises(FileFormatError, match="model.txt:7: expected 4 columns, found 3"):
        read_model_grid(path, mesh)
    word = lines[:7] + [lines[7].replace("4000.0", "fast")] + lines[8:]
    path.write_text("\n".join(word) + "\n")
    with pytest.raises(FileFormatError, match="model.txt:8: malformed number"):
        read_model_grid(path, mesh)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_model_grid_non_finite_velocity(tmp_path, value):
    mesh = build_tunnel_mesh(TunnelGeometry(2, 1, 0, 1, 0, 0, 1))
    path = tmp_path / "model.txt"
    write_model_grid(path, ModelVector.homogeneous(mesh, 4000.0, 2400.0), mesh)
    lines = path.read_text().splitlines()
    lines[7] = lines[7].replace("4000.0", value)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="model.txt:8: number is not finite"):
        read_model_grid(path, mesh)


# -- frequency records ----------------------------------------------------------------

def test_frequency_records_round_trip(tmp_path):
    rng = np.random.default_rng(91)
    observed = {500.0: rng.normal(size=(2, 3, 2)) + 1j * rng.normal(size=(2, 3, 2)),
                800.0: rng.normal(size=(2, 3, 2)) + 1j * rng.normal(size=(2, 3, 2))}
    path = tmp_path / "freq.txt"
    write_frequency_records(path, observed, 2, 3)
    back = read_frequency_records(path)
    assert set(back) == {500.0, 800.0}
    for w in observed:
        assert np.array_equal(back[w], observed[w])


def test_greens_sweep_file_round_trip(tmp_path):
    rng = np.random.default_rng(94)
    omegas = np.array([100.0, 250.0, 400.0])
    values = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    path = tmp_path / "sweep.txt"
    fileio.write_greens_sweep(path, omegas, values, 2)
    w2, v2 = fileio.read_greens_sweep(path)
    assert np.array_equal(w2, omegas)
    assert np.array_equal(v2, values)


def _records_file(tmp_path):
    rng = np.random.default_rng(95)
    observed = {500.0: rng.normal(size=(2, 3, 2)) + 1j * rng.normal(size=(2, 3, 2))}
    path = tmp_path / "freq.txt"
    write_frequency_records(path, observed, 2, 3)
    return path


def _sweep_file(tmp_path):
    rng = np.random.default_rng(96)
    values = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    path = tmp_path / "sweep.txt"
    fileio.write_greens_sweep(path, np.array([100.0, 250.0]), values, 2)
    return path


@pytest.mark.parametrize("make, read, row", [
    (_records_file, read_frequency_records, 4),
    (_sweep_file, fileio.read_greens_sweep, 3)])
def test_spectrum_readers_reject_bad_direction(tmp_path, make, read, row):
    path = make(tmp_path)
    lines = path.read_text().splitlines()
    toks = lines[row - 1].split()
    toks[-3] = "z"
    lines[row - 1] = " ".join(toks)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=f":{row}: direction must be x or y"):
        read(path)


@pytest.mark.parametrize("make, read, first, drop", [
    (_records_file, read_frequency_records, 4, 8),
    (_sweep_file, fileio.read_greens_sweep, 7, 9)])
def test_spectrum_readers_reject_missing_rows(tmp_path, make, read, first, drop):
    path = make(tmp_path)
    lines = path.read_text().splitlines()
    del lines[drop - 1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=f":{first}: frequency .* lacks 1 rows"):
        read(path)


@pytest.mark.parametrize("make, read, row, col", [
    (_records_file, read_frequency_records, 5, 2),
    (_sweep_file, fileio.read_greens_sweep, 3, 1)])
def test_spectrum_readers_reject_index_out_of_range(tmp_path, make, read, row, col):
    path = make(tmp_path)
    lines = path.read_text().splitlines()
    toks = lines[row - 1].split()
    toks[col] = toks[col][0] + "7"
    lines[row - 1] = " ".join(toks)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=f":{row}: expected"):
        read(path)


@pytest.mark.parametrize("make, read, row", [
    (_records_file, read_frequency_records, 6),
    (_sweep_file, fileio.read_greens_sweep, 4)])
def test_spectrum_readers_reject_a_repeated_row(tmp_path, make, read, row):
    # a second row for the same (omega, indices, direction) would overwrite
    # the first
    path = make(tmp_path)
    lines = path.read_text().splitlines()
    toks = lines[row - 1].split()
    toks[-1] = "7.0"
    lines.append(" ".join(toks))
    path.write_text("\n".join(lines) + "\n")
    key = " ".join(toks[:-2])
    with pytest.raises(FileFormatError, match=f":{len(lines)}: repeated row {key}$"):
        read(path)


def test_validation_table_round_trip(tmp_path):
    rows = [(0.5, 1.0 + 2.0j, 1.1 + 1.9j, 0.05, True),
            (1.5, -0.25 + 0.0j, -0.2 + 0.1j, 0.5, False)]
    path = tmp_path / "table.txt"
    fileio.write_validation_table(path, rows)
    assert fileio.read_validation_table(path) == rows


def test_validation_table_short_or_non_numeric_row(tmp_path):
    rows = [(0.5, 1.0 + 2.0j, 1.1 + 1.9j, 0.05, True),
            (1.5, -0.25 + 0.0j, -0.2 + 0.1j, 0.5, False)]
    path = tmp_path / "table.txt"
    fileio.write_validation_table(path, rows)
    header, first, second = path.read_text().splitlines()
    path.write_text("\n".join([header, first, " ".join(second.split()[:3])]) + "\n")
    with pytest.raises(FileFormatError, match="table.txt:3: expected 7 columns, found 3"):
        fileio.read_validation_table(path)
    path.write_text("\n".join([header, first.replace("0.05", "n/a"), second]) + "\n")
    with pytest.raises(FileFormatError, match="table.txt:2: malformed number"):
        fileio.read_validation_table(path)


def test_convergence_log_round_trip():
    from tunnelfwi.optimize import IterationRecord, format_log, parse_log
    entries = [IterationRecord(0, 0, 1.25e-3, 0.5, 3.75e-6),
               IterationRecord(1, 2, 9.5e-4, 0.0, 1.0e-7, "line search failed"),
               IterationRecord(1, 3, 9.5e-4, 0.0, 1.0e-7,
                               "line search failed: alpha_init must be > 0 (100%5F_%)")]
    text = format_log(entries)
    back = parse_log(text)
    assert back == entries
    # a note without % or _ keeps its bytes: spaces become underscores
    assert " line_search_failed\n" in text


@pytest.mark.parametrize("make, read, row", [
    (_records_file, read_frequency_records, 6),
    (_sweep_file, fileio.read_greens_sweep, 4)])
@pytest.mark.parametrize("col, value", [(0, "nan"), (-2, "nan"), (-1, "inf")],
                         ids=["omega", "real", "imag"])
def test_spectrum_readers_reject_non_finite_numbers(tmp_path, make, read, row,
                                                    col, value):
    path = make(tmp_path)
    lines = path.read_text().splitlines()
    toks = lines[row - 1].split()
    toks[col] = value
    lines[row - 1] = " ".join(toks)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=f":{row}: number is not finite"):
        read(path)


# -- CLI --------------------------------------------------------------------------------

BOX_CONFIG = """
domain_width = 12
depth_above_tunnel = 4
tunnel_height = 0
depth_below_tunnel = 4
tunnel_length = 0
pml_width = 2
element_size = 1
degree = 1
wavelet_peak_hz = 200
source = 6 4 0 1
receiver = 9 5 xy
receiver = 4 6 xy
group = 900
group = 700 1500
max_iterations = 2
"""


@pytest.fixture
def box_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BOX_CONFIG)
    return str(path)


def test_cli_unknown_subcommand():
    assert cli_dispatch(["frobnicate"]) != 0


def test_cli_missing_config(tmp_path):
    assert cli_dispatch(["forward", "--config", str(tmp_path / "nope.cfg"),
                         "--output", str(tmp_path / "out.txt")]) != 0


def test_cli_forward_requires_frequencies(box_config, tmp_path):
    rc = cli_dispatch(["forward", "--config", box_config,
                       "--output", str(tmp_path / "out.txt")])
    assert rc != 0


def test_cli_forward_and_records(box_config, tmp_path, capsys):
    cfg_path = tmp_path / "fw.cfg"
    cfg_path.write_text(BOX_CONFIG + "frequencies = 800 1600\n")
    out = tmp_path / "records.txt"
    rc = cli_dispatch(["forward", "--config", str(cfg_path), "--output", str(out)])
    assert rc == 0
    back = read_frequency_records(out)
    assert set(back) == {800.0, 1600.0}
    assert back[800.0].shape == (1, 2, 2)


def test_cli_forward_rejects_nan_c_pml(tmp_path):
    cfg_path = tmp_path / "fw.cfg"
    cfg_path.write_text(BOX_CONFIG + "frequencies = 800\nc_pml = nan\n")
    out = tmp_path / "records.txt"
    assert cli_dispatch(["forward", "--config", str(cfg_path), "--output", str(out)]) != 0
    assert not out.exists()


def test_cli_make_synthetic_then_invert_noop(box_config, tmp_path):
    records = tmp_path / "obs.txt"
    rc = cli_dispatch(["make-synthetic", "--config", box_config,
                       "--output", str(records)])
    assert rc == 0
    outdir = tmp_path / "inv"
    rc = cli_dispatch(["invert", "--config", box_config,
                       "--records", str(records), "--output", str(outdir)])
    assert rc == 0
    mesh = build_tunnel_mesh(load_config(box_config).geometry())
    final = read_model_grid(outdir / "final_model.txt", mesh)
    ambient = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    np.testing.assert_array_equal(final.values, ambient.values)
    assert (outdir / "convergence.txt").exists()
    assert (outdir / "model_group_01.txt").exists()


@pytest.mark.parametrize("command", ["make-synthetic", "forward"])
def test_cli_model_without_positive_lame_parameter_rejected(tmp_path, capsys, command):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BOX_CONFIG + "frequencies = 800\n")
    mesh = build_tunnel_mesh(load_config(cfg_path).geometry())
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    model.values[mesh.n_nodes + 3] = 2900.0  # vp < sqrt(2)*vs: negative lambda
    grid = tmp_path / "model.txt"
    write_model_grid(grid, model, mesh)
    out = tmp_path / "records.txt"
    rc = cli_dispatch([command, "--config", str(cfg_path), "--model", str(grid),
                       "--output", str(out)])
    assert rc != 0
    assert capsys.readouterr().err == (f"error: {grid}: node 3 has vp <= sqrt(2)*vs "
                                       "(vp=4000.0, vs=2900.0)\n")
    assert not out.exists()


def test_cli_invert_writes_each_group_as_it_ends(box_config, tmp_path,
                                                 monkeypatch):
    from tunnelfwi import optimize
    records = tmp_path / "obs.txt"
    assert cli_dispatch(["make-synthetic", "--config", box_config,
                         "--output", str(records)]) == 0
    group = optimize.run_frequency_group

    def killed_in_group_1(state, grp, data, settings, group_index=0):
        if group_index == 1:
            raise RuntimeError("killed")
        return group(state, grp, data, settings, group_index=group_index)

    monkeypatch.setattr(optimize, "run_frequency_group", killed_in_group_1)
    outdir = tmp_path / "inv"
    rc = cli_dispatch(["invert", "--config", box_config,
                       "--records", str(records), "--output", str(outdir)])
    assert rc != 0
    assert sorted(os.listdir(outdir)) == ["convergence.txt", "model_group_00.txt"]
    mesh = build_tunnel_mesh(load_config(box_config).geometry())
    snapshot = read_model_grid(outdir / "model_group_00.txt", mesh)
    ambient = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    np.testing.assert_array_equal(snapshot.values, ambient.values)
    log = optimize.parse_log((outdir / "convergence.txt").read_text())
    assert log and {r.group for r in log} == {0}
    assert log[-1].note == "group end"


def test_cli_invert_failing_final_write_leaves_no_torn_file(box_config, tmp_path,
                                                            monkeypatch):
    from tunnelfwi import fileio
    records = tmp_path / "obs.txt"
    assert cli_dispatch(["make-synthetic", "--config", box_config,
                         "--output", str(records)]) == 0
    write = fileio.write_model_grid

    def torn_final_model(path, model, mesh):
        if "final_model" not in str(path):
            return write(path, model, mesh)
        with open(path, "w") as fh:
            fh.write("# torn")
        raise OSError("no space left on device")

    monkeypatch.setattr(fileio, "write_model_grid", torn_final_model)
    outdir = tmp_path / "inv"
    rc = cli_dispatch(["invert", "--config", box_config,
                       "--records", str(records), "--output", str(outdir)])
    assert rc != 0
    assert sorted(os.listdir(outdir)) == ["convergence.txt", "model_group_00.txt",
                                          "model_group_01.txt"]


def test_cli_dft_subcommand(box_config, tmp_path):
    # synthesize simple time records for every (source, receiver, direction)
    rng = np.random.default_rng(92)
    traces = {}
    for r in range(2):
        for d in ("x", "y"):
            traces[(0, r, d)] = TimeSeries(rng.normal(size=32), 1e-4, 0.0)
    rec_path = tmp_path / "time.txt"
    write_time_records(rec_path, traces)
    out = tmp_path / "freq.txt"
    rc = cli_dispatch(["dft", "--config", box_config,
                       "--records", str(rec_path), "--output", str(out)])
    assert rc == 0
    back = read_frequency_records(out)
    assert set(back) == {700.0, 900.0, 1500.0}


def test_cli_invert_time_records_match_dft_output(box_config, tmp_path):
    rng = np.random.default_rng(93)
    traces = {}
    for r in range(2):
        for d in ("x", "y"):
            traces[(0, r, d)] = TimeSeries(rng.normal(size=32) * 1e-12, 1e-4, 0.0)
    records = tmp_path / "records"
    records.mkdir()
    time_path, freq_path = records / "time.txt", records / "freq.txt"
    write_time_records(time_path, traces)
    assert cli_dispatch(["dft", "--config", box_config, "--records", str(time_path),
                         "--output", str(freq_path)]) == 0
    for name, path in (("from_time", time_path), ("from_dft", freq_path)):
        assert cli_dispatch(["invert", "--config", box_config, "--records", str(path),
                             "--output", str(tmp_path / name)]) == 0
    for name in ("final_model.txt", "convergence.txt"):
        assert ((tmp_path / "from_time" / name).read_bytes()
                == (tmp_path / "from_dft" / name).read_bytes())
    assert sorted(os.listdir(records)) == ["freq.txt", "time.txt"]


def test_cli_dft_names_a_trace_outside_the_layout(box_config, tmp_path, capsys):
    cfg_path = tmp_path / "two.cfg"
    cfg_path.write_text(BOX_CONFIG + "source = 5 4 0 1\n")
    rng = np.random.default_rng(95)
    traces = {(s, r, d): TimeSeries(rng.normal(size=32), 1e-4, 0.0)
              for s in range(3) for r in range(2) for d in "xy"}
    rec_path = tmp_path / "time.txt"
    write_time_records(rec_path, traces)
    out = tmp_path / "freq.txt"
    rc = cli_dispatch(["dft", "--config", str(cfg_path),
                       "--records", str(rec_path), "--output", str(out)])
    assert rc != 0
    assert capsys.readouterr().err == (
        "error: traces outside the layout's 2 sources and 2 receivers: "
        "s2 r0 x, s2 r0 y, s2 r1 x, s2 r1 y\n")
    assert not out.exists()


def test_cli_invert_rejects_records_of_another_layout_before_solving(
        box_config, tmp_path, capsys):
    from tunnelfwi import solver
    omegas = load_config(box_config).schedule().all_frequencies()
    records = tmp_path / "obs.txt"
    write_frequency_records(records, {w: np.ones((1, 3, 2), complex) for w in omegas},
                            1, 3)
    before = solver.factorization_count()
    rc = cli_dispatch(["invert", "--config", box_config, "--records", str(records),
                       "--output", str(tmp_path / "inv")])
    assert rc != 0
    assert capsys.readouterr().err == (
        f"error: {records}: records have 1 sources and 3 receivers, "
        "the config 1 and 2\n")
    assert solver.factorization_count() == before


def test_cli_validate_pml(tmp_path, capsys):
    cfg_path = tmp_path / "val.cfg"
    cfg_path.write_text("""
domain_width = 20
depth_above_tunnel = 7
tunnel_height = 0
depth_below_tunnel = 7
tunnel_length = 0
pml_width = 3
element_size = 1
degree = 2
validate_frequency_hz = 300
""")
    out = tmp_path / "table.txt"
    rc = cli_dispatch(["validate-pml", "--config", str(cfg_path),
                       "--output", str(out)])
    assert rc == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "median normalized error" in captured.out


def test_cli_validate_pml_without_usable_probe(tmp_path, capsys):
    cfg_path = tmp_path / "val.cfg"
    cfg_path.write_text("""
domain_width = 4
depth_above_tunnel = 1
tunnel_height = 2
depth_below_tunnel = 1
tunnel_length = 0
pml_width = 1
element_size = 1
degree = 1
validate_frequency_hz = 300
""")
    out = tmp_path / "table.txt"
    rc = cli_dispatch(["validate-pml", "--config", str(cfg_path),
                       "--output", str(out)])
    assert rc != 0
    assert capsys.readouterr().err == ("error: no probe lies inside the interior "
                                       "beyond 3h from the source\n")
    assert not out.exists()


@pytest.mark.parametrize("source", [2, -1])
def test_cli_greens_source_out_of_range(tmp_path, capsys, source):
    cfg_path = tmp_path / "sw.cfg"
    cfg_path.write_text(BOX_CONFIG + "source = 5 4 0 1\nsweep_start = 500\n"
                                     "sweep_end = 600\nsweep_step = 100\n")
    out = tmp_path / "sweep.txt"
    rc = cli_dispatch(["greens", "--config", str(cfg_path), "--source", str(source),
                       "--output", str(out)])
    assert rc != 0
    assert capsys.readouterr().err == f"error: --source must be in 0..1, got {source}\n"
    assert not out.exists()


def test_cli_greens_sweep(box_config, tmp_path):
    cfg_path = tmp_path / "sw.cfg"
    cfg_path.write_text(BOX_CONFIG + "sweep_start = 500\nsweep_end = 700\n"
                                     "sweep_step = 100\n")
    out = tmp_path / "sweep.txt"
    rc = cli_dispatch(["greens", "--config", str(cfg_path), "--output", str(out)])
    assert rc == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    # header n_receivers + 3 omegas x 2 receivers x 2 directions
    assert len(lines) == 1 + 3 * 2 * 2
