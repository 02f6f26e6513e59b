import argparse
import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import evaluate_field
from tunnelfwi import fileio
from tunnelfwi.analytic import greens_x_polar
from tunnelfwi.assembly import AssemblyError, DiscretizationConfig
from tunnelfwi.cli import build_parser, cli_dispatch
from tunnelfwi.config import ConfigError, load_config, parse_config
from tunnelfwi.fileio import (FileFormatError, read_frequency_records,
                              read_model_grid, read_time_records,
                              write_frequency_records, write_model_grid,
                              write_time_records)
from tunnelfwi.material import AmbientProperties, InvalidMaterialError, ModelVector
from tunnelfwi.forward import forward_solve
from tunnelfwi.mesh import (MeshError, Receiver, Source, StationLayout,
                            TunnelGeometry, build_tunnel_mesh, build_unbounded_mesh)
from tunnelfwi.optimize import (FrequencySchedule, IterationRecord, ScheduleError,
                                blindtest_schedule)
from tunnelfwi.pml import PmlError, PmlProfile
from tunnelfwi.signal import TimeSeries

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "blindtest.cfg"


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
    # fixed in every run: the built-in schedule unless 'group =' lines are
    # given, degree + 1 quadrature points, optimize.STEP_FRACTION, a
    # validate-pml source at the domain centre, forward at the schedule's
    # frequencies and mask ramps as wide as their exclusion distances
    for line in ["schedule = blindtest", "quad_points = 3", "step_fraction = 0.01",
                 "validate_source_x = 0", "validate_source_y = 0",
                 "frequencies = 800 1600", "station_transition = 2.5",
                 "surface_transition = 1.75"]:
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"^line 2: unknown key '{key}'$"):
            parse_config(f"domain_width = 40\n{line}\n")


def test_negative_mask_distance_rejected():
    with pytest.raises(ConfigError, match="station_radius"):
        parse_config("station_radius = -1\n")


def test_parse_error_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("domain_width = 40\n# fine\nnot a pair\n")


@pytest.mark.parametrize("line", ["source = a 1 1 0", "receiver = 8 b xy",
                                  "group = 300 x", "sweep_degrees = x:1"],
                         ids=["source", "receiver", "group", "sweep_degrees"])
def test_non_numeric_list_value_names_its_line(line):
    with pytest.raises(ConfigError, match="line 2: cannot parse value for"):
        parse_config(f"domain_width = 40\n{line}\n")


@pytest.mark.parametrize("line", ["c_pml = nan", "vp = nan", "rho = inf",
                                  "element_size = inf", "reduction_threshold = nan",
                                  "sweep_start = -inf"])
def test_non_finite_scalar_rejected_by_key(line):
    key = line.split()[0]
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config(f"domain_width = 40\n{line}\n")


def test_extent_of_too_many_elements_rejected_by_key():
    # 1e300 / 1e-10 overflows to inf cells
    with pytest.raises(ConfigError, match="^domain_width = 1e[+]300 spans too many "
                                          "cells of element_size 1e-10$"):
        parse_config("domain_width = 1e300\nelement_size = 1e-10\n")


@pytest.mark.parametrize("line", ["source = 21 18 nan 0", "receiver = nan 18 xy",
                                  "group = nan", "sweep_degrees = nan:2",
                                  "group = 300 inf"],
                         ids=["source", "receiver", "group", "sweep_degrees", "group_inf"])
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


@pytest.mark.parametrize("dirs", ["xx", "yxy"])
def test_receiver_direction_repeating_a_letter_rejected_by_line(dirs):
    with pytest.raises(ConfigError, match=f"^line 2: receiver directions repeat a "
                                          f"letter, got '{dirs}'$"):
        parse_config(f"domain_width = 40\nreceiver = 10 10 {dirs}\n")


@pytest.mark.parametrize("valid, field, bad, error, match", [
    (DiscretizationConfig(degree=2), "degree", 0, AssemblyError,
     r"polynomial degree must be an integer in \[1, 3\], got 0"),
    (PmlProfile(25000.0, 3.0), "width", 0.0, PmlError,
     "layer width must be finite and > 0, got 0.0"),
    (TunnelGeometry(10, 5, 0, 5, 0, 3, 1), "element_size", 0.0, MeshError,
     "element_size must be > 0, got 0.0"),
    (AmbientProperties(4000.0, 2400.0, 2500.0), "vs", 3000.0, InvalidMaterialError,
     r"must exceed sqrt\(2\)\*vs"),
    (Source((6.0, 4.0), (1.0, 0.0)), "direction", (1.0, 1.0), MeshError,
     "is not a unit vector"),
    (FrequencySchedule(((100.0,), (200.0,))), "groups", ((200.0,), (100.0,)),
     ScheduleError, "does not exceed the previous group's top"),
], ids=["discretization", "profile", "geometry", "ambient", "source", "schedule"])
def test_replacing_a_field_with_a_bad_value_raises(valid, field, bad, error, match):
    # every instance that exists is valid, including one made by replace
    with pytest.raises(error, match=match):
        replace(valid, **{field: bad})


@pytest.mark.parametrize("value", ["-5:2", "0:1 3000:2", "3000:1 3000:2"],
                         ids=["negative", "zero", "repeated"])
def test_sweep_degree_bounds_must_be_positive_and_distinct(value):
    with pytest.raises(ConfigError, match="sweep_degrees need distinct positive omega bounds"):
        parse_config(f"sweep_degrees = {value}\n")


def test_group_listing_a_frequency_twice_rejected_at_load():
    with pytest.raises(ConfigError, match="group 0 lists frequency 300.0 more than once"):
        parse_config("group = 300 300\n")


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


def test_blindtest_config_loads_the_workload_inputs():
    # the case workloads read these from the shipped config
    cfg = load_config(CONFIG)
    assert cfg.groups == []
    assert cfg.schedule() == blindtest_schedule()
    assert len(cfg.schedule().groups) == 28
    assert cfg.discretization() == DiscretizationConfig(degree=3)
    assert cfg.discretization().quad_points is None
    assert [cfg.degree_for()(w) for w in (3000.0, 6000.0, 9000.0)] == [1, 2, 3]


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


def test_time_records_writer_checks_lengths(tmp_path):
    path = tmp_path / "rec.txt"
    traces = {(0, 0, "x"): TimeSeries(np.arange(4.0), 0.5),
              (0, 0, "y"): TimeSeries(np.arange(3.0), 0.5)}
    with pytest.raises(FileFormatError, match="all traces must share nt, dt and t0"):
        write_time_records(path, traces)
    assert not path.exists()


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


@pytest.mark.parametrize("shape", [(1, 3, 2), (1, 1, 2), (2, 2, 2), (1, 2)],
                         ids=["extra_receiver", "short", "extra_source",
                              "no_direction"])
def test_frequency_records_writer_checks_shape(tmp_path, shape):
    # the bad array comes second, so a check inside the write loop would
    # leave the first frequency's rows behind
    path = tmp_path / "freq.txt"
    observed = {100.0: np.ones((1, 2, 2), complex), 250.0: np.ones(shape, complex)}
    with pytest.raises(FileFormatError,
                       match=re.escape(f"records at omega=250.0 have shape {shape}")):
        write_frequency_records(path, observed, 1, 2)
    assert not path.exists()


@pytest.mark.parametrize("line, value", [(2, 0), (2, -1), (3, 0), (3, -1)])
def test_frequency_records_reader_rejects_counts_below_one(tmp_path, line, value):
    path = _records_file(tmp_path)
    lines = path.read_text().splitlines()
    key = lines[line - 1].split()[0]
    lines[line - 1] = f"{key} = {value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError,
                       match=re.escape(f":{line}: {key} must be >= 1, got {value}")):
        read_frequency_records(path)


@pytest.mark.parametrize("observed, n_s, n_r", [
    ({}, 1, 1), ({500.0: np.ones((0, 2, 2))}, 0, 2),
    ({500.0: np.ones((1, 0, 2))}, 1, 0)], ids=["empty", "no_source", "no_receiver"])
def test_frequency_records_writer_rejects_what_its_reader_would(tmp_path, observed,
                                                                n_s, n_r):
    path = tmp_path / "freq.txt"
    with pytest.raises(FileFormatError):
        write_frequency_records(path, observed, n_s, n_r)
    assert not path.exists()


def _records_file(tmp_path):
    rng = np.random.default_rng(95)
    observed = {500.0: rng.normal(size=(2, 3, 2)) + 1j * rng.normal(size=(2, 3, 2))}
    path = tmp_path / "freq.txt"
    write_frequency_records(path, observed, 2, 3)
    return path


@pytest.mark.parametrize("make, read, row", [
    (_records_file, read_frequency_records, 4)])
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
    (_records_file, read_frequency_records, 4, 8)])
def test_spectrum_readers_reject_missing_rows(tmp_path, make, read, first, drop):
    path = make(tmp_path)
    lines = path.read_text().splitlines()
    del lines[drop - 1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=f":{first}: frequency .* lacks 1 rows"):
        read(path)


@pytest.mark.parametrize("make, read, row, col", [
    (_records_file, read_frequency_records, 5, 2)])
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
    (_records_file, read_frequency_records, 6)])
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


def _read_log(path):
    return [IterationRecord(**json.loads(line))
            for line in Path(path).read_text().splitlines()]


def test_convergence_log_round_trip(tmp_path):
    entries = [IterationRecord(0, 0, 1.25e-3, 0.1 + 0.2, 3.75e-6),
               IterationRecord(1, 2, 9.5e-4, 0.0, 1.0e-7, "line search failed"),
               IterationRecord(1, 3, 9.5e-4, 0.0, 1.0e-7,
                               "line search failed: alpha_init must be > 0 (100%5F_%)"),
               # whitespace other than a space, and notes that look like the empty one
               IterationRecord(2, 0, 1.0, 0.0, 0.0, "a\tb"),
               IterationRecord(2, 1, 1.0, 0.0, 0.0, "x\x1cy\u2028z\x85"),
               IterationRecord(2, 2, 1.0, 0.0, 0.0, "first\nsecond"),
               IterationRecord(2, 3, 1.0, 0.0, 0.0, "-"),
               IterationRecord(2, 4, 1.0, 0.0, 0.0, "")]
    path = tmp_path / "convergence.jsonl"
    fileio.write_convergence_log(path, entries)
    # one line per record, whatever line breaks a note holds
    assert len(path.read_text().splitlines()) == len(entries)
    back = _read_log(path)
    assert len(back) == len(entries)
    for r, b in zip(entries, back):
        assert (b.group, b.iteration, b.note) == (r.group, r.iteration, r.note)
        assert [float.hex(v) for v in (b.chi, b.alpha, b.grad_norm)] == \
            [float.hex(v) for v in (r.chi, r.alpha, r.grad_norm)]


@pytest.mark.parametrize("make, read, row", [
    (_records_file, read_frequency_records, 6)])
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


def test_cli_make_synthetic_is_gone(box_config, tmp_path):
    # forward writes a model's records; argparse rejects the old name
    out = tmp_path / "out.txt"
    rc = cli_dispatch(["make-synthetic", "--config", box_config, "--output", str(out)])
    assert rc == 2
    assert not out.exists()


def test_cli_forward_and_records(tmp_path, capsys):
    cfg_path = tmp_path / "fw.cfg"
    cfg_path.write_text(BOX_CONFIG.replace("group = 900\ngroup = 700 1500\n",
                                           "group = 800 1600\n"))
    out = tmp_path / "records.txt"
    rc = cli_dispatch(["forward", "--config", str(cfg_path), "--output", str(out)])
    assert rc == 0
    back = read_frequency_records(out)
    assert set(back) == {800.0, 1600.0}
    assert back[800.0].shape == (1, 2, 2)


def test_cli_forward_writes_the_records_of_the_schedule(box_config, tmp_path):
    from tunnelfwi.forward import solve_records
    from tunnelfwi.signal import dft, sample_ricker
    out = tmp_path / "records.txt"
    assert cli_dispatch(["forward", "--config", box_config, "--output", str(out)]) == 0
    cfg = load_config(box_config)
    mesh = build_tunnel_mesh(cfg.geometry())
    ambient = cfg.ambient()
    wavelet = sample_ricker(200.0)
    records = solve_records(mesh, ModelVector.homogeneous(mesh, ambient.vp, ambient.vs),
                            ambient.rho, [700.0, 900.0, 1500.0], cfg.layout(),
                            lambda w: dft(wavelet, w), cfg.profile(),
                            cfg.discretization())
    back = read_frequency_records(out)
    assert sorted(back) == [700.0, 900.0, 1500.0]
    for w, values in zip(records.omegas, records.values):
        assert back[w].tobytes() == values.tobytes()


def test_cli_forward_rejects_nan_c_pml(tmp_path):
    cfg_path = tmp_path / "fw.cfg"
    cfg_path.write_text(BOX_CONFIG + "c_pml = nan\n")
    out = tmp_path / "records.txt"
    assert cli_dispatch(["forward", "--config", str(cfg_path), "--output", str(out)]) != 0
    assert not out.exists()


def test_cli_forward_without_absorbing_layer_fails_before_any_solve(tmp_path, capsys):
    from tunnelfwi import solver
    cfg_path = tmp_path / "fw.cfg"
    cfg_path.write_text(BOX_CONFIG + "pml_width = 0\n")
    out = tmp_path / "records.txt"
    before = solver.factorization_count()
    assert cli_dispatch(["forward", "--config", str(cfg_path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: layer width must be finite and > 0, got 0.0\n"
    assert not out.exists()
    assert solver.factorization_count() == before


def test_cli_forward_then_invert_noop(box_config, tmp_path):
    records = tmp_path / "obs.txt"
    rc = cli_dispatch(["forward", "--config", box_config,
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
    assert (outdir / "convergence.jsonl").exists()
    assert (outdir / "model_group_01.txt").exists()


def test_cli_case_study_forward_then_invert(tmp_path):
    # the north-star path on the case-study config, cut to one p = 2 group
    # and one iteration: records of a slow box ahead of the face, inverted
    cfg_path = tmp_path / "case.cfg"
    cfg_path.write_text(CONFIG.read_text() + "\ndegree = 2\ngroup = 300\n"
                        "max_iterations = 1\n")
    cfg = load_config(cfg_path)
    mesh = build_tunnel_mesh(cfg.geometry())
    truth = ModelVector.homogeneous(mesh, cfg.ambient().vp, cfg.ambient().vs)
    x, y = mesh.nodes.T
    box = (33 <= x) & (x <= 43) & (16 <= y) & (y <= 26)
    truth.vp[box] *= 0.85
    truth.vs[box] *= 0.85
    write_model_grid(tmp_path / "truth.txt", truth, mesh)
    records, outdir = tmp_path / "obs.txt", tmp_path / "inv"
    assert cli_dispatch(["forward", "--config", str(cfg_path), "--model",
                         str(tmp_path / "truth.txt"), "--output", str(records)]) == 0
    assert cli_dispatch(["invert", "--config", str(cfg_path), "--records",
                         str(records), "--output", str(outdir)]) == 0
    for name in ("final_model.txt", "model_group_00.txt", "convergence.jsonl"):
        assert (outdir / name).exists()
    log = _read_log(outdir / "convergence.jsonl")
    assert log[-1].note == "group end"
    assert log[-1].chi < log[0].chi


@pytest.mark.parametrize("command", ["forward"])
def test_cli_model_without_positive_lame_parameter_rejected(box_config, tmp_path,
                                                            capsys, command):
    mesh = build_tunnel_mesh(load_config(box_config).geometry())
    model = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    model.values[mesh.n_nodes + 3] = 2900.0  # vp < sqrt(2)*vs: negative lambda
    grid = tmp_path / "model.txt"
    write_model_grid(grid, model, mesh)
    out = tmp_path / "records.txt"
    rc = cli_dispatch([command, "--config", box_config, "--model", str(grid),
                       "--output", str(out)])
    assert rc != 0
    assert capsys.readouterr().err == (f"error: {grid}: node 3 has vp <= sqrt(2)*vs "
                                       "(vp=4000.0, vs=2900.0)\n")
    assert not out.exists()


def test_cli_invert_writes_each_group_as_it_ends(box_config, tmp_path,
                                                 monkeypatch):
    from tunnelfwi import optimize
    records = tmp_path / "obs.txt"
    assert cli_dispatch(["forward", "--config", box_config,
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
    assert sorted(os.listdir(outdir)) == ["convergence.jsonl", "model_group_00.txt"]
    mesh = build_tunnel_mesh(load_config(box_config).geometry())
    snapshot = read_model_grid(outdir / "model_group_00.txt", mesh)
    ambient = ModelVector.homogeneous(mesh, 4000.0, 2400.0)
    np.testing.assert_array_equal(snapshot.values, ambient.values)
    log = _read_log(outdir / "convergence.jsonl")
    assert log and {r.group for r in log} == {0}
    assert log[-1].note == "group end"


def test_cli_invert_failing_final_write_leaves_no_torn_file(box_config, tmp_path,
                                                            monkeypatch):
    from tunnelfwi import fileio
    records = tmp_path / "obs.txt"
    assert cli_dispatch(["forward", "--config", box_config,
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
    assert sorted(os.listdir(outdir)) == ["convergence.jsonl", "model_group_00.txt",
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


def test_cli_invert_rejects_time_records_before_solving(box_config, tmp_path, capsys):
    from tunnelfwi import solver
    rng = np.random.default_rng(93)
    traces = {(0, r, d): TimeSeries(rng.normal(size=32) * 1e-12, 1e-4, 0.0)
              for r in range(2) for d in "xy"}
    time_path = tmp_path / "time.txt"
    write_time_records(time_path, traces)
    before = solver.factorization_count()
    rc = cli_dispatch(["invert", "--config", box_config, "--records", str(time_path),
                       "--output", str(tmp_path / "inv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {time_path}: time records; transform them with 'tunnelfwi dft' "
        "and pass its output\n")
    assert solver.factorization_count() == before
    assert not (tmp_path / "inv").exists()
    # a malformed frequency-record file still names its line
    freq_path = tmp_path / "freq.txt"
    freq_path.write_text("# frequency-records\nn_sources = 1\nn_receivers = x\n")
    rc = cli_dispatch(["invert", "--config", box_config, "--records", str(freq_path),
                       "--output", str(tmp_path / "inv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {freq_path}:3: malformed n_receivers value\n"
    assert solver.factorization_count() == before
    assert not (tmp_path / "inv").exists()


def test_cli_invert_output_on_an_existing_file_fails_before_solving(
        box_config, tmp_path, capsys):
    from tunnelfwi import solver
    records = tmp_path / "obs.txt"
    assert cli_dispatch(["forward", "--config", box_config,
                         "--output", str(records)]) == 0
    capsys.readouterr()
    target = tmp_path / "notadir"
    target.write_text("keep me\n")
    before = solver.factorization_count()
    rc = cli_dispatch(["invert", "--config", box_config, "--records", str(records),
                       "--output", str(target)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: --output {target}: {target} exists "
                                       "and is not a directory\n")
    assert solver.factorization_count() == before
    assert target.read_text() == "keep me\n"


def test_cli_invert_output_under_a_file_fails_before_solving(
        box_config, tmp_path, capsys, monkeypatch):
    from tunnelfwi import solver
    records = tmp_path / "obs.txt"
    assert cli_dispatch(["forward", "--config", box_config,
                         "--output", str(records)]) == 0
    capsys.readouterr()
    (tmp_path / "afile").write_text("keep me\n")
    monkeypatch.chdir(tmp_path)
    before = solver.factorization_count()
    rc = cli_dispatch(["invert", "--config", box_config, "--records", str(records),
                       "--output", "afile/sub/deeper"])
    assert rc == 1
    assert capsys.readouterr().err == ("error: --output afile/sub/deeper: "
                                       f"{Path.cwd() / 'afile'} exists and is not "
                                       "a directory\n")
    assert solver.factorization_count() == before
    assert (tmp_path / "afile").read_text() == "keep me\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "obs.txt", "run.cfg"]


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


def test_cli_invert_names_a_scheduled_frequency_the_records_lack(
        box_config, tmp_path, capsys):
    from tunnelfwi import solver
    records = tmp_path / "obs.txt"
    write_frequency_records(records, {w: np.ones((1, 2, 2), complex)
                                      for w in (700.0, 900.0)}, 1, 2)
    before = solver.factorization_count()
    rc = cli_dispatch(["invert", "--config", box_config, "--records", str(records),
                       "--output", str(tmp_path / "inv")])
    assert rc != 0
    assert capsys.readouterr().err == "error: no observed records at omega = 1500.0\n"
    assert solver.factorization_count() == before
    assert not (tmp_path / "inv").exists()


VALIDATE_CFG = """
domain_width = 20
depth_above_tunnel = 7
tunnel_height = 0
depth_below_tunnel = 7
tunnel_length = 0
pml_width = 3
element_size = 1
degree = 2
validate_frequency_hz = 300
"""


def test_cli_validate_pml(tmp_path, capsys):
    cfg_path = tmp_path / "val.cfg"
    cfg_path.write_text(VALIDATE_CFG)
    out = tmp_path / "table.txt"
    rc = cli_dispatch(["validate-pml", "--config", str(cfg_path),
                       "--output", str(out)])
    assert rc == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "median normalized error" in captured.out


def test_validate_pml_rows_match_the_per_probe_reference(tmp_path):
    cfg_path = tmp_path / "val.cfg"
    cfg_path.write_text(VALIDATE_CFG)
    out = tmp_path / "table.txt"
    assert cli_dispatch(["validate-pml", "--config", str(cfg_path),
                         "--output", str(out)]) == 0
    rows = fileio.read_validation_table(out)

    # one probe at a time; the diagonal passes through the centered source
    cfg = load_config(cfg_path)
    amb = cfg.ambient()
    mesh = build_unbounded_mesh(20, 14, 3, 1)
    omega = 2.0 * np.pi * 300.0
    source = (13.0, 10.0)
    layout = StationLayout(sources=(Source(source, (0.0, 1.0)),), receivers=())
    res = forward_solve(mesh, ModelVector.homogeneous(mesh, amb.vp, amb.vs), amb.rho,
                        omega, layout, 1.0, cfg.profile(), cfg.discretization())
    W, H = mesh.extent
    x0b, x1b, y0b, y1b = mesh.interior_box()
    n = 2 * max(mesh.nx, mesh.ny)
    ref = []
    for t in np.arange(1, n) / n:
        p = (t * W, t * H)
        dx, dy = p[0] - source[0], p[1] - source[1]
        r = np.hypot(dx, dy)
        if r < 1e-9:
            continue
        num = evaluate_field(mesh, res.system.dof_map, res.fields[0].u, p,
                             allow_pml=True)[0]
        ana = greens_x_polar(r, np.arctan2(dx, -dy), omega, amb.vp, amb.vs, amb.rho)
        usable = x0b < p[0] < x1b and y0b < p[1] < y1b and r > 3.0 * mesh.h
        ref.append((t * np.hypot(W, H), num, ana, usable))
    scale = max(abs(ana.real) for _, _, ana, usable in ref if usable)

    assert len(rows) == len(ref) == n - 2
    for (dist, num, ana, err, usable), (dist0, num0, ana0, usable0) in zip(rows, ref):
        assert dist == dist0 and usable == usable0
        assert abs(num - num0) <= 1e-14 * abs(num0)
        assert abs(ana - ana0) <= 1e-14 * abs(ana0)
        assert abs(err - abs(num0.real - ana0.real) / scale) <= 1e-14


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


def test_cli_greens_sweep(tmp_path):
    from tunnelfwi.forward import greens_sweep
    cfg_path = tmp_path / "sw.cfg"
    cfg_path.write_text(BOX_CONFIG + "source = 5 4 0 1\nsweep_start = 500\n"
                        "sweep_end = 700\nsweep_step = 100\nsweep_degrees = 600:1 800:2\n")
    out = tmp_path / "sweep.txt"
    rc = cli_dispatch(["greens", "--config", str(cfg_path), "--source", "1",
                       "--output", str(out)])
    assert rc == 0
    cfg = load_config(cfg_path)
    mesh = build_tunnel_mesh(cfg.geometry())
    layout, ambient = cfg.layout(), cfg.ambient()
    omegas, values = greens_sweep(
        mesh, ModelVector.homogeneous(mesh, ambient.vp, ambient.vs), ambient.rho,
        layout.sources[1], 500.0, 700.0, 100.0, layout, cfg.profile(),
        cfg.discretization(), degree_for=cfg.degree_for())
    # the records of a one-source layout, whose s0 is the --source station
    back = read_frequency_records(out)
    assert list(back) == list(omegas)
    for w, v in zip(omegas, values):
        assert back[w].shape == (1, 2, 2)
        assert np.array_equal(back[w][0], v)


def test_readme_command_line_names_every_subcommand():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    listed = re.findall(r"^tunnelfwi (\S+)", block, re.M)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(sub.choices)
