"""Property tests: every fileio writer/reader pair is lossless for any data
it accepts, and a config file loads to exactly the values it writes."""

import numpy as np
from hypothesis import given, settings, strategies as st

from tunnelfwi import fileio
from tunnelfwi.config import parse_config
from tunnelfwi.material import ModelVector
from tunnelfwi.mesh import Receiver, Source, TunnelGeometry, build_tunnel_mesh
from tunnelfwi.signal import TimeSeries

SETTINGS = settings(max_examples=50, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e9, allow_nan=False)
coordinate = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
complex_values = st.builds(complex, finite, finite)


def _complex_array(shape):
    return st.lists(complex_values, min_size=int(np.prod(shape)),
                    max_size=int(np.prod(shape))).map(
        lambda v: np.array(v, dtype=complex).reshape(shape))


@st.composite
def time_records(draw):
    nt = draw(st.integers(2, 6))
    dt, t0 = draw(positive), draw(finite)
    keys = draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                  st.sampled_from("xy")), min_size=1, max_size=5))
    return {k: TimeSeries(np.array(draw(st.lists(finite, min_size=nt, max_size=nt))),
                          dt, t0) for k in keys}


@SETTINGS
@given(traces=time_records())
def test_time_records_round_trip(tmp_path_factory, traces):
    path = tmp_path_factory.mktemp("rt") / "rec.txt"
    fileio.write_time_records(path, traces)
    back = fileio.read_time_records(path)
    assert set(back) == set(traces)
    for k, t in traces.items():
        assert np.array_equal(back[k].samples, t.samples)
        assert (back[k].dt, back[k].t0) == (t.dt, t.t0)


@st.composite
def frequency_records(draw):
    n_s, n_r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    omegas = draw(st.sets(positive, min_size=1, max_size=3))
    return {w: draw(_complex_array((n_s, n_r, 2))) for w in omegas}, n_s, n_r


@SETTINGS
@given(case=frequency_records())
def test_frequency_records_round_trip(tmp_path_factory, case):
    observed, n_s, n_r = case
    path = tmp_path_factory.mktemp("rt") / "freq.txt"
    fileio.write_frequency_records(path, observed, n_s, n_r)
    back = fileio.read_frequency_records(path)
    assert set(back) == set(observed)
    for w, values in observed.items():
        assert np.array_equal(back[w], values)


validation_rows = st.lists(st.tuples(finite, complex_values, complex_values, finite,
                                     st.booleans()), max_size=5)


@SETTINGS
@given(rows=validation_rows)
def test_validation_table_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("rt") / "table.txt"
    fileio.write_validation_table(path, rows)
    assert fileio.read_validation_table(path) == rows


GRID = build_tunnel_mesh(TunnelGeometry(4, 2, 0, 2, 0, 0, 1))


# (vp, vs) pairs with a positive first Lame parameter, as read_model_grid requires
node_velocities = positive.flatmap(lambda vp: st.tuples(
    st.just(vp), st.floats(0.0, vp / 1.5, exclude_min=True)))


@SETTINGS
@given(nodes=st.lists(node_velocities, min_size=GRID.n_nodes, max_size=GRID.n_nodes))
def test_model_grid_round_trip(tmp_path_factory, nodes):
    model = ModelVector(np.array(nodes).T.ravel())
    path = tmp_path_factory.mktemp("rt") / "model.txt"
    fileio.write_model_grid(path, model, GRID)
    assert np.array_equal(fileio.read_model_grid(path, GRID).values, model.values)


@st.composite
def config_texts(draw):
    """Config files with stations, an explicit schedule, sweep degrees and
    scalars that no cross-module invariant constrains, and the values each
    line gives."""
    scalars = {"wavelet_peak_hz": draw(positive),
               "station_radius": draw(st.floats(0.0, 10.0)),
               "max_iterations": draw(st.integers(1, 50))}
    lines = [f"{k} = {v!r}" for k, v in scalars.items()]
    sources, receivers = [], []
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(coordinate), draw(coordinate)
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        dx, dy = float(np.cos(angle)), float(np.sin(angle))  # unit, kept as given
        lines.append(f"source = {x!r} {y!r} {dx!r} {dy!r}")
        sources.append(Source((x, y), (dx, dy)))
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(coordinate), draw(coordinate)
        dirs = draw(st.sampled_from(["x", "y", "xy", "yx"]))
        lines.append(f"receiver = {x!r} {y!r} {dirs}")
        receivers.append(Receiver((x, y), {"x": (0,), "y": (1,)}.get(dirs, (0, 1))))
    groups = []
    for top in sorted(draw(st.sets(positive, min_size=1, max_size=4))):
        low = draw(st.lists(st.floats(0.0, top, exclude_min=True, exclude_max=True),
                            max_size=2, unique=True))
        groups.append(low + [top])
        lines.append("group = " + " ".join(repr(w) for w in groups[-1]))
    degrees = draw(st.lists(st.tuples(positive, st.integers(1, 3)), max_size=3,
                            unique_by=lambda pair: pair[0]))
    if degrees:
        lines.append("sweep_degrees = " + " ".join(f"{u!r}:{d}" for u, d in degrees))
    expected = {"scalars": scalars, "sources": sources, "receivers": receivers,
                "groups": groups, "sweep_degrees": degrees}
    return "\n".join(lines) + "\n", expected


DEFAULTS = parse_config("").scalars


@SETTINGS
@given(case=config_texts())
def test_config_parse_returns_the_values_written(case):
    text, expected = case
    cfg = parse_config(text)
    assert cfg.scalars == {**DEFAULTS, **expected["scalars"]}
    assert cfg.sources == expected["sources"]
    assert cfg.receivers == expected["receivers"]
    assert cfg.groups == expected["groups"]
    assert cfg.sweep_degrees == expected["sweep_degrees"]
