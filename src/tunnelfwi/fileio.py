"""Plain-text file formats: time and frequency records, model grids, the
convergence log.

All numbers are written with repr (shortest round-tripping form), so every
writer/reader pair is bitwise lossless.  Trace and record identifiers use
source index, receiver index and direction letter (x or y).
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from . import material as matmod
from . import signal as sigmod

_DIR_LETTER = {0: "x", 1: "y"}
_DIR_INDEX = {"x": 0, "y": 1}
_VALIDATION_HEADER = "# pml-validation: s num_re num_im ana_re ana_im norm_err usable"


def fmt(x):
    """Shortest exact decimal form of a number (plain Python float repr)."""
    return repr(float(x))


class FileFormatError(ValueError):
    pass


def _read_lines(path, header):
    """Lines of a text file whose first line must be ``header``."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0].strip() != header:
        raise FileFormatError(f"{path}: missing '{header}' header")
    return lines


def _parse_header_line(lines, line_no, key, path, convert=str):
    """Value of the ``key = value`` line at (1-based) ``line_no``."""
    where = f"{path}:{line_no}"
    parts = lines[line_no - 1].split("=", 1) if line_no <= len(lines) else []
    if len(parts) != 2 or parts[0].strip() != key:
        raise FileFormatError(f"{where}: expected '{key} = ...'")
    try:
        value = convert(parts[1].strip())
    except ValueError:
        raise FileFormatError(f"{where}: malformed {key} value") from None
    if isinstance(value, float) and not np.isfinite(value):
        raise FileFormatError(f"{where}: {key} is not finite")
    return value


def _number_row(path, line_no, line, n_cols):
    """The ``n_cols`` numbers of one body row, or FileFormatError at path:line."""
    toks = line.split()
    if len(toks) != n_cols:
        raise FileFormatError(f"{path}:{line_no}: expected {n_cols} columns, "
                              f"found {len(toks)}")
    try:
        values = [float(tok) for tok in toks]
    except ValueError:
        raise FileFormatError(f"{path}:{line_no}: malformed number") from None
    if not np.all(np.isfinite(values)):
        raise FileFormatError(f"{path}:{line_no}: number is not finite")
    return values


# -- time records -------------------------------------------------------------

def write_time_records(path, traces):
    """``traces`` maps (source, receiver, direction letter) to TimeSeries."""
    if not traces:
        raise FileFormatError("no traces to write")
    keys = sorted(traces)
    first = traces[keys[0]]
    nt = len(first.samples)
    if any(len(t.samples) != nt or t.dt != first.dt or t.t0 != first.t0
           for t in traces.values()):
        raise FileFormatError("all traces must share nt, dt and t0")
    with open(path, "w") as f:
        f.write("# time-records\n")
        f.write(f"nt = {nt}\n")
        f.write(f"dt = {fmt(first.dt)}\n")
        f.write(f"t0 = {fmt(first.t0)}\n")
        for (s, r, d) in keys:
            f.write(f"trace = s{s} r{r} {d}\n")
        for n in range(nt):
            f.write(" ".join(fmt(traces[k].samples[n]) for k in keys) + "\n")


def read_time_records(path):
    """Inverse of write_time_records; returns {(s, r, d): TimeSeries}."""
    lines = _read_lines(path, "# time-records")
    nt = _parse_header_line(lines, 2, "nt", path, int)
    dt = _parse_header_line(lines, 3, "dt", path, float)
    t0 = _parse_header_line(lines, 4, "t0", path, float)
    if dt <= 0:
        raise FileFormatError(f"{path}: dt must be > 0, got {dt}")
    if nt < 2:
        raise FileFormatError(f"{path}: need nt >= 2, got {nt}")

    keys = []
    row = 4
    while row < len(lines) and lines[row].startswith("trace"):
        toks = _parse_header_line(lines, row + 1, "trace", path).split()
        if (len(toks) != 3 or toks[0][0] != "s" or not toks[0][1:].isdecimal()
                or toks[1][0] != "r" or not toks[1][1:].isdecimal()
                or toks[2] not in _DIR_INDEX):
            raise FileFormatError(f"{path}:{row + 1}: malformed trace id")
        key = (int(toks[0][1:]), int(toks[1][1:]), toks[2])
        if key in keys:
            raise FileFormatError(f"{path}:{row + 1}: trace {' '.join(toks)} declared twice")
        keys.append(key)
        row += 1
    if not keys:
        raise FileFormatError(f"{path}: no traces declared")

    body = [(line_no, ln) for line_no, ln in enumerate(lines[row:], start=row + 1)
            if ln.strip()]
    if len(body) != nt:
        raise FileFormatError(f"{path}: expected {nt} sample rows, found {len(body)}")
    data = np.empty((nt, len(keys)))
    for n, (line_no, ln) in enumerate(body):
        data[n] = _number_row(path, line_no, ln, len(keys))
    return {k: sigmod.TimeSeries(data[:, i], dt, t0) for i, k in enumerate(keys)}


# -- frequency-domain records ---------------------------------------------------

def write_frequency_records(path, observed, n_sources, n_receivers):
    """``observed`` maps omega to a complex (n_sources, n_receivers, 2) array.
    A Green's sweep is written as the records of its one-source layout."""
    if not observed:
        raise FileFormatError("no records to write")
    if n_sources < 1 or n_receivers < 1:
        raise FileFormatError(f"need n_sources and n_receivers >= 1, got "
                              f"{n_sources} and {n_receivers}")
    for omega, vals in observed.items():
        if np.shape(vals) != (n_sources, n_receivers, 2):
            raise FileFormatError(f"records at omega={omega} have shape {np.shape(vals)}")
    with open(path, "w") as f:
        f.write("# frequency-records\n")
        f.write(f"n_sources = {n_sources}\n")
        f.write(f"n_receivers = {n_receivers}\n")
        for omega in sorted(observed):
            vals = np.asarray(observed[omega])
            for s, r, d in np.ndindex(vals.shape):
                v = vals[s, r, d]
                f.write(f"{fmt(omega)} s{s} r{r} {_DIR_LETTER[d]} "
                        f"{fmt(v.real)} {fmt(v.imag)}\n")


def read_frequency_records(path):
    """Inverse of write_frequency_records: {omega: (n_s, n_r, 2) array}.

    Rows read ``omega s<source> r<receiver> <x|y> re im``; every frequency
    must carry the full set of (source, receiver, direction) rows, each once.
    """
    lines = _read_lines(path, "# frequency-records")
    shape = (_parse_header_line(lines, 2, "n_sources", path, int),
             _parse_header_line(lines, 3, "n_receivers", path, int), 2)
    for line_no, key, n in ((2, "n_sources", shape[0]), (3, "n_receivers", shape[1])):
        if n < 1:
            raise FileFormatError(f"{path}:{line_no}: {key} must be >= 1, got {n}")
    rows = {}  # omega -> (line of its first row, values, which rows were read)
    for line_no, ln in enumerate(lines[3:], start=4):
        if not ln.strip():
            continue
        where = f"{path}:{line_no}"
        toks = ln.split()
        if len(toks) != 6:
            raise FileFormatError(f"{where}: expected 6 columns")
        key = []
        for tok, prefix, size in zip(toks[1:3], "sr", shape):
            if not (tok[:1] == prefix and tok[1:].isdecimal() and int(tok[1:]) < size):
                raise FileFormatError(
                    f"{where}: expected {prefix}0..{prefix}{size - 1}, got {tok!r}")
            key.append(int(tok[1:]))
        if toks[3] not in _DIR_INDEX:
            raise FileFormatError(f"{where}: direction must be x or y, got {toks[3]!r}")
        key = (*key, _DIR_INDEX[toks[3]])
        try:
            omega = float(toks[0])
            value = complex(float(toks[4]), float(toks[5]))
        except ValueError:
            raise FileFormatError(f"{where}: malformed number") from None
        if not (np.isfinite(omega) and np.isfinite(value)):
            raise FileFormatError(f"{where}: number is not finite")
        if omega not in rows:
            rows[omega] = (line_no, np.zeros(shape, dtype=complex),
                           np.zeros(shape, dtype=bool))
        _, values, seen = rows[omega]
        if seen[key]:
            raise FileFormatError(f"{where}: repeated row {' '.join(toks[:4])}")
        values[key] = value
        seen[key] = True
    if not rows:
        raise FileFormatError(f"{path}: no records found")
    for omega, (line_no, _, seen) in rows.items():
        if not seen.all():
            s, r, d = np.argwhere(~seen)[0]
            raise FileFormatError(
                f"{path}:{line_no}: frequency {omega!r} lacks {int((~seen).sum())} "
                f"rows, first s{s} r{r} {_DIR_LETTER[d]}")
    return {omega: values for omega, (_, values, _) in rows.items()}


# -- solver-validation tables ------------------------------------------------------

def write_validation_table(path, rows):
    """Rows of (distance, numeric, analytic, normalized error, usable flag)."""
    with open(path, "w") as f:
        f.write(_VALIDATION_HEADER + "\n")
        for dist, num, ana, err, usable in rows:
            f.write(f"{fmt(dist)} {fmt(num.real)} {fmt(num.imag)} {fmt(ana.real)} "
                    f"{fmt(ana.imag)} {fmt(err)} {int(usable)}\n")


def read_validation_table(path):
    lines = _read_lines(path, _VALIDATION_HEADER)
    rows = []
    for line_no, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        t = _number_row(path, line_no, ln, 7)
        rows.append((t[0], complex(t[1], t[2]), complex(t[3], t[4]), t[5], bool(t[6])))
    return rows


# -- model grids -----------------------------------------------------------------

def write_model_grid(path, model: matmod.ModelVector, mesh):
    """Header (node grid dims, spacing, origin) plus one row per node."""
    if model.n_nodes != mesh.n_nodes:
        raise FileFormatError(f"model has {model.n_nodes} nodes, mesh has {mesh.n_nodes}")
    with open(path, "w") as f:
        f.write("# model-grid\n")
        f.write(f"nx = {mesh.nx + 1}\n")
        f.write(f"ny = {mesh.ny + 1}\n")
        f.write(f"h = {fmt(mesh.h)}\n")
        f.write("origin = 0.0 0.0\n")
        for n in range(mesh.n_nodes):
            x, y = mesh.nodes[n]
            f.write(f"{fmt(x)} {fmt(y)} {fmt(model.vp[n])} {fmt(model.vs[n])}\n")


def read_model_grid(path, mesh) -> matmod.ModelVector:
    """Read a model grid, checking it matches the mesh node for node."""
    lines = _read_lines(path, "# model-grid")
    nx = _parse_header_line(lines, 2, "nx", path, int)
    ny = _parse_header_line(lines, 3, "ny", path, int)
    h = _parse_header_line(lines, 4, "h", path, float)
    if nx != mesh.nx + 1 or ny != mesh.ny + 1 or abs(h - mesh.h) > 1e-12:
        raise FileFormatError(
            f"{path}: grid {nx}x{ny} (h={h}) does not match mesh "
            f"{mesh.nx + 1}x{mesh.ny + 1} (h={mesh.h})")
    body = [(line_no, ln) for line_no, ln in enumerate(lines[5:], start=6)
            if ln.strip()]
    if len(body) != mesh.n_nodes:
        raise FileFormatError(f"{path}: expected {mesh.n_nodes} node rows, "
                              f"found {len(body)}")
    vp = np.empty(mesh.n_nodes)
    vs = np.empty(mesh.n_nodes)
    for n, (line_no, ln) in enumerate(body):
        x, y, vpn, vsn = _number_row(path, line_no, ln, 4)
        if abs(x - mesh.nodes[n, 0]) > 1e-9 or abs(y - mesh.nodes[n, 1]) > 1e-9:
            raise FileFormatError(f"{path}: node {n} coordinates do not match the mesh")
        if vpn <= 0 or vsn <= 0:
            raise FileFormatError(f"{path}: node {n} has non-positive velocity")
        if not vpn > matmod.SQRT2 * vsn:
            raise FileFormatError(f"{path}: node {n} has vp <= sqrt(2)*vs "
                                  f"(vp={vpn!r}, vs={vsn!r})")
        vp[n], vs[n] = vpn, vsn
    return matmod.ModelVector(np.concatenate([vp, vs]))


# -- spectra of time records ------------------------------------------------------

def records_to_spectra(traces, omegas, layout):
    """Single-frequency transforms of every trace at the scheduled omegas."""
    omegas = sorted(set(float(w) for w in omegas))
    outside = [f"s{s} r{r} {d}" for s, r, d in traces
               if s >= layout.n_sources or r >= layout.n_receivers]
    if outside:
        raise FileFormatError(
            f"traces outside the layout's {layout.n_sources} sources and "
            f"{layout.n_receivers} receivers: " + ", ".join(outside))
    missing = []
    for s in range(layout.n_sources):
        for r, rec in enumerate(layout.receivers):
            for d in rec.directions:
                if (s, r, _DIR_LETTER[d]) not in traces:
                    missing.append(f"s{s} r{r} {_DIR_LETTER[d]}")
    if missing:
        raise FileFormatError("missing traces: " + ", ".join(missing))
    observed = {w: np.zeros((layout.n_sources, layout.n_receivers, 2), dtype=complex)
                for w in omegas}
    for (s, r, d), series in traces.items():
        spec = sigmod.dft_many(series, omegas)
        for i, w in enumerate(omegas):
            observed[w][s, r, _DIR_INDEX[d]] = spec.values[i]
    return observed


# -- convergence log -----------------------------------------------------------

def write_convergence_log(path, records):
    """One JSON line per ``IterationRecord`` (``json`` escapes a note's control and
    non-ASCII characters); ``IterationRecord(**json.loads(line))`` reads it back."""
    with open(path, "w") as f:
        f.writelines(json.dumps(dataclasses.asdict(r)) + "\n" for r in records)


# -- atomic writes -------------------------------------------------------------

def write_atomically(path, write):
    """Run ``write(tmp)`` on a file beside ``path`` and rename it over
    ``path``, so an interrupted run never leaves a torn file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
