"""Counters and spans around the public functions of tunnelfwi's layers.

The benchmark times the program from outside: ``install`` replaces module
attributes (``forward.forward_solve``, ``solver.factorize``,
``solver.Factorization.solve`` and so on) with wrappers that report to one
``Recorder``.  Package code calls these functions through module attributes,
so every call inside the program passes through the wrappers.

A recorder has three modes.  OFF passes calls straight through (output
checks run in it).  COUNT only counts calls, factorization fill and line
search trials, so untraced passes can be compared count for count with
traced ones.  TRACE also records one span (name, start, end, parent span,
run id) per call; spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import weakref
from collections import Counter

import numpy as np

OFF, COUNT, TRACE = 0, 1, 2


class Recorder:
    """Counts and spans of the current run; one per process."""

    def __init__(self):
        self.mode = OFF
        self.run_id = None
        self.spans = []  # this run's [name, start, end, parent index, run id]
        self.finished = []  # span lists of the finished traced runs
        self._stack = []
        self._search_depth = 0
        self._matrices = weakref.WeakKeyDictionary()  # factorization -> matrix
        self._reset()

    def _reset(self):
        self.counts = Counter()
        self.fill_max = (0, 0)  # (L+U entries, matrix nnz) of the largest fill
        self.matrix_nnz_max = 0
        self.residual_max = 0.0

    def begin(self, run_id, mode):
        self._reset()
        self.run_id = run_id
        self.mode = mode
        self.spans = []
        if mode == TRACE:
            self._open("bench.run")

    def end(self):
        """Close the run and return its counts and spans."""
        if self.mode == TRACE:
            self._close()
        run = {"run_id": self.run_id, "mode": self.mode,
               "counts": dict(self.counts), "fill_max": self.fill_max,
               "matrix_nnz_max": self.matrix_nnz_max,
               "residual_max": self.residual_max,
               "spans": self.spans}
        if self.mode == TRACE:
            self.finished.append(self.spans)
        self.mode = OFF
        return run

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = [name, 0.0, None, parent, self.run_id]
        self.spans.append(span)
        span[1] = time.perf_counter()

    def _close(self):
        end = time.perf_counter()
        self.spans[self._stack.pop()][2] = end

    def call(self, name, fn, args, kwargs):
        if self.mode == OFF:
            return fn(*args, **kwargs)
        self.counts[name] += 1
        if self.mode == COUNT:
            return fn(*args, **kwargs)
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    # -- hooks that run after a wrapped call returns ---------------------------

    def after_factorize(self, fact, matrix):
        fill = fact._lu.nnz  # L+U entries as SuperLU stores them
        self.counts["solver.fill_total"] += fill
        if fill > self.fill_max[0]:
            self.fill_max = (fill, matrix.nnz)
        if self.mode == TRACE:
            self._matrices[fact] = matrix

    def after_solve(self, fact, rhs, x):
        """Relative residual |Lx - b| / |b|, traced runs only, in its own span."""
        matrix = self._matrices.get(fact) if self.mode == TRACE else None
        if matrix is None:
            return
        self._open("bench.residual")
        try:
            b = np.linalg.norm(rhs)
            if b > 0:
                r = float(np.linalg.norm(matrix @ x - rhs) / b)
                self.residual_max = max(self.residual_max, r)
        finally:
            self._close()


def _wrap(rec, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.call(name, fn, args, kwargs)
        if after is not None and rec.mode != OFF:
            after(result, args, kwargs)
        return result
    return wrapper


def install(rec, modules):
    """Route the layers' public functions through ``rec``.

    ``modules`` maps layer names (mesh, assembly, solver, forward, adjoint,
    optimize) to the imported tunnelfwi modules.
    """
    mesh, asm, solver = modules["mesh"], modules["assembly"], modules["solver"]
    fwd, adj, opt = modules["forward"], modules["adjoint"], modules["optimize"]

    def patch(module, attr, name, after=None):
        setattr(module, attr, _wrap(rec, name, getattr(module, attr), after))

    patch(mesh, "build_tunnel_mesh", "mesh.build")
    patch(mesh, "locate_station", "mesh.locate")
    patch(mesh, "locate_point", "mesh.locate")

    init = asm.DofMap.__init__
    asm.DofMap.__init__ = _wrap(rec, "assembly.dofmap", init)

    def after_assemble(system, args, kwargs):
        rec.matrix_nnz_max = max(rec.matrix_nnz_max, system.L.nnz)
    patch(asm, "assemble_system", "assembly.system", after_assemble)
    patch(asm, "stiffness_derivative_products", "assembly.derivative")

    patch(solver, "factorize", "solver.factorize",
          lambda fact, args, kwargs: rec.after_factorize(fact, args[0]))
    solve = solver.Factorization.solve
    solver.Factorization.solve = _wrap(
        rec, "solver.solve", solve,
        lambda x, args, kwargs: rec.after_solve(args[0], args[1], x))

    def after_forward(result, args, kwargs):
        if rec._search_depth:
            rec.counts["forward.solve_in_search"] += 1
    patch(fwd, "forward_solve", "forward.solve", after_forward)
    patch(fwd, "sample_receivers", "forward.sample")
    patch(fwd, "solve_records", "forward.records")
    patch(fwd, "greens_sweep", "forward.sweep")

    patch(adj, "misfit", "adjoint.misfit")
    patch(adj, "residuals", "adjoint.misfit")
    patch(adj, "adjoint_source", "adjoint.source")
    patch(adj, "adjoint_field", "adjoint.field")
    patch(adj, "accumulate_gradient", "adjoint.gradient")
    patch(adj, "precondition", "adjoint.precondition")

    patch(opt, "run_frequency_group", "optimize.group")
    search = opt.line_search

    @functools.wraps(search)
    def line_search(chi, alpha_init, *args, **kwargs):
        def trial(alpha):
            if rec.mode != OFF and alpha != 0.0:
                rec.counts["optimize.trials"] += 1
            return chi(alpha)
        rec._search_depth += 1
        try:
            found = rec.call("optimize.line_search", search,
                             (trial, alpha_init) + args, kwargs)
        finally:
            rec._search_depth -= 1
        if rec.mode != OFF:
            rec.counts["optimize.accepted"] += 1
        return found
    opt.line_search = line_search


def exact_counts(run):
    """Counts that must repeat exactly between passes of one seed."""
    c = run["counts"]
    return {"solver.factorizations": c.get("solver.factorize", 0),
            "solver.solves": c.get("solver.solve", 0),
            "solver.fill_total": c.get("solver.fill_total", 0),
            "optimize.trials": c.get("optimize.trials", 0),
            "forward.passes": c.get("forward.solve", 0)}


def span_totals(spans):
    """Self time and inclusive durations per span name, for one run.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because one thread makes every call.
    """
    inner = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            inner[parent] += end - start
    selfs, inclusive = Counter(), {}
    for (name, start, end, _, _), child in zip(spans, inner):
        selfs[name] += (end - start) - child
        inclusive.setdefault(name, []).append(end - start)
    return selfs, inclusive


def _run_totals(run):
    """Additive per-layer quantities of one run (times in s, counts)."""
    selfs, inclusive = span_totals(run["spans"])
    c = Counter(run["counts"])
    return {
        "mesh.build_s": selfs["mesh.build"],
        "mesh.locate_calls": c["mesh.locate"],
        "assembly.dofmap_s": selfs["assembly.dofmap"],
        "assembly.dofmaps": c["assembly.dofmap"],
        "assembly.system_s": selfs["assembly.system"],
        "assembly.systems": c["assembly.system"],
        "assembly.derivative_s": selfs["assembly.derivative"],
        "solver.factorize_s": selfs["solver.factorize"],
        "solver.factorizations": c["solver.factorize"],
        "solver.solve_s": selfs["solver.solve"],
        "solver.solves": c["solver.solve"],
        "forward.passes": c["forward.solve"],
        "forward.sample_s": selfs["forward.sample"],
        "adjoint.misfit_s": selfs["adjoint.misfit"],
        "adjoint.source_s": selfs["adjoint.source"],
        "adjoint.gradient_s": selfs["adjoint.gradient"] + selfs["adjoint.precondition"],
        "adjoint.gradients": c["adjoint.gradient"],
        "optimize.iterations": c["optimize.accepted"],
        "optimize.trials": c["optimize.trials"],
        "optimize.line_search_s": sum(inclusive.get("optimize.line_search", ())),
        "optimize.passes_outside_search":
            c["forward.solve"] - c["forward.solve_in_search"],
        "trace.layers_self_s": sum(t for name, t in selfs.items()
                                   if not name.startswith("bench.")),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(setup_runs, traced_runs, untraced_s):
    """Per-layer metrics of a traced benchmark run.

    Additive quantities are the (low) median over traced set-ups plus the
    one over traced passes, so set-up layers (mesh, dof maps) are counted once
    per set-up.  Ratios are formed from those sums.  ``untraced_s`` are the
    wall times of the untraced passes of the same process.
    """
    setup = [_run_totals(r) for r in setup_runs]
    passes = [_run_totals(r) for r in traced_runs]
    m = {k: statistics.median_low(s[k] for s in setup)
         + statistics.median_low(p[k] for p in passes) for k in passes[0]}
    # only the passes' layers are inside the traced run time
    m["trace.layers_self_s"] = statistics.median(p["trace.layers_self_s"]
                                                 for p in passes)
    run_s = statistics.median(sum(span_totals(r["spans"])[1]["bench.run"])
                              for r in traced_runs)
    m["trace.run_s"] = run_s
    m["trace.overhead"] = _ratio(run_s, statistics.median(untraced_s))

    fill, nnz = max(r["fill_max"] for r in traced_runs)
    m["solver.fill_nnz"] = fill
    m["solver.fill_ratio"] = _ratio(fill, nnz)
    m["solver.residual_max"] = max(r["residual_max"] for r in traced_runs)
    m["solver.solves_per_factorization"] = _ratio(m["solver.solves"],
                                                  m["solver.factorizations"])
    m["assembly.matrix_nnz"] = max(r["matrix_nnz_max"] for r in traced_runs)
    pass_s = [d for r in traced_runs
              for d in span_totals(r["spans"])[1].get("forward.solve", ())]
    m["forward.pass_s.p50"] = statistics.median(pass_s) if pass_s else 0.0
    m["optimize.trials_per_iteration"] = _ratio(m["optimize.trials"],
                                                m["optimize.iterations"])
    m["optimize.accepted_per_trial"] = _ratio(m["optimize.iterations"],
                                              m["optimize.trials"])
    m["optimize.factorizations_per_gradient"] = _ratio(
        m["solver.factorizations"], m["adjoint.gradients"])
    return m


def write_spans(path, runs):
    """Spans of traced runs as JSON lines.

    ``id`` and ``parent`` number the spans within their run; times are
    ``time.perf_counter`` seconds.
    """
    with open(path, "w") as fh:
        for spans in runs:
            for i, (name, start, end, parent, run_id) in enumerate(spans):
                fh.write(json.dumps({"run": run_id, "id": i, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")
