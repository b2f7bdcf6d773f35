"""Output checks behind ``run_ok_frac`` and ``cert_ok_frac``.

A ``run_experiment`` call fails when any of these holds:

- it returns a non-zero status or writes ``error.json``;
- a trace file, its header, or ``meta.json`` is missing;
- a rerun's traces are not byte-identical to the first run's (the
  acceptance 11 property);
- on a deterministic workload, some logged k >= 10 has
  ``gap_ergodic > C0/k + ref_tol`` with ``rate_constant`` and ``ref_tol``
  taken from ``meta.json`` (the acceptance 01 property).

A certified step fails when ``slack < -1e-8 * scale``, the test of
acceptance 02.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from sbpd.experiment import CSV_HEADER, read_trace

CERT_TOL = 1e-8


def cert_failed(slack, scale):
    return slack < -CERT_TOL * scale


def snapshot(out_dir, names):
    """Bytes of each named trace, ``None`` for a missing file."""
    out = {}
    for name in names:
        path = Path(out_dir, name)
        out[name] = path.read_bytes() if path.is_file() else None
    return out


def run_problems(status, out_dir, names):
    """Reasons the ``run_experiment`` call that wrote ``out_dir`` failed."""
    problems = []
    if status != 0:
        problems.append(f"exit status {status}")
    if os.path.exists(os.path.join(out_dir, "error.json")):
        problems.append("error.json written")
    if not os.path.isfile(os.path.join(out_dir, "meta.json")):
        problems.append("meta.json missing")
    header = (CSV_HEADER + "\n").encode()
    for name, data in snapshot(out_dir, names).items():
        if data is None:
            problems.append(f"{name} missing")
        elif not data.startswith(header):
            problems.append(f"{name} lacks the trace header")
    return problems


def rerun_problems(first, second):
    """Traces that differ between two runs of one config."""
    return [f"{name} differs between runs" for name in first
            if first[name] != second.get(name)]


def rate_bound_problems(out_dir):
    """Logged k >= 10 whose ergodic gap exceeds C0/k + ref_tol."""
    with open(os.path.join(out_dir, "meta.json")) as fh:
        resolved = json.load(fh)["resolved"]
    c0, tol = resolved["rate_constant"], resolved["ref_tol"]
    bad = [r.k for r in read_trace(os.path.join(out_dir, "trace.csv"))
           if r.k >= 10 and r.gap_ergodic > c0 / r.k + tol]
    if bad:
        return [f"rate bound C0/k + ref_tol broken at {len(bad)} logged k "
                f"(first {bad[0]})"]
    return []


def k_to_gap(trace_path, tol):
    """First logged k whose ergodic gap is at most ``tol``; 0 if none."""
    for r in read_trace(trace_path):
        if r.gap_ergodic <= tol:
            return r.k
    return 0
