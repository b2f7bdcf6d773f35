"""Set-up time of one workload in a fresh interpreter.

Times, from before the first ``sbpd`` import: importing ``sbpd.cli`` (which
imports the whole package), building the problem from the workload's config,
``saddle_problem()``, the coupling norm (``operator_norm``) and
``default_schedule()``. Then times the calibration kernel, whose ``scale``
takes the set-up time to the reference host speed. Usage:
``setup_probe.py '<config json>' <kernel kind>``. Prints one JSON line.
"""

import json
import sys
import time

t0 = time.perf_counter()
import sbpd.cli  # noqa: E402  (the import is what is timed)
from sbpd.experiment import ExperimentConfig  # noqa: E402

t1 = time.perf_counter()
problem = ExperimentConfig(**json.loads(sys.argv[1])).build_problem()
t2 = time.perf_counter()
problem.saddle_problem()
t3 = time.perf_counter()
norm = problem.coupling_norm
t4 = time.perf_counter()
problem.default_schedule()
t5 = time.perf_counter()

import calibration  # noqa: E402  (after the timed part: it imports numpy)

kind = sys.argv[2]
calibration.kernel_us(kind)  # warm-up
kernel = [calibration.kernel_us(kind) for _ in range(2)]

print(json.dumps({
    "setup_s": t5 - t0,
    "cli.import_s": t1 - t0,
    "problems.build_s": t2 - t1,
    "problems.saddle_problem_s": t3 - t2,
    "linalg.operator_norm_s": t4 - t3,
    "coupling_norm": norm,
    "kernel_us": kernel,
    "scale": calibration.scale(kind, kernel),
    "sbpd_file": sbpd.__file__,
}))
