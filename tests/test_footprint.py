"""What a serial run loads.

The process pool and the report clock are imported where they are used: the
parallel branch of run_experiment and build_report. A serial honest, forge or
collision run in a fresh interpreter therefore loads neither, nor the logging
and traceback machinery concurrent.futures pulls in with it.
"""

import subprocess
import sys
from pathlib import Path

import saslab

SRC = str(Path(saslab.__file__).resolve().parent.parent)
UNUSED_BY_A_SERIAL_RUN = ("concurrent.futures", "logging", "datetime")

SERIAL_RUNS = f"""
import sys
sys.path.insert(0, {SRC!r})
before = set(sys.modules)
import saslab
from saslab.harness import ExperimentConfig, run_experiment
for config in (
    ExperimentConfig(protocol="kex3", n_e=8, trials=2, seed=7),
    ExperimentConfig(protocol="kem4", strategy="random-forge", n_e=8, trials=2, seed=7),
    ExperimentConfig(protocol="kex2", strategy="kex2-collision", n_e=8, trials=2, seed=7),
):
    run_experiment(config)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_a_serial_run_loads_no_pool_and_no_clock():
    # -S: no site module, so nothing but saslab and the runs adds to sys.modules
    out = subprocess.run(
        [sys.executable, "-S", "-c", SERIAL_RUNS], capture_output=True, text=True, check=True,
    ).stdout
    added = set(out.split())
    assert "saslab.harness" in added
    assert not added & set(UNUSED_BY_A_SERIAL_RUN)
