"""Simulation engines: one table of every backend.

The simulator-side mirror of :mod:`repro.emit`: every simulation
backend is an :class:`~.base.Engine` behind one fixed table, so
``Target.engine``, ``CompilationResult.simulate``, ``python -m repro
engines`` / ``compile --engine``, and the RevKit shell's ``sim_*``
commands all resolve backends the same way.

Built-in engines (``engines()`` order):

* ``statevector`` — pure states on the fused bit-sliced kernels
  (aliases ``sv``, ``pure``);
* ``stabilizer`` — Aaronson-Gottesman tableaus, Clifford only
  (aliases ``chp``, ``tableau``);
* ``density_matrix`` — exact open-system evolution with
  Pauli-transfer-matrix noise channels (aliases ``dm``, ``rho``);
* ``monte_carlo`` — per-shot noisy trajectories, the Fig. 6 device
  substitute (aliases ``mc``, ``noisy``).

The set is closed.  Noise is described by one shared
:class:`~.noise.NoiseModel` (:data:`~.noise.QE5_NOISE` is the paper's
IBM QE5 calibration) consumed by both noisy tiers.
"""

from .base import Engine, EngineCapabilities, EngineError
from .density_matrix import DensityMatrix, DensityMatrixResult
from .noise import NOISE_PRESETS, NoiseModel, QE5_NOISE, as_noise_model
from .registry import describe_engines, engines, get, run

__all__ = [
    "Engine",
    "EngineCapabilities",
    "EngineError",
    "NOISE_PRESETS",
    "NoiseModel",
    "QE5_NOISE",
    "as_noise_model",
    "describe_engines",
    "engines",
    "get",
    "run",
    "DensityMatrix",
    "DensityMatrixResult",
]

