"""The shared noise model — one home for the IBM QE5 error rates.

The paper runs the 4-qubit hidden-shift circuit on the IBM QE chip
(Fig. 6): 3 runs x 1024 shots, recovering the correct shift with
average probability ~0.63.  :class:`NoiseModel` is the device
description both noisy tiers consume:

* the exact ``density_matrix`` engine applies the corresponding
  Pauli-transfer-matrix channels (:mod:`repro.engines.ptm`) after
  every gate and a readout-assignment matrix at measurement;
* the ``monte_carlo`` engine (:mod:`repro.engines.monte_carlo`)
  draws random Paulis and readout flips at the same rates.

Default error rates follow published calibration data of the 2017/2018
IBM QE 5-qubit devices (1q ~1.5e-3, 2q ~3.5e-2, readout ~4e-2),
exposed as the :data:`QE5_NOISE` preset.  The depolarizing convention
is the ``monte_carlo`` engine's: with probability ``p`` a uniformly
random non-identity Pauli hits each touched qubit, so both tiers agree
channel-for-channel (``density_matrix`` is the trajectory average of
``monte_carlo``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..core.gates import Gate


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate-class error rates plus open-system damping channels.

    The first four fields are the Pauli/readout rates both noisy
    engines use (positional order ``p1, p2, p_meas, p_multi``); the
    damping rates exist only for the density-matrix tier and default
    to zero.

    Attributes:
        p1: single-qubit gate depolarizing probability.
        p2: two-qubit gate depolarizing probability (per qubit).
        p_meas: readout bit-flip probability.
        p_multi: >2-qubit gate depolarizing probability (per qubit).
        amplitude_damping: per-gate T1 relaxation rate ``gamma``
            applied to each touched qubit (exact tier only — the
            Monte-Carlo sampler has no non-unital channel).
        phase_damping: per-gate T2 dephasing rate ``lambda`` applied
            to each touched qubit (exact tier only).
    """

    p1: float = 0.0015
    p2: float = 0.035
    p_meas: float = 0.04
    p_multi: float = 0.06
    amplitude_damping: float = 0.0
    phase_damping: float = 0.0

    def __post_init__(self) -> None:
        """Validate every rate is a probability in [0, 1]."""
        for name in (
            "p1", "p2", "p_meas", "p_multi",
            "amplitude_damping", "phase_damping",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"noise rate {name}={value!r} is not in [0, 1]"
                )

    def gate_error(self, gate: Gate) -> float:
        """Return the depolarizing rate of ``gate``'s class.

        Args:
            gate: the gate whose error class to look up.

        Returns:
            ``p1``/``p2``/``p_multi`` by the gate's qubit count.
        """
        if gate.num_qubits == 1:
            return self.p1
        if gate.num_qubits == 2:
            return self.p2
        return self.p_multi

    @property
    def is_noiseless(self) -> bool:
        """Whether every rate is exactly zero."""
        return not any(
            (
                self.p1, self.p2, self.p_meas, self.p_multi,
                self.amplitude_damping, self.phase_damping,
            )
        )

    @property
    def trajectory_safe(self) -> bool:
        """Whether Pauli/readout trajectory sampling is exact for us.

        Damping channels are not mixtures of unitaries, so they cannot
        be sampled as statevector trajectories and need the exact
        ``density_matrix`` tier; everything else (depolarizing +
        readout flips) batches safely.
        """
        return not (self.amplitude_damping or self.phase_damping)

    @classmethod
    def ibm_qe_2018(cls) -> "NoiseModel":
        """Calibration representative of the early-2018 IBM QE chips."""
        return cls(p1=0.0015, p2=0.035, p_meas=0.04, p_multi=0.06)

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        """The all-zero model (every engine accepts it)."""
        return cls(p1=0.0, p2=0.0, p_meas=0.0, p_multi=0.0)


#: The 2017/2018 IBM QE 5-qubit calibration numbers, the model behind
#: the paper's Fig. 6 histogram (and the ``ibm_qe5`` target's default).
QE5_NOISE = NoiseModel.ibm_qe_2018()

#: Named noise presets accepted wherever a model can be spelled as a
#: string (CLI ``--noise``, the shell's ``sim_*`` commands).
NOISE_PRESETS = {
    "qe5": QE5_NOISE,
    "ibm_qe5": QE5_NOISE,
    "ibm_qe_2018": QE5_NOISE,
    "none": NoiseModel.noiseless(),
    "ideal": NoiseModel.noiseless(),
    "noiseless": NoiseModel.noiseless(),
}


def as_noise_model(
    spec: Union["NoiseModel", str, None]
) -> Optional["NoiseModel"]:
    """Resolve a noise argument to a :class:`NoiseModel` (or ``None``).

    Args:
        spec: ``None``, a model (returned as-is), a preset name from
            :data:`NOISE_PRESETS` (case-insensitive), or a
            ``"p1=0.001,p2=0.03"`` rate list over the model's fields.

    Returns:
        The resolved model, or ``None`` when ``spec`` is ``None``.

    Raises:
        EngineError: for unknown preset names, unknown rate fields, or
            malformed rate lists.
    """
    from .base import EngineError

    if spec is None or isinstance(spec, NoiseModel):
        return spec
    if not isinstance(spec, str):
        raise EngineError(
            f"expected a NoiseModel, a preset name or a rate list, "
            f"got {type(spec).__name__}"
        )
    key = spec.lower().strip()
    if key in NOISE_PRESETS:
        return NOISE_PRESETS[key]
    if "=" not in key:
        raise EngineError(
            f"unknown noise preset {spec!r}; presets: "
            f"{', '.join(sorted(set(NOISE_PRESETS)))} (or a "
            "'p1=0.001,p2=0.03' rate list)"
        )
    rates = {}
    valid = NoiseModel.__dataclass_fields__
    for item in key.split(","):
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in valid:
            raise EngineError(
                f"unknown noise rate {name!r}; fields: "
                f"{', '.join(valid)}"
            )
        if name in rates:
            raise EngineError(
                f"duplicate noise rate {name!r} in {spec!r}; "
                "each field may appear at most once"
            )
        try:
            rates[name] = float(value)
        except ValueError:
            raise EngineError(
                f"noise rate {name!r} needs a number, got {value!r}"
            ) from None
    try:
        return NoiseModel(**rates)
    except ValueError as exc:
        raise EngineError(str(exc)) from exc
