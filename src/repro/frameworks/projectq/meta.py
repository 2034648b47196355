"""Meta-contexts: Compute/Uncompute and Dagger.

The high-level syntactic constructs of the paper's Figs. 4 and 7:

* ``with Compute(eng): ...`` records a block; ``Uncompute(eng)``
  appends its adjoint (used for the H / X / oracle sandwich of the
  hidden shift circuits);
* ``with Dagger(eng): ...`` emits the adjoint of a block (used to
  realize pi^{-1} from a circuit for pi).
"""

from __future__ import annotations

from .engine import MainEngine


class Compute:
    """Record a block for later uncomputation."""

    def __init__(self, engine: MainEngine):
        self.engine = engine

    def __enter__(self) -> "Compute":
        self.engine.push_frame("compute")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        gates = self.engine.pop_frame("compute")
        if exc_type is None:
            self.engine.replay(gates)
            self.engine.set_last_compute(gates)


def Uncompute(engine: MainEngine) -> None:
    """Append the adjoint of the most recent Compute block."""
    gates = engine.take_last_compute()
    engine.replay([gate.dagger() for gate in reversed(gates)])


class Dagger:
    """Emit the adjoint of the recorded block."""

    def __init__(self, engine: MainEngine):
        self.engine = engine

    def __enter__(self) -> "Dagger":
        self.engine.push_frame("dagger")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        gates = self.engine.pop_frame("dagger")
        if exc_type is None:
            self.engine.replay(gate.dagger() for gate in reversed(gates))
