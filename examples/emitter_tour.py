"""One compiled circuit, every quantum programming framework.

The paper's thesis (Sec. I) is that a single design-automation flow
retargets reversible logic onto many frameworks.  This tour compiles
the paper's running permutation oracle once and renders it in every
``repro.emit`` format — OpenQASM 2.0/3.0, Q# and ProjectQ — then
closes the loop by re-importing the OpenQASM 2.0 text (emit -> parse
-> emit is a fixed point) and the Q# text (the same gates).

Run:  python examples/emitter_tour.py
"""

import repro
from repro import emit


def preview(title, text, lines=6):
    print(f"--- {title} " + "-" * max(0, 58 - len(title)))
    for line in text.splitlines()[:lines]:
        print("  " + line)
    total = len(text.splitlines())
    if total > lines:
        print(f"  ... ({total - lines} more lines)")
    print()


def main():
    pi = [0, 2, 3, 5, 7, 1, 4, 6]  # the paper's Fig. 7 permutation
    result = repro.compile(pi, target="ibm_qe5")
    print("compiled:", result.summary(), "\n")

    print("formats:", ", ".join(emit.formats()), "\n")
    for name in emit.formats():
        emitter = emit.get(name)
        preview(
            f"{name} ({emitter.file_extension}): {emitter.description}",
            result.emit(name),
        )

    # round trip: the emitted QASM re-enters the toolflow unchanged
    text = result.emit("qasm2")
    reimported = emit.parse(text, "qasm2")
    assert emit.emit(reimported, "qasm2") == text
    assert reimported.gates == result.circuit.gates
    print("qasm2 emit -> parse -> emit: fixed point "
          f"({len(reimported.gates)} gates round-tripped)\n")

    # the Q# text re-imports too (its signature carries no width)
    parsed = emit.parse(
        result.emit("qsharp"), "qsharp",
        num_qubits=result.circuit.num_qubits,
    )
    assert parsed.gates == reimported.gates
    print("qsharp emit -> parse: the same "
          f"{len(parsed.gates)} gates as the qasm2 re-import")

if __name__ == "__main__":
    main()
