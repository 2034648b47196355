"""The RevKit command shell — the Eq. (5) synthesis script.

Runs the paper's command pipeline

    revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c

plus a comparison of the available synthesis commands on the same
function, both via the shell syntax and the Python API
(``shell.revgen(hwb=4)``).

The shell dispatches every command through the pass manager
(``repro.pipeline``), so the session also prints the per-pass
timing/delta report and compiles the same flow through its target,
``repro.compile({"hwb": 4}, target="clifford_t")``.

Run:  python examples/revkit_shell.py
"""

import repro
from repro.revkit import RevKitShell


def main():
    print("$ revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c")
    shell = RevKitShell()
    for command, output in zip(
        "revgen tbs revsimp rptm tpar ps".split(),
        shell.run("revgen --hwb 4; tbs; revsimp; rptm; tpar; ps -c"),
    ):
        print(f"[{command}] {output}")

    print("\nper-pass report (shell.report()):")
    for line in shell.report().splitlines():
        print("  " + line)

    print("\nsame flow through its target (target='clifford_t'):")
    result = repro.compile({"hwb": 4}, target="clifford_t", cache=None)
    for line in result.report().splitlines():
        print("  " + line)
    assert result.circuit.gates == shell.quantum.gates
    print(f"  -> identical to the shell run, gate for gate "
          f"({len(result.circuit)} gates)")

    print("\nother specifications through the same target:")
    for options in ({"hwb": 4}, {"gray": 4}, {"adder": 4, "const": 3}):
        res = repro.compile(options, target="clifford_t")
        tpar = res.record("tpar")
        label = ",".join(f"{k}={v}" for k, v in options.items())
        print(f"  {label:<20} MCT={len(res.reversible):2d}  "
              f"T {tpar.before['t_count']:3d} -> {tpar.after['t_count']:3d}")

    print("\nsynthesis command comparison on hwb4 (python API):")
    for label, build in (
        ("tbs", lambda s: s.tbs()),
        ("tbs --bidirectional", lambda s: s.tbs(bidirectional=True)),
        ("dbs", lambda s: s.dbs()),
    ):
        shell = RevKitShell()
        shell.revgen(hwb=4)
        output = build(shell)
        check = shell.simulate()
        print(f"  {label:<22} {output:<12} ({check})")

    print("\nexporting the mapped circuit as OpenQASM:")
    shell = RevKitShell()
    shell.run("revgen --hwb 3; tbs; revsimp; rptm")
    qasm = shell.quantum.to_qasm()
    head = "\n".join("    " + line for line in qasm.splitlines()[:8])
    print(head)
    print(f"    ... ({len(qasm.splitlines())} lines total)")


if __name__ == "__main__":
    main()
