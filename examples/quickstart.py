"""Quickstart: protect a program with FERRUM and watch it catch a fault.

Run with::

    python examples/quickstart.py

Walks the full pipeline: mini-C source -> IR -> x86-64 assembly -> FERRUM
protection, then executes both binaries on the machine simulator, injects
one transient bit-flip into each, and shows the difference: the raw binary
silently corrupts its output, the protected one traps to the detector.
"""

from repro.asm.printer import format_program
from repro.backend import compile_module
from repro.core.ferrum import protect_program
from repro.errors import DetectionExit
from repro.faultinjection.injector import FaultPlan, inject_asm_fault
from repro.faultinjection.outcome import Outcome
from repro.machine.cpu import Machine
from repro.minic import compile_to_ir

SOURCE = """
int main() {
    int acc = 0;
    for (int i = 1; i <= 10; i++) { acc += i * i; }
    print_int(acc);
    return 0;
}
"""


def main() -> None:
    print("=== 1. compile ===")
    module = compile_to_ir(SOURCE)
    raw = compile_module(module)
    print(f"raw program: {raw.static_size()} static instructions")

    print("\n=== 2. protect with FERRUM ===")
    protected, stats = protect_program(raw)
    print(f"protected program: {protected.static_size()} instructions")
    print(f"  SIMD-batched   : {stats.simd_protected}")
    print(f"  scalar (Fig. 4): {stats.general_protected}")
    print(f"  compares (Fig.5): {stats.compare_branches}")
    print(f"  SIMD flushes   : {stats.simd_flushes}")

    print("\n=== 3. first protected basic block ===")
    text = format_program(protected)
    print("\n".join(text.splitlines()[:26]))

    print("\n=== 4. fault-free runs agree ===")
    golden_raw = Machine(raw).run()
    golden_prot = Machine(protected).run()
    print(f"raw output      : {golden_raw.output}")
    print(f"protected output: {golden_prot.output}")
    assert golden_raw.output == golden_prot.output

    print("\n=== 5. inject the same class of fault into both ===")
    # Sweep sites until the raw binary shows an SDC, then hit the
    # corresponding computation in the protected binary.
    for site in range(golden_raw.fault_sites):
        plan = FaultPlan(site_index=site, register_pick=0.0, bit_pick=0.4)
        if inject_asm_fault(raw, plan, golden_raw).outcome is Outcome.SDC:
            print(f"raw binary, fault at site {site}: SILENT DATA CORRUPTION")
            break

    detected = 0
    for site in range(golden_prot.fault_sites):
        plan = FaultPlan(site_index=site, register_pick=0.0, bit_pick=0.4)
        outcome = inject_asm_fault(protected, plan, golden_prot).outcome
        assert outcome is not Outcome.SDC, "FERRUM must not leak SDCs"
        if outcome is Outcome.DETECTED:
            detected += 1
    print(f"protected binary: 0 SDCs over {golden_prot.fault_sites} sites "
          f"({detected} detections)")


if __name__ == "__main__":
    main()
