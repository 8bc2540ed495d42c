"""Set-up probe: a fresh interpreter imports the program and builds inputs.

``run.py`` times this process from spawn to the ``generated`` line, so
the measured set-up covers interpreter start, program import and input
generation, as a user running the workload pays them.  The digest that
follows must equal the measuring process's own input digest.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``
"""

import sys

import harness


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    harness.import_program()
    from inputs import input_digest, make_inputs

    inputs = make_inputs(workload, seed)
    print("generated", flush=True)
    print(input_digest(workload, inputs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
