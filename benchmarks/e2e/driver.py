"""Run ``netsampling`` with the benchmark's tracer installed.

    python benchmarks/e2e/driver.py --spans OUT.jsonl -- solve --theta 1e5

The traced CLI and daemon workloads start this script in place of
``python -m repro``.  It imports the modules the command will run,
wraps the functions listed in :data:`layers.TARGETS`, calls
:func:`repro.cli.main` with the remaining arguments, writes the spans
as JSONL when ``main`` returns, and exits with its status.
"""

from __future__ import annotations

import argparse
import importlib
import sys

import layers
import tracer

#: Modules ``netsampling`` imports lazily, per subcommand; the tracer
#: only wraps what is already imported.
_LAZY_MODULES = {
    "serve": ("repro.serve", "repro.serve.server"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, metavar="OUT.jsonl")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import repro.cli

    for module in _LAZY_MODULES.get(command[0] if command else "", ()):
        importlib.import_module(module)
    recorder = tracer.Recorder().install(layers.TARGETS)
    try:
        return repro.cli.main(command)
    finally:
        recorder.write_jsonl(args.spans)


if __name__ == "__main__":
    sys.exit(main())
