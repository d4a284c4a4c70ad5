"""Run one revplane CLI command with the layer tracer installed.

    python3 perfbench/cli_child.py SPANS_JSON <revplane arguments...>

The traced run of the cli workload starts this in place of
`python -m revplane.cli`: same arguments, output and exit code, and the
process's spans are written to SPANS_JSON when the command ends.
"""

import sys

from tracer import Tracer


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from revplane import cli

    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(path)


if __name__ == "__main__":
    sys.exit(main())
