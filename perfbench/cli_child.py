"""Run one rtlab CLI command with spans around rtlab's public functions.

    python perfbench/cli_child.py SPANS.json construct --type full ...

Used by the traced rounds of the `cli` workload in place of
`python -m rtlab.cli`: times `import rtlab.cli` as span `cli.import`, the
command as span `cli.<subcommand>`, writes the spans to SPANS.json and
exits with the command's exit code.
"""

import json
import sys

import tracer


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    with tr.span("cli.import"):
        import rtlab.cli
    tr.install()
    try:
        with tr.span(f"cli.{argv[0]}"):
            code = rtlab.cli.main(argv)
    finally:
        tr.uninstall()
        with open(out, "w") as fh:
            json.dump(tr.take(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
