"""Run one command line invocation in-process with the benchmark's hooks.

    python3 perfbench/cli_child.py SPANS_JSON TASK --scenario PATH ...

Imports the package (from PYTHONPATH), wraps its public functions, calls
anisoclusters.cli.main (itself wrapped) with the remaining arguments,
writes the span table and counters to SPANS_JSON, and exits with
main's return code.
"""

import json
import sys

import spans


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = spans.Recorder()
    import anisoclusters.cli as cli

    spans.install_hooks(rec)
    code = cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "table": spans.table_to_json(rec.table()),
            "counts": dict(rec.counts),
            "installed_labels": sorted(rec.installed_labels),
            "missing": rec.missing,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
