"""One powdom process of the benchmark, started from the checkout root.

    python3 perfbench/bench_child.py probe DEFS...
        import powdom and load the definition files (the set-up probe)
    python3 perfbench/bench_child.py run [--trace SUMMARY SPANS JOB] -- ARGS...
        run ``powdom.cli.main(ARGS)`` once; with --trace, wrap the layers
        first and write the trace summary and spans afterwards

The exit code is the command's own.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "probe":
        from powdom.defs import load_workspace

        load_workspace(rest)
        return 0
    if mode != "run":
        raise SystemExit(f"unknown mode {mode!r}")
    trace = None
    if rest[0] == "--trace":
        trace, rest = rest[1:4], rest[4:]
    if rest[0] != "--":
        raise SystemExit("expected -- before the powdom arguments")
    args = rest[1:]
    import powdom.cli

    if trace is None:
        return powdom.cli.main(args)

    from bench_trace import Tracer

    summary_path, spans_path, job = trace
    tracer = Tracer()
    tracer.job = job
    tracer.install()
    code = powdom.cli.main(args)
    tracer.uninstall()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
