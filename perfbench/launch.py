"""Run one superhopf subcommand the way the installed `superhopf` script does,
from the checkout's sources.

Usage: launch.py SUBCOMMAND [ARGS...]

When PERFBENCH_TRACE_OUT names a file, the tracer is installed first and its
snapshot is written there when the subcommand returns.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv):
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not trace_out:
        from superhopf.cli import main as cli_main

        return cli_main(argv)
    import tracer
    from superhopf import cli

    tr = tracer.Tracer()
    tr.install()
    code = tr.job(0, lambda: cli.main(argv))
    tr.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
