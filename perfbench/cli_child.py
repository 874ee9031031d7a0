"""One logfano command-line call under the benchmark's tracer.

Used by traced runs of the cli workload, from the root of the repository:

    PYTHONPATH=src python3 -X importtime perfbench/cli_child.py delta --case A2 --degree 4 --lambda 1/2

The command's output and exit code are those of ``python -m logfano.cli``.
The last line of standard error is ``PERFBENCH <json>`` with the time to
import ``logfano.cli``, the time of the command, and the recorded spans.
"""

import sys
import time

start = time.perf_counter()
import logfano.cli  # noqa: E402  (this import is what import_ms measures)

imported = time.perf_counter()

import json  # noqa: E402

from tracer import Tracer  # noqa: E402

tr = Tracer()
tr.install()
try:
    code = logfano.cli.main(sys.argv[1:])
finally:
    tr.restore()
done = time.perf_counter()
sys.stdout.flush()
report = {"import_ms": 1000 * (imported - start), "command_ms": 1000 * (done - imported), **tr.export()}
print("PERFBENCH " + json.dumps(report), file=sys.stderr)
sys.exit(code)
