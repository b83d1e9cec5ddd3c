"""Run one CLI op per argv read from stdin, in this fresh interpreter.

``run.py`` reads this process's peak resident set size when it exits.
Prints the list of exit codes as JSON.
"""

import contextlib
import io
import json
import sys

from losstree import cli

codes = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps(codes))
