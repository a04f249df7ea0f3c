"""cli-mix: the cli-cold command mix through ``spintangle.cli.main``, in-process.

Op: one ``cli.main(argv)`` call in this interpreter, with the same seeded
rounds of seven commands, the same kind of output files and the same
checks as ``cli-cold``; stdout and stderr are captured.  The set-up imports
``spintangle.cli``, so interpreter start and imports show up in setup_s and
argument parsing, ``datasets`` parsing, the CLI's thread pools and its
table/CSV/JSON emitters in the ops.  A cold ``python -m spintangle.cli``
run costs about setup_s plus one op.

``cli-cold`` times the same commands in fresh processes, but the start of
a process on a shared virtual machine varies more from one run to the next
than the reference loop can correct (see README.md), so this workload
is the one ``BENCHMARK.json`` gates.
"""
from __future__ import annotations

import contextlib
import io

import spintangle.cli as cli

import wl_cli_cold
from common import InProcess


class Workload(wl_cli_cold.Workload):
    # Without interpreter start the seven ops of a round cost, at reference
    # speed, about 1 ms (reject, resonances), 20 ms (sweep), 80 ms (16x16
    # grid) and 170 ms (design and the two single-point qec, each a
    # designer search).  So op_p50_ms is the median grid op and op_tail_ms
    # falls among the designer searches, not on a step between two kinds.
    # A 50x50 grid would cost 4x a search and be alone in the top ten.
    grid = 16
    rss_scope = InProcess.rss_scope
    trace_to = InProcess.trace_to
    span_sets = InProcess.span_sets

    def run(self, op):
        _, argv, _, _ = op
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        return rc, err.getvalue()[-300:]
