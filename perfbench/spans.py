"""Span recorder for the traced benchmark run, and the traced CLI launcher.

The recorder wraps qmask's public functions from outside the package:
every qmask module attribute that is bound to one of the traced
functions (the defining module's own name and every module that imports
it) is replaced by a wrapper, and so is ``Operator.is_unitary``. Nothing
inside ``src/qmask`` changes. A span is (name, start, end, parent, op):
``parent`` indexes the enclosing span of the same process (-1 at top
level) and ``op`` is the benchmark operation that caused it. Spans stay
in memory and are written out when the traced process ends.

Run as a script, this file is the traced stand-in for ``python -m qmask``:

    python3 perfbench/spans.py SPANS_OUT OP_ID SPAWN_T -- mask-prob in.json ...

It records ``cli.startup`` from SPAWN_T (the parent's ``time.perf_counter``
just before it started the process; on Linux that clock is system-wide
monotonic, so both processes read the same clock) to the moment
``qmask.cli`` has been imported, installs the wrappers, runs
``qmask.cli.main`` inside a span named after the subcommand, writes the
spans to SPANS_OUT as JSON and exits with main's return code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of a traced public function
TRACED_FUNCTIONS = {
    "optimizer.maximize_general": ("qmask.optimizer", "maximize_general"),
    "optimizer.feasible": ("qmask.optimizer", "feasible"),
    "masker.build_probabilistic": ("qmask.masker", "build_probabilistic"),
    "masker.build_deterministic": ("qmask.masker", "build_deterministic"),
    "masker.verify_masking": ("qmask.masker", "verify_masking"),
    "masker.simulate": ("qmask.masker", "simulate"),
    "masker.failure_branches": ("qmask.masker", "failure_branches"),
    "hilbert.unitary_completion": ("qmask.hilbert", "unitary_completion"),
    "hilbert.psd_check": ("qmask.hilbert", "psd_check"),
    "hilbert.hermitian_sqrt": ("qmask.hilbert", "hermitian_sqrt"),
    "hilbert.partial_trace": ("qmask.hilbert", "partial_trace"),
    "fixed_reducing.from_states": ("qmask.fixed_reducing", "from_states"),
    "fileio.save_masker": ("qmask.fileio", "save_masker"),
    "fileio.load_masker": ("qmask.fileio", "load_masker"),
    "fileio.load_state_set": ("qmask.fileio", "load_state_set"),
}
IS_UNITARY_SPAN = "hilbert.is_unitary"
STARTUP_SPAN = "cli.startup"


class Recorder:
    """In-memory span list plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op])

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, self.op]

        return traced

    def install(self, op: int) -> None:
        """Wrap every traced function wherever a qmask module binds it."""
        self.op = op
        if self._undo:
            return
        importlib.import_module("qmask.cli")
        wrappers = {}
        for span_name, (module_name, attribute) in TRACED_FUNCTIONS.items():
            # a later qmask may drop or rename a function; its metric then reads 0
            original = getattr(sys.modules[module_name], attribute, None)
            if original is not None:
                wrappers[id(original)] = (original, self.wrap(span_name, original))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "qmask" or module_name.startswith("qmask.")):
                continue
            for attribute, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attribute, entry[1])
                    self._undo.append((module, attribute, value))
        operator = sys.modules["qmask.hilbert"].Operator
        original = operator.__dict__.get("is_unitary")
        if original is not None:
            operator.is_unitary = self.wrap(IS_UNITARY_SPAN, original)
            self._undo.append((operator, "is_unitary", original))

    def uninstall(self) -> None:
        for owner, attribute, value in reversed(self._undo):
            setattr(owner, attribute, value)
        self._undo.clear()

    def add_process_spans(self, spans: list[list]) -> None:
        """Append spans recorded by another process, re-basing parent indices."""
        offset = len(self.spans)
        for name, start, end, parent, op in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1, op])


def self_times(spans: list[list]) -> dict[tuple[int, str], float]:
    """Self time per (op, span name): duration minus the time direct children cover."""
    child_time = defaultdict(float)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[tuple[int, str], float] = defaultdict(float)
    for index, (name, start, end, parent, op) in enumerate(spans):
        totals[(op, name)] += (end - start) - child_time[index]
    return totals


def call_counts(spans: list[list], ops: set[int]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for name, _, _, _, op in spans:
        if op in ops:
            counts[name] += 1
    return counts


def launch(argv: list[str]) -> int:
    spans_out, op, spawn_t, cli_args = argv[0], int(argv[1]), float(argv[2]), argv[4:]
    recorder = Recorder()
    recorder.op = op
    cli = importlib.import_module("qmask.cli")
    recorder.span(STARTUP_SPAN, spawn_t, time.perf_counter())
    recorder.install(op)
    command = "cli." + (cli_args[0].replace("-", "_") if cli_args else "none")
    main = recorder.wrap(command, cli.main)
    code = 1
    try:
        code = main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.uninstall()
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump([s for s in recorder.spans if s is not None], handle)
    return code


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
