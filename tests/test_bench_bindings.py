"""The names that the benchmark's tracer rebinds must exist in the library.

``bench/tracer.py`` wraps library functions by name and the ``eval``,
``__call__`` and ``inverse`` attributes of ``OrliczFunction``.  A refactor
that renames or removes one of them would break the traced benchmark run
without failing any library test; this test reads the tracer's table and
checks every entry.  It imports the tracer module from its file and changes
nothing under ``bench/``.
"""

import inspect
import types
from pathlib import Path

from orliczseq import OrliczFunction

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    # compiled from its text, so no bytecode cache is written next to it
    module = types.ModuleType("_bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    assert tracer.FUNCTIONS
    for span, (module, attr) in tracer.FUNCTIONS.items():
        assert callable(getattr(module, attr, None)), span
    for attr in ("eval", "__call__", "inverse"):
        assert attr in vars(OrliczFunction), attr


def test_traced_signatures_keep_the_arguments_the_tracer_reads():
    # the tracer reads len(args[1]) of modular and luxemburg_norm calls, and
    # .iterations of a norm result
    tracer = _tracer()
    for span in ("spaces.modular", "luxemburg.norm"):
        module, attr = tracer.FUNCTIONS[span]
        params = list(inspect.signature(getattr(module, attr)).parameters)
        assert params[:2] == ["params", "p"], span
    assert list(inspect.signature(tracer.spaces.mu).parameters) == ["params", "m"]
    assert "iterations" in tracer.luxemburg.NormResult.__dataclass_fields__
