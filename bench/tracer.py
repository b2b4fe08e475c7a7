"""Spans around the public calls of each orliczseq module, for the traced run.

The tracer rebinds every module-level name that refers to a traced function
(``luxemburg``, ``embeddings`` and ``cli`` import ``mu``, ``modular`` and
``luxemburg_norm`` by name, so patching only the defining module would miss
their calls) and every class attribute that defines ``eval``, ``__call__`` or
``inverse`` on an ``OrliczFunction`` class.  Leaving the ``with`` block
restores the original objects.

Each span records a name, start, end and parent span; spans stay in memory
in flat arrays and are reduced to per-layer metrics by :meth:`Tracer.metrics`.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import orliczseq
from orliczseq import cli, embeddings, functions, luxemburg, spaces
from orliczseq.errors import ComputationOverflowError

MODULES = (orliczseq, functions, spaces, luxemburg, embeddings, cli)

# span name -> (defining module, attribute); errors.py holds only types
FUNCTIONS = {
    "functions.theta_bound": (functions, "theta_bound"),
    "functions.delta2_at_zero": (functions, "delta2_at_zero"),
    "spaces.mu": (spaces, "mu"),
    "spaces.modular": (spaces, "modular"),
    "spaces.classify": (spaces, "classify"),
    "luxemburg.norm": (luxemburg, "luxemburg_norm"),
    "luxemburg.schauder_curve": (luxemburg, "schauder_curve"),
    "embeddings.sample_ball": (embeddings, "sample_ball"),
    "embeddings.covering_check": (embeddings, "covering_check"),
    "embeddings.uniform_tail_index": (embeddings, "uniform_tail_index"),
    "embeddings.check_domination": (embeddings, "check_domination"),
    "cli.run": (cli, "run"),
}
SPAN_NAMES = ("functions.eval.scalar", "functions.eval.array", "functions.inverse",
              *FUNCTIONS)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
EVAL_SCALAR, EVAL_ARRAY, INVERSE = 0, 1, 2
NORM, UTI = _ID["luxemburg.norm"], _ID["embeddings.uniform_tail_index"]
# ancestor flags: a span is "inside" an inverse, a norm solve or a tail search
_IN_INVERSE, _IN_NORM, _IN_UTI = 1, 2, 4
_FLAG_OF = {INVERSE: _IN_INVERSE, NORM: _IN_NORM, UTI: _IN_UTI}


def orlicz_classes():
    """OrliczFunction and every subclass that functions.py defines."""
    seen = [functions.OrliczFunction]
    for obj in vars(functions).values():
        if (isinstance(obj, type) and issubclass(obj, functions.OrliczFunction)
                and obj not in seen):
            seen.append(obj)
    return seen


class Tracer:
    """Context manager recording spans for one pass of a workload."""

    def __init__(self):
        self.name = array("b")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.x1 = array("q")  # elems / terms / overflow flag, per span kind
        self.x2 = array("q")  # bisections of a norm solve
        self._stack = [-1]
        self._patches = []

    # -- recording -------------------------------------------------------
    def _open(self, kind: int) -> int:
        i = len(self.name)
        self.name.append(kind)
        self.parent.append(self._stack[-1])
        self.x1.append(0)
        self.x2.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap_eval(self, fn):
        def eval_traced(obj, t):
            if isinstance(t, np.ndarray):
                i = self._open(EVAL_ARRAY)
                self.x1[i] = t.size
            else:
                i = self._open(EVAL_SCALAR)
            try:
                return fn(obj, t)
            finally:
                self._close(i)
        return eval_traced

    def _wrap_function(self, kind: int, fn):
        def traced(*args, **kwargs):
            i = self._open(kind)
            try:
                out = fn(*args, **kwargs)
            except ComputationOverflowError:
                if kind == _ID["spaces.mu"]:
                    self.x1[i] = 1
                raise
            finally:
                self._close(i)
            if kind == NORM:
                self.x1[i] = len(args[1])
                self.x2[i] = out.iterations
            elif kind == _ID["spaces.modular"]:
                self.x1[i] = len(args[1])
            return out
        return traced

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        for cls in orlicz_classes():
            own = vars(cls)
            if "eval" in own:
                self._set(cls, "eval", self._wrap_eval(own["eval"]))
            if "__call__" in own:
                self._set(cls, "__call__", self._wrap_eval(own["__call__"]))
            if "inverse" in own:
                self._set(cls, "inverse", self._wrap_function(INVERSE, own["inverse"]))
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(mod, attr)
            wrapped = self._wrap_function(_ID[name], original)
            for m in MODULES:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- reduction -------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer counts and self times of the recorded spans."""
        n_kinds = len(SPAN_NAMES)
        name, parent = self.name, self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        flags = bytearray(len(dur))
        calls = [0] * n_kinds
        self_s = [0.0] * n_kinds
        x1 = [0] * n_kinds
        x2 = [0] * n_kinds
        evals_in_inverse = array_evals_in_norm = scalar_evals_in_uti = 0
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
                flags[i] = flags[p] | _FLAG_OF.get(name[p], 0)
        for i, k in enumerate(name):
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            x1[k] += self.x1[i]
            x2[k] += self.x2[i]
            if k <= EVAL_ARRAY:
                f = flags[i]
                if f & _IN_INVERSE:
                    evals_in_inverse += 1
                if k == EVAL_ARRAY and f & _IN_NORM:
                    array_evals_in_norm += 1
                if k == EVAL_SCALAR and f & _IN_UTI:
                    scalar_evals_in_uti += 1

        out = {}
        for k, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = calls[k]
            out[f"{span}.self_s"] = self_s[k]
        mu_k, mod_k = _ID["spaces.mu"], _ID["spaces.modular"]
        out["functions.eval.array.elems"] = x1[EVAL_ARRAY]
        out["functions.inverse.evals_per_call"] = _ratio(evals_in_inverse, calls[INVERSE])
        out["spaces.mu.overflow_ratio"] = _ratio(x1[mu_k], calls[mu_k])
        out["spaces.modular.terms"] = x1[mod_k]
        out["luxemburg.norm.terms"] = x1[NORM]
        out["luxemburg.norm.bisections"] = x2[NORM]
        out["luxemburg.norm.evals_per_solve"] = _ratio(array_evals_in_norm, calls[NORM])
        out["embeddings.uniform_tail_index.steps"] = scalar_evals_in_uti
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
