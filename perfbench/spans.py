"""In-memory span tracer that wraps `lident` functions from outside the package.

A span records name, start, end, parent span and run id. Spans stay in a
list while the run lasts and are written out as JSON lines when it ends.
Counts are kept at the same boundaries: every wrapped call adds one to its
own name and one to the pair (open span name, own name) for each distinct
span open around it, so ratios such as "log_prob calls per classify" come
from where the work happens.

Each function is wrapped at every name a caller looks it up by. A
`from .corpus import read_tsv` in `lident.cli` binds its own name, so the
tracer replaces the attribute in every `lident` module that holds the same
function object, not only in the defining module.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter

MODULES = ("corpus", "serialization", "ngram", "autodiff", "clstm", "metrics", "cli")

# Fine-grained calls made hundreds of times per text or instance: counted, not timed.
COUNT_ONLY = {
    "ngram.log_prob",
    "clstm.encode",
    "autodiff.add", "autodiff.mul", "autodiff.scale", "autodiff.vsum", "autodiff.sum_tensors",
    "autodiff.relu", "autodiff.sigmoid", "autodiff.tanh", "autodiff.dropout",
    "autodiff.concat", "autodiff.slice1d", "autodiff.row", "autodiff.stack_rows",
}


def _chars(corpus) -> int:
    return sum(len(inst.text) for inst in corpus)


def _work(name: str, args: tuple) -> object:
    """The size of one call's input, or a tag, recorded on its span."""
    if name == "ngram.train":
        return _chars(args[0])
    if name == "corpus.indices":
        return len(args[1])
    if name in ("clstm.loss_and_grads", "clstm.forward"):
        return len(args[2].targets)
    if name == "clstm.encode_batch":
        return len(args[0])
    if name == "clstm.predict":
        return len(args[1])
    if name == "autodiff.conv1d":
        kernels = args[1]
        return f"{kernels.data.shape[1]}x{kernels.data.shape[2]}"
    return None


# (module, class, method) wrapped as methods, with the span name they get.
METHODS = (
    ("corpus", "Charset", "indices", "corpus.indices"),
    ("ngram", "NgramModel", "classify", "ngram.classify"),
    ("ngram", "NgramModel", "log_prob", "ngram.log_prob"),
    ("ngram", "NgramModel", "save", "ngram.save"),
    ("autodiff", "Tape", "backward", "autodiff.tape_backward"),
)


class Tracer:
    """Span list, open-span stack and counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, run id, work]
        self._stack: list[int] = []
        self._open: list[str] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _count(self, name: str) -> None:
        counts = self.counts
        counts[name] += 1
        for outer in set(self._open):
            counts[(outer, name)] += 1

    @contextlib.contextmanager
    def region(self, name: str, work: object = None):
        """A span around the code in its `with` block."""
        self._count(name)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, work]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._open.append(name)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self._open.pop()

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with self.region(name, _work(name, args)):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapped

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)

        return wrapped

    # --- installing wrappers ---------------------------------------------

    def _wrap(self, name: str, fn, on_result: dict):
        if name in COUNT_ONLY:
            return self.counter(name, fn)
        return self.span(name, fn, on_result.get(name))

    def install(self, on_result: dict | None = None) -> None:
        """Wrap every public function of each `lident` module, and METHODS.

        `on_result` maps a span name to a callback that sees each return value
        after the span has closed.
        """
        on_result = on_result or {}
        modules = {short: importlib.import_module(f"lident.{short}") for short in MODULES}
        wrapped: dict[int, object] = {}
        for short, module in modules.items():
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[id(fn)] = self._wrap(f"{short}.{attr}", fn, on_result)
        # Rebind each original function at every module-level name that holds it.
        for module in (importlib.import_module("lident"), *modules.values()):
            for attr, value in list(vars(module).items()):
                replacement = wrapped.get(id(value))
                if replacement is not None:
                    self._patch(module, attr, replacement)
        for short, cls_name, method, name in METHODS:
            cls = getattr(modules[short], cls_name)
            self._patch(cls, method, self._wrap(name, getattr(cls, method), on_result))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- reading spans ---------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "run": run_id, "work": work}) + "\n")
            fh.write(json.dumps({"counts": {(k if isinstance(k, str) else " > ".join(k)): v
                                            for k, v in self.counts.items()}}) + "\n")
