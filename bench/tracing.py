"""Call-site tracing for the benchmark's traced run.

Each traced name is looked up in the module that defines it; the wrapper
then replaces every binding of that same function object in the loaded
``dmgeo`` modules (``from .core import spectral_decompose`` makes one per
importing module) and in ``numpy.linalg``.  A name that a later version
moves or removes is reported as absent instead of failing the run.

A wrapper records a span ``(name, start, end, parent, item)`` and a call
count while the tracer is active, and passes straight through otherwise,
so the benchmark's own output checks are never counted.  Spans stay in
memory, in flat arrays that the garbage collector never scans, until
:meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

#: (span name, defining module, attribute)
TARGETS = (
    ("cli.main", "dmgeo.cli", "main"),
    ("cli.build_parser", "dmgeo.cli", "build_parser"),
    ("documents.parse_matrix_document", "dmgeo.documents", "parse_matrix_document"),
    ("documents.matrix_document", "dmgeo.documents", "matrix_document"),
    ("documents.dumps", "dmgeo.documents", "dumps"),
    ("documents.digest", "dmgeo.documents", "digest"),
    ("core.check_density", "dmgeo.core", "check_density"),
    ("core.validate_density", "dmgeo.core", "validate_density"),
    ("core.spectral_decompose", "dmgeo.core", "spectral_decompose"),
    ("purification.purify", "dmgeo.purification", "purify"),
    ("purification.partial_trace_b", "dmgeo.purification", "partial_trace_b"),
    ("purification.schmidt", "dmgeo.purification", "schmidt"),
    ("purification.connecting_unitary", "dmgeo.purification", "connecting_unitary"),
    ("strata.classify", "dmgeo.strata", "classify"),
    ("strata.convex_split", "dmgeo.strata", "convex_split"),
    ("strata.tangent_space_rank", "dmgeo.strata", "tangent_space_rank"),
    ("sampling.random_generic_density", "dmgeo.sampling", "random_generic_density"),
    ("linalg.eigh", "numpy.linalg", "eigh"),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("linalg.svd", "numpy.linalg", "svd"),
    ("linalg.qr", "numpy.linalg", "qr"),
    ("linalg.det", "numpy.linalg", "det"),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.item = -1
        self.names = [name for name, _, _ in TARGETS]
        # one entry per span; a parent of -1 means a top-level span
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_item = array("q")
        self.calls = Counter()
        self.bytes_in = 0
        self.bytes_out = 0
        self.absent = []
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        code = self.names.index(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, items = self.span_parent, self.span_item
        stack, calls = self._stack, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            index = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if name == "documents.parse_matrix_document" and args:
                self.bytes_in += len(args[0])
            elif name == "documents.dumps":
                self.bytes_out += len(result)
            return result

        return traced

    def install(self):
        """Wrap every binding of each target; record targets not found."""
        owners = [m for key, m in sorted(sys.modules.items())
                  if m is not None and (key == "dmgeo" or key.startswith("dmgeo."))]
        for name, module_name, attribute in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), attribute)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in owners + [sys.modules[module_name]]:
                if module.__dict__.get(attribute) is original:
                    setattr(module, attribute, wrapper)
                    self._patched.append((module, attribute, original))

    def uninstall(self):
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()

    def counts(self):
        """Call counts per span name plus the document byte counts."""
        return {**self.calls, "documents.bytes_in": self.bytes_in,
                "documents.bytes_out": self.bytes_out}

    def __len__(self):
        return len(self.span_start)

    def summary(self):
        """Inclusive and self seconds per span name; self time excludes the
        time covered by direct child spans."""
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        child = [0.0] * len(durations)
        for parent, duration in zip(self.span_parent, durations):
            if parent >= 0:
                child[parent] += duration
        inclusive, own = defaultdict(float), defaultdict(float)
        for code, duration, covered in zip(self.span_name, durations, child):
            inclusive[self.names[code]] += duration
            own[self.names[code]] += duration - covered
        return inclusive, own

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for code, start, end, parent, item in zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_item):
                fh.write(json.dumps({"name": self.names[code], "start": start, "end": end,
                                     "parent": parent if parent >= 0 else None,
                                     "item": item}) + "\n")
