"""Run-time span tracing of the superchan layers, owned by the benchmark.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` wraps
every public function of the layer modules (operators, channels,
superchannels, breaking, documents, cli) and the spectral kernels
``numpy.linalg.eigh/eigvalsh/svd``, and rebinds each wrapper wherever the
package holds a reference to the original (``from .x import y`` copies the
binding into the importing module).  ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, attrs]`` with ``time.perf_counter``
stamps.  On Linux that clock is CLOCK_MONOTONIC, shared by all processes, so
spans written by a CLI child nest inside the parent's ``cli.process`` span.
Span names are ``<layer>.<function>``; the layer is the first component.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

LAYER_MODULES = ("operators", "channels", "superchannels", "breaking",
                 "documents", "cli")
SPECTRAL_KERNELS = ("eigh", "eigvalsh", "svd")
SPECTRAL_PREFIX = "operators.spectral."


def _spectral_attrs(kernel):
    """Shape, options and content hash of a spectral kernel's input.

    The hash is taken before the call, outside the kernel's span, so its cost
    lands in the caller's self time (and in the measured tracing overhead).
    """
    def attrs(args, kwargs):
        import numpy as np

        a = np.ascontiguousarray(args[0])
        digest = hashlib.blake2b(a.view(np.uint8).reshape(-1),
                                 digest_size=16).hexdigest()
        vectors = kwargs.get("compute_uv", True) if kernel == "svd" else (
            kernel == "eigh")
        return {"m": int(a.shape[-2]), "n": int(a.shape[-1]),
                "complex": bool(np.iscomplexobj(a)), "vectors": bool(vectors),
                "full": bool(kwargs.get("full_matrices", True)),
                "hash": digest}
    return attrs


def _bytes_of_result(args, kwargs, result):
    return {"bytes": len(result)}


def _bytes_of_file(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


# attrs computed after the call, from its result, outside the span
_POST_ATTRS = {
    "documents.document_bytes": _bytes_of_result,
    "documents.load_document": _bytes_of_file,
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []
        self._on = [False]  # wrappers record only inside ``recording()``

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, pre=None, post=None):
        spans, stack, on = self.spans, self._stack, self._on
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            attrs = pre(args, kwargs) if pre is not None else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                rec[4] = post(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def recording(self):
        self._on[0] = True
        try:
            yield
        finally:
            self._on[0] = False

    @contextmanager
    def span(self, name, attrs=None):
        """Span around benchmark-side code (item roots, CLI processes);
        yields the span's index."""
        index = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(index)
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield index
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def adopt(self, child_spans, parent):
        """Append spans recorded by another process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, attrs in child_spans:
            self.spans.append(
                [name, start, end, parent if par < 0 else base + par, attrs])

    # -- installation -----------------------------------------------------

    def install(self):
        import numpy as np

        wrappers = {}
        for layer in LAYER_MODULES:
            mod = importlib.import_module(f"superchan.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[obj] = self._wrap(name, obj,
                                           post=_POST_ATTRS.get(name))
        for mname, mod in list(sys.modules.items()):
            if mname != "superchan" and not mname.startswith("superchan."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for kernel in SPECTRAL_KERNELS:
            original = getattr(np.linalg, kernel)
            self._patched.append((np.linalg, kernel, original))
            setattr(np.linalg, kernel,
                    self._wrap(SPECTRAL_PREFIX + kernel, original,
                               pre=_spectral_attrs(kernel)))

    def uninstall(self):
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    # -- output -----------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")


def load_spans(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]
