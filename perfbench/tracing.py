"""Outside-in layer tracing for the snapcheck benchmark.

The checker reaches each of its layers through a module attribute: the
harness looks up ``step_state``, ``state_key``, ``apply_step`` and the rest
as its own globals, and reaches ``invariants.*``, ``oracle.*`` and
``aux_ops.*`` as attributes of those modules.  A :class:`Tracer` replaces
those attributes with timing wrappers, so every call is caught without
touching the program, and puts the originals back when it is closed.

Each call becomes a span (layer, start, end, parent, operation).  Spans are
kept in memory, up to a cap, and written out when the run ends; the
per-layer call counts and self times are accumulated over every span, cap
or not.  Self time is a span's duration minus the time its wrapped child
spans cover.  Everything runs in one thread, so one stack suffices.
"""

from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter_ns

# (module, attribute, layer).  Several attributes may share a layer, whose
# counts are then summed.  The layer is named after the module that defines
# the function; ``aux_key`` is the one the harness calls from ``state_key``.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("harness", "explore", "harness.explore"),
    ("harness", "run_schedule", "harness.run_schedule"),
    ("harness", "run_random", "harness.run_random"),
    ("harness", "step_state", "harness.step_state"),
    ("harness", "enabled_tids", "harness.enabled_tids"),
    ("harness", "state_key", "harness.state_key"),
    ("harness", "aux_key", "harness.aux_key"),
    ("harness", "apply_step", "snapshot.apply_step"),
    ("harness", "make_frame", "snapshot.make_frame"),
    ("harness", "phys_digest", "snapshot.phys_digest"),
    ("harness", "aux_digest", "snapshot.aux_digest"),
    ("aux_ops", "relink", "aux_ops.relink"),
    ("aux_ops", "register", "aux_ops.transitions"),
    ("aux_ops", "check", "aux_ops.transitions"),
    ("aux_ops", "forward", "aux_ops.transitions"),
    ("aux_ops", "finalize", "aux_ops.transitions"),
    ("aux_ops", "set_scanner", "aux_ops.transitions"),
    ("aux_ops", "clear", "aux_ops.transitions"),
    ("invariants", "check_all", "invariants.check_all"),
    ("invariants", "check_state", "invariants.check_state"),
    ("invariants", "check_omega_properties", "invariants.check_omega_properties"),
    ("invariants", "check_chain_lemma", "invariants.check_chain_lemma"),
    ("invariants", "check_transition", "invariants.check_transition"),
    ("invariants", "capture_spec_snapshot", "invariants.capture_spec_snapshot"),
    ("invariants", "check_write_post", "invariants.postconditions"),
    ("invariants", "check_scan_post", "invariants.postconditions"),
    ("invariants", "check_read_lemma", "invariants.lemmas"),
    ("invariants", "check_relink_post", "invariants.lemmas"),
    ("tracefile", "render_trace", "tracefile.render_trace"),
    ("tracefile", "parse_trace", "tracefile.parse_trace"),
    ("oracle", "validate_witness", "oracle.validate_witness"),
    ("oracle", "linearizable", "oracle.linearizable"),
)

LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(layer for _, _, layer in LAYERS))


class Originals:
    """The untraced functions, captured right after import."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.funcs = {(m, a): getattr(modules[m], a) for m, a, _ in LAYERS}

    def check_in_place(self) -> None:
        """Raise unless every traced attribute is the original function, so
        an untraced measurement never pays for tracing."""
        moved = [
            f"{m}.{a}"
            for (m, a), fn in self.funcs.items()
            if getattr(self.modules[m], a) is not fn
        ]
        if moved:
            raise RuntimeError("tracing wrappers still installed: " + ", ".join(moved))


class Tracer:
    """Installs timing wrappers on :data:`LAYERS`; use as a context manager.

    ``op`` is set by the caller to the index of the running operation, so
    spans of one operation share an identifier.
    """

    def __init__(self, originals: Originals, span_cap: int):
        self.originals = originals
        self.span_cap = span_cap
        self.calls = [0] * len(LAYER_NAMES)
        self.self_ns = [0] * len(LAYER_NAMES)
        self.spans = 0
        self.op = 0
        self._stack: list[list[int]] = []  # [child_ns, span index] per open span
        self._layer = array("i")
        self._op = array("q")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")

    def __enter__(self) -> "Tracer":
        ids = {name: i for i, name in enumerate(LAYER_NAMES)}
        funcs = self.originals.funcs
        try:
            for m, a, layer in LAYERS:
                setattr(self.originals.modules[m], a, self._wrap(ids[layer], funcs[m, a]))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for (m, a), fn in self.originals.funcs.items():
            setattr(self.originals.modules[m], a, fn)

    def _wrap(self, layer_id: int, fn):
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.spans
            self.spans = idx + 1
            keep = idx < self.span_cap
            if keep:
                self._layer.append(layer_id)
                self._op.append(self.op)
                self._parent.append(stack[-1][1] if stack else -1)
                self._end.append(0)
            frame = [0, idx]
            stack.append(frame)
            t0 = perf_counter_ns()
            if keep:
                self._start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                calls[layer_id] += 1
                self_ns[layer_id] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    self._end[idx] = t1

        return traced

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per kept span; the header gives the total
        span count, so a reader can tell how many fell past the cap."""
        path.parent.mkdir(parents=True, exist_ok=True)
        kept = len(self._layer)
        with path.open("w") as f:
            f.write(f"# spans {self.spans} kept {kept}\n")
            f.write("id\top\tparent\tlayer\tstart_ns\tend_ns\n")
            for i in range(kept):
                f.write(
                    f"{i}\t{self._op[i]}\t{self._parent[i]}\t{LAYER_NAMES[self._layer[i]]}"
                    f"\t{self._start[i]}\t{self._end[i]}\n"
                )
