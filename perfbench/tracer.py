"""Per-layer tracing of one helixmi command, from outside the library.

Run as ``python perfbench/tracer.py SPANS.json -- <helixmi arguments>``
with helixmi importable.  The launcher replaces each function in
``TARGETS`` at every module attribute that binds it (``corpus_triples``
is bound in ``counts``, ``cli`` and ``dynamics``, for example), calls
``helixmi.cli.main`` and, when the process exits, writes one span per
call: name, start, end, parent span and thread.

Functions that run per token or per descriptor (``Vocabulary.resolve``,
``MeshDescriptor.branches``) are deliberately not wrapped: their cost
lands in the self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

TARGETS = {
    "mesh": ["load_mesh_tsv", "load_mesh_ascii"],
    "corpus": ["ingest_jsonl", "ingest_medline_text", "corpus_canonical_bytes",
               "yearly_sizes", "write_corpus_jsonl"],
    "counts": ["corpus_triples", "branch_stats", "wilcoxon_signed_rank"],
    "infotheory": ["mi_from_triples", "year_entropies", "efficiency"],
    "nullmodel": ["null_band_from_triples", "shuffle_year"],
    "scaling": ["descriptor_counts", "rank_table", "zipf_fit", "heaps_fit"],
    "dynamics": ["rank_trajectories", "detect_entries", "top_pairs", "branch_share_series"],
    "synth": ["synth_corpus"],
    "cli": ["main"],
}

# Work counts attached to a span, computed after its end time is taken.
_WORK = {
    "corpus.ingest_jsonl": ("pubs", lambda args, result: len(result[0])),
    "corpus.ingest_medline_text": ("pubs", lambda args, result: len(result[0])),
    "nullmodel.shuffle_year": ("labels", lambda args, result: int(args[0].sum())),
}


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in TARGETS.items() for fn in fns]


class Recorder:
    """Collects spans in memory; safe to call from worker threads."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # helixmi starts threads only inside a traced call, which
                # the main thread holds open while its workers run
                parent = self._main_stack[-1] if self._main_stack else None
            with self._lock:
                index = len(self.spans)
                span = [name, 0.0, 0.0, parent, threading.get_ident(), None]
                self.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[5] = {work[0]: work[1](args, result)}
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(recorder: Recorder) -> None:
    """Replace every binding of every target in the helixmi modules."""
    wrappers = {}
    for module, fns in TARGETS.items():
        mod = importlib.import_module(f"helixmi.{module}")
        for fn in fns:
            original = getattr(mod, fn)
            wrappers[id(original)] = (original, recorder.wrap(f"{module}.{fn}", original))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "helixmi" and not mod_name.startswith("helixmi."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total = 0.0
    end = lo
    for start, stop in sorted(children):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its child spans.

    Children of one span overlap when they run on worker threads, so
    their durations cannot simply be subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _thread, _work in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered((start, end), children.get(i, []))
        for i, (_name, start, end, _parent, _thread, _work) in enumerate(spans)
    ]


def summarize(processes: list[list[list]]) -> dict[str, dict]:
    """Per span name: calls, total self time and summed work counts.

    ``processes`` holds one span list per traced process; parent indices
    refer to spans of the same process.
    """
    out = {name: {"calls": 0, "self_s": 0.0, "work": {}} for name in span_names()}
    for spans in processes:
        for span, own in zip(spans, self_times(spans)):
            entry = out[span[0]]
            entry["calls"] += 1
            entry["self_s"] += own
            for key, value in (span[5] or {}).items():
                entry["work"][key] = entry["work"].get(key, 0) + value
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <helixmi arguments>", file=sys.stderr)
        return 1
    recorder = Recorder()
    install(recorder)
    cli = importlib.import_module("helixmi.cli")
    try:
        return cli.main(argv[2:])
    finally:
        recorder.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
