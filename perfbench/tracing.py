"""In-memory spans around calls into the package's layers.

The tracer replaces public functions in their module namespaces with timing
wrappers, so calls the package makes internally (``run_lifg`` calling
``cp.run_cp``, ``run_cp`` calling ``cp_round``, ``loopy_bp`` calling the
``compress`` it imported) are recorded too.  Spans are plain tuples kept in
a list and written out once, when the benchmark ends.
"""

from contextlib import contextmanager
import json
import time

from liftfg import benchgen, cp, inference, lifg, model

# (module, attribute, span name); inference holds its own reference to compress
WRAPPED = (
    (model, "parse_model", "model.parse_model"),
    (model, "serialize_model", "model.serialize_model"),
    (benchgen, "remove_potentials", "benchgen.remove_potentials"),
    (cp, "initial_colours", "cp.initial_colours"),
    (cp, "cp_round", "cp.cp_round"),
    (cp, "run_cp", "cp.run_cp"),
    (cp, "compress", "cp.compress"),
    (inference, "compress", "cp.compress"),
    (lifg, "all_signatures", "lifg.all_signatures"),
    (lifg, "select_candidates", "lifg.select_candidates"),
    (lifg, "transfer_potentials", "lifg.transfer_potentials"),
    (lifg, "run_lifg", "lifg.run_lifg"),
)

ID, NAME, START, END, PARENT, INSTANCE = range(6)


class Tracer:
    """Records (id, name, start_ns, end_ns, parent_id, instance) spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.instance: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.instance)

    def install(self):
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrapper(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start_ns", "end_ns", "parent", "instance"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def root_names(spans: list[tuple]) -> list[str]:
    """Name of the top-level span above each span (itself when top-level)."""
    roots: list[str] = []
    for s in spans:             # parents always precede their children
        roots.append(s[NAME] if s[PARENT] is None else roots[s[PARENT]])
    return roots


def self_times(spans: list[tuple]) -> list[int]:
    """Duration minus the time child spans cover; children never overlap here."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own
