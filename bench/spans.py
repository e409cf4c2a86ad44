"""In-memory spans around the public calls into each trackbench layer.

install() replaces module attributes where the caller looks them up at
call time (for example `runner.compute_all`, which `runner._run_pair`
resolves through its module globals), so the program's own files stay
untouched. The returned function puts every original back; untraced
iterations run with no hook in place.

A span is (id, parent id, layer, name, start, end). Spans opened on a
worker thread with no open span of its own take the open
`execute_plan` span as parent, so a plan's self time is its duration
minus the part its worker spans cover.
"""

import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from trackbench import analysis, cli, io_formats, measures, plots, runner, theoretical
from trackbench.trajectory import Init

perf_counter = time.perf_counter


class Recorder:
    """Collects spans and counts; one per traced iteration or set-up."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.ambient = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, key, n=1):
        # Worker threads count too; += on a Counter is not atomic.
        with self._lock:
            self.counts[key] += n

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer, name):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.ambient
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield sid
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, layer, name, t0, t1))

    def wrap(self, layer, name, fn, after=None):
        """fn with a span around each call; after(result, args) counts."""
        rec = self

        def traced(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else rec.ambient
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec.spans.append((sid, parent, layer, name, t0, t1))
            if after is not None:
                after(result, args)
            return result

        return traced

    def durations(self, layer, name):
        return [t1 - t0 for _, _, lay, nm, t0, t1 in self.spans
                if lay == layer and nm == name]

    def layer_self_time(self):
        """Seconds per layer: span durations minus what child spans cover."""
        children = defaultdict(list)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = Counter()
        for sid, _, layer, _, t0, t1 in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[layer] += (t1 - t0) - covered
        return out

    def layers(self):
        return {span[2] for span in self.spans}


class _TracedSession:
    """Session proxy: open + handshake and each round trip get a span."""

    def __init__(self, rec, inner, open_s):
        self._rec = rec
        self._inner = inner
        self._open_s = open_s
        self._roundtrip = rec.wrap("runner", "roundtrip", self._call)

    def _call(self, method, *args):
        return method(*args)

    def handshake(self, seed):
        t0 = perf_counter()
        with self._rec.span("runner", "handshake"):
            result = self._inner.handshake(seed)
        self._rec.samples["open_s"].append(self._open_s + perf_counter() - t0)
        return result

    def initialize(self, frame, path, region):
        return self._roundtrip(self._inner.initialize, frame, path, region)

    def frame(self, frame, path):
        return self._roundtrip(self._inner.frame, frame, path)

    def quit(self):
        self._inner.quit()

    def close(self):
        self._inner.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _file_written(rec, path, frames=0):
    rec.add("io_formats.files_written")
    rec.add("io_formats.bytes_written", os.path.getsize(path))
    rec.add("io_formats.frames_written", frames)


def install(rec):
    """Hook every layer boundary the workloads cross; returns the undo."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def hook(owner, attr, layer, name=None, after=None):
        patch(owner, attr, rec.wrap(layer, name or attr, getattr(owner, attr), after))

    count = rec.add

    # runner: the plan, one span per session, open + handshake, round trips.
    plan = cli.execute_plan

    def traced_plan(*args, **kwargs):
        with rec.span("runner", "execute_plan") as sid:
            rec.ambient = sid
            try:
                table = plan(*args, **kwargs)
            finally:
                rec.ambient = None
        count("runner.run_errors", sum(r.error is not None for r in table.rows))
        return table

    patch(cli, "execute_plan", traced_plan)

    def after_supervised(record, args):
        count("runner.reinits", sum(isinstance(f, Init) for f in record.frames) - 1)

    hook(runner, "run_unsupervised", "runner", "session")
    hook(runner, "run_supervised", "runner", "session", after_supervised)

    handle_open = runner.TrackerHandle.open

    def traced_open(handle, seq):
        t0 = perf_counter()
        with rec.span("runner", "open"):
            session = handle_open(handle, seq)
        count("runner.sessions")
        return _TracedSession(rec, session, perf_counter() - t0)

    patch(runner.TrackerHandle, "open", traced_open)

    # measures: scoring in the run (runner's binding) and in re-scoring,
    # where the benchmark itself looks up `measures.compute_all` and the
    # `io_formats` readers below.
    def after_score(values, args):
        count("measures.compute_all_calls")
        count("measures.frames_scored", len(args[0]))

    hook(runner, "compute_all", "measures", after=after_score)
    hook(measures, "compute_all", "measures", after=after_score)

    # io_formats: artifact writes, text parsing, measure tables, reports.
    hook(runner, "write_trajectory", "io_formats", "write_artifact",
         lambda _, a: _file_written(rec, a[0], len(a[1])))
    hook(runner, "write_record", "io_formats", "write_artifact",
         lambda _, a: _file_written(rec, a[0], len(a[1])))

    def after_parse(result, args):
        count("io_formats.frames_parsed", len(result))

    for owner in (cli, io_formats):
        hook(owner, "read_trajectory", "io_formats", "parse", after_parse)
        hook(owner, "read_record", "io_formats", "parse", after_parse)
        hook(owner, "read_sequence", "io_formats", "read_sequence", after_parse)
    hook(cli, "read_measure_table", "io_formats", "table")
    hook(cli, "write_measure_table", "io_formats", "table",
         lambda _, a: _file_written(rec, a[0]))
    for attr in ("write_correlation_matrix", "write_ar_summary",
                 "write_cluster_assignment", "write_label_table"):
        hook(cli, attr, "io_formats", "write_report",
             lambda _, a: _file_written(rec, a[0]))

    # analysis and theoretical: analyze, label and the ar plot's references.
    hook(cli, "pearson_matrix", "analysis", "pearson")
    hook(analysis, "pearson_matrix", "analysis", "pearson")
    hook(cli, "cluster_measures", "analysis")
    hook(analysis, "affinity_propagation", "analysis", "affinity",
         lambda result, _: count("analysis.affinity_iterations", result.iterations))
    hook(cli, "ar_summary", "analysis")
    hook(cli, "label_sequences", "analysis")
    hook(analysis, "kmeans_partition", "analysis", "kmeans")
    hook(theoretical, "sequence_properties", "theoretical")
    hook(cli, "theoretical_ar_points", "theoretical", "ar_points")

    # plots: every SVG renderer `plot` calls.
    def after_svg(svg, _):
        count("plots.svg_bytes", len(svg.encode("utf-8")))

    for attr in ("center_error_plot", "overlap_plot", "threshold_plot",
                 "ar_plot", "fragmentation_timeline", "survival_curve"):
        hook(plots, attr, "plots", "svg", after_svg)

    def undo():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return undo
