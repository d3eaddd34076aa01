"""One fresh interpreter for the benchmark: an import probe or an op list.

    python3 perfbench/worker.py probe SRC
        Times ``import wittlink, wittlink.cli`` between two reference
        measurements and prints ``wall ref_before ref_after module_file``.

    python3 perfbench/worker.py ops SPEC.json
        Runs each argv of the spec through ``wittlink.cli.main`` in this
        process, stdout captured.  The reference loop is timed between
        consecutive operations, and every SAMPLE_S seconds inside an
        operation by an interval timer, whose own time is taken off the
        operation's wall time.  Writes each op's stdout to ``op<i>.txt`` and
        the timings to ``results.json`` in the spec's output directory.

Only ``sys``, ``time`` and ``timing`` are imported before the probe's timed
import, so the program's own imports are all counted.
"""

import sys
import time

from timing import mean_ref, reference_loop

clock = time.perf_counter
SAMPLE_S = 0.025


def timed_reference():
    """Median of five timed reference loops: a single loop now and then
    catches a stall that says nothing about the speed around it."""
    times = []
    for _ in range(5):
        start = clock()
        reference_loop()
        times.append(clock() - start)
    return sorted(times)[2]


def probe(src):
    sys.path.insert(0, src)
    before = timed_reference()
    start = clock()
    import wittlink
    import wittlink.cli
    wall = clock() - start
    after = timed_reference()
    print(wall, before, after, wittlink.__file__)


class Sampler:
    """Times one reference loop on each SIGALRM while an operation runs.

    In a traced run each tick is also charged to the innermost open span,
    so that the tick's time can be taken off that span's self time."""

    def __init__(self, signal, tracer):
        self.signal = signal
        self.tracer = tracer
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = clock()
        reference_loop()
        took = clock() - start
        self.samples.append(took)
        if self.tracer is not None and self.tracer.stack:
            self.tracer.ticks.append((self.tracer.stack[-1], took))
        self.spent += clock() - start

    def start(self):
        self.samples = []
        self.spent = 0.0
        self.signal.setitimer(self.signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self):
        self.signal.setitimer(self.signal.ITIMER_REAL, 0, 0)


def run_ops(spec_path):
    import contextlib
    import io
    import json
    import os
    import resource
    import signal

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import wittlink
    import wittlink.cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(wittlink)
    main = wittlink.cli.main
    sampler = Sampler(signal, tracer)

    for _ in range(50):
        reference_loop()
    before = timed_reference()
    walls, refs, codes = [], [], []
    for i, argv in enumerate(spec["ops"]):
        if tracer:
            tracer.op = i
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            sampler.start()
            start = clock()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"exit {exc.code}"
            except Exception as exc:  # the op failed; record it and go on
                code = f"raised {type(exc).__name__}: {exc}"
            sampler.stop()
            wall = clock() - start
        after = timed_reference()
        walls.append(wall - sampler.spent)
        refs.append(mean_ref(before, after, sampler.samples))
        codes.append(code)
        before = after
        with open(os.path.join(spec["out"], f"op{i}.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(buf.getvalue())

    result = {"module": wittlink.__file__, "walls": walls, "refs": refs,
              "codes": codes,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        result["labels"] = tracer.labels
        result["counters"] = tracer.counters
        result["factor_cache"] = (
            wittlink.witt._factor_magnitude.cache_info().currsize)
        result["spans"] = tracer.spans
        result["ticks"] = tracer.ticks
    with open(os.path.join(spec["out"], "results.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "probe":
        probe(sys.argv[2])
    else:
        run_ops(sys.argv[2])
