"""One benchmark round in a fresh interpreter.

Usage: python3 child.py INPUT.json OUTPUT.json [SPANS.tsv]

INPUT names the workload, the ``src`` directory to import ``k3ade``
from, and the generated inputs.  With a SPANS path the round is traced:
the layer wrappers are installed before any k3ade layer is imported,
and the spans of the measured work (set-up excluded) are written to
SPANS and the per-layer figures to OUTPUT.

OUTPUT holds the program's results, the operations that raised, the
monotonic time at which the inputs were ready, the wall and CPU time of
the work as measured and, in an untraced round, at the reference speed
(see ``reference.py``) with the times of the reference slices, and the
peak resident memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from reference import Meter, cpu


def _import_k3ade(src: str, traced: bool):
    sys.path.insert(0, src)
    tracer = None
    if traced:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import k3ade
    if not Path(k3ade.__file__).resolve().is_relative_to(
            Path(src).resolve()):
        raise RuntimeError(f"k3ade imported from {k3ade.__file__}, "
                           f"not from {src}")
    return tracer


def _setup(workload: str, items: list) -> tuple:
    """Everything the work needs, built before the clock starts: the
    prepared inputs and the function the work calls on each."""
    if workload == "table":
        from k3ade import cli
        parser = cli.build_parser()
        return [(name, parser.parse_args(["classify", "--type", name]))
                for name in items], None
    if workload == "stream":
        from k3ade.ade_types import parse_type
        from k3ade.classifier import glue_candidates
        return [(name, parse_type(name)) for name in items], glue_candidates
    from k3ade.fqf import discriminant_form
    from k3ade.genus import exists_even_lattice
    return [(discriminant_form(g["gram"])[0], g["signatures"])
            for g in items], exists_even_lattice


def _work(workload: str, prepared: list, fn) -> tuple[object, list]:
    """The measured work; returns the raw results and the indices of
    the operations that raised."""
    failed = []
    if workload == "table":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            for k, (_, args) in enumerate(prepared):
                try:
                    if args.func(args) != 0:
                        failed.append(k)
                except Exception:
                    failed.append(k)
        return buf.getvalue(), failed
    if workload == "stream":
        out = []
        for k, (_, sigma) in enumerate(prepared):
            try:
                out.append(fn(sigma))
            except Exception:
                failed.append(k)
                out.append(None)
        return out, failed
    answers = []
    for form, signatures in prepared:
        for r, s in signatures:
            try:
                answers.append(fn(r, s, form))
            except Exception:
                failed.append(len(answers))
                answers.append(None)
    return answers, failed


def _results(workload: str, prepared: list, raw) -> object:
    if workload == "stream":
        return {name: [[list(p.v), list(p.w)] for p in pairs]
                for (name, _), pairs in zip(prepared, raw)
                if pairs is not None}
    return raw


def _environment() -> dict:
    import numpy
    from k3ade import kernels
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "kernels_backend": kernels.backend()}


def main(argv: list[str]) -> int:
    in_path, out_path = argv[1], argv[2]
    spans_path = argv[3] if len(argv) > 3 else None
    with open(in_path) as fh:
        spec = json.load(fh)
    workload = spec["workload"]
    tracer = _import_k3ade(spec["src"], spans_path is not None)
    prepared, fn = _setup(workload, spec["items"])
    if tracer is not None:
        tracer.reset()
    ready = time.monotonic()
    out = {"ready": ready}
    if tracer is None:
        meter = Meter()
        meter.start()
        try:
            raw, failed = _work(workload, prepared, fn)
        finally:
            meter.stop()
        out["wall_s"], out["cpu_s"] = meter.at_reference()
        out["raw_wall_s"], out["raw_cpu_s"] = meter.raw()
        out["slices_s"] = [w for w, _ in meter.slices]
    else:
        # No slices interrupt a traced round: they would be counted in
        # the self time of whichever layer they interrupted.
        t0, c0 = time.perf_counter(), cpu()
        raw, failed = _work(workload, prepared, fn)
        out["raw_wall_s"] = time.perf_counter() - t0
        out["raw_cpu_s"] = cpu() - c0
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out |= {"peak_rss_mib": rss_kib / 1024, "failed": failed,
            "results": _results(workload, prepared, raw),
            "environment": _environment()}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        tracer.write_spans(spans_path)
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
