"""One benchmark repeat: a single ``mspde.cli.main`` call in a fresh process.

    python3 perfbench/repeat.py '{"argv": [...], "trace": false, "run_id": "..."}'

The source tree to measure must be on ``PYTHONPATH``.  The process pins BLAS
to one thread before numpy is imported, times ``import mspde.cli``, wraps the
public calls named in ``SET_UP`` (always) and ``LAYERS`` (traced repeats
only) from outside the package, runs the command and prints one JSON object:
exit code, import time, peak RSS, machine facts and the recorded spans.
Before the call it prints ``ready`` and waits for a line on standard input,
so that the benchmark can time its calibration right before the call.
Nothing under ``src/`` is changed; a name the package no longer has is
reported in ``missing`` instead of failing the repeat.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# (module, class or None, attribute, span name).  A module-level function is
# replaced in every loaded ``mspde`` module that imported it by name.
SET_UP = [
    ("mspde.solver", None, "build_space", "solver.build_space"),
    ("mspde.spaces", "SpatialSpace", "project", "spaces.project"),
    ("mspde.solver", "SlabAssembler", "__init__", "solver.assembler_init"),
]
LAYERS = [
    ("mspde.spatial_ops", None, "g_matrix", "spatial_ops.g_matrix"),
    ("mspde.solver", "SlabAssembler", "solve_slab", "solver.solve_slab"),
    ("mspde.solver", "SlabAssembler", "residual", "solver.residual"),
    ("mspde.solver", "SlabAssembler", "jacobian", "solver.jacobian"),
    ("mspde.diagnostics", None, "global_invariants", "diagnostics.global_invariants"),
    ("mspde.diagnostics", None, "bochner_error", "diagnostics.bochner_error"),
]


class Tracer:
    """Spans ``[name, start, end, parent index, extra]`` kept in memory."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []

    def timed(self, fn, name, extra=None):
        """``fn`` wrapped to record one span per call; ``extra(args, result)``
        may attach a value computed after the span has ended."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                span[4] = extra(args, result)
            return result

        return traced

    def install(self, module_name, class_name, attr, name, extra=None):
        module = sys.modules.get(module_name)
        owner = getattr(module, class_name, None) if class_name else module
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapped = self.timed(original, name, extra)
        if class_name:
            setattr(owner, attr, wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "mspde" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)


def _assembler_size(args, _result):
    return getattr(args[0], "size", None)


def _slab_iterations(_args, result):
    if isinstance(result, tuple) and len(result) > 2 and isinstance(result[2], int):
        return result[2]
    return None


def _jacobian_storage(_args, result):
    """Nonzero share of the stored entries and the bytes the storage takes,
    computed from shape and dtype (dense) or from the stored arrays (sparse)."""
    import numpy as np
    import scipy.sparse

    if scipy.sparse.issparse(result):
        result = result.tocsr()
        stored = result.nnz
        nonzero = int(np.count_nonzero(result.data))
        nbytes = result.data.nbytes + result.indices.nbytes + result.indptr.nbytes
    else:
        result = np.asarray(result)
        stored = result.size
        nonzero = int(np.count_nonzero(result))
        nbytes = result.size * result.dtype.itemsize
    return {"density": nonzero / stored, "mb": nbytes / 2**20}


def _when_larger(extra):
    """``extra`` only for a Jacobian with more rows than any seen before."""
    largest = [0]

    def on_result(args, result):
        if result.shape[0] <= largest[0]:
            return None
        largest[0] = result.shape[0]
        return extra(args, result)

    return on_result


def _traced_problem_by_label(tracer, original):
    """Problem factory whose ``grad_s`` and ``hess_s`` record spans."""

    def problem_by_label(label):
        problem = original(label)
        return dataclasses.replace(
            problem,
            grad_s=tracer.timed(problem.grad_s, "problems.grad_s"),
            hess_s=tracer.timed(problem.hess_s, "problems.hess_s"),
        )

    return problem_by_label


def _openblas(lib_dir, suffix):
    """OpenBLAS configuration string and thread count of the bundled library."""
    for path in sorted(lib_dir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        config = getattr(lib, "scipy_openblas_get_config" + suffix, None)
        threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
        if config is None or threads is None:
            continue
        config.restype = ctypes.c_char_p
        threads.restype = ctypes.c_int
        return {"config": config().decode(), "threads": threads()}
    return None


def machine_facts():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    site = Path(numpy.__file__).resolve().parent.parent
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _openblas(site / "numpy.libs", "64_"),
        "scipy_openblas": _openblas(site / "scipy.libs", ""),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(spec):
    tracer = Tracer()
    start = time.perf_counter()
    import mspde.cli
    import_s = time.perf_counter() - start

    extras = {
        "solver.assembler_init": _assembler_size,
        "solver.solve_slab": _slab_iterations,
        "solver.jacobian": _when_larger(_jacobian_storage),
    }
    for target in SET_UP + (LAYERS if spec["trace"] else []):
        tracer.install(*target, extra=extras.get(target[3]))
    if spec["trace"]:
        mspde.cli.problem_by_label = _traced_problem_by_label(
            tracer, mspde.cli.problem_by_label)

    cli_main = tracer.timed(mspde.cli.main, "cli.main")
    print("ready", flush=True)
    sys.stdin.readline()  # the benchmark calibrates while this process waits
    try:
        exit_code = cli_main(spec["argv"])
    except Exception:  # the repeat is reported as failed, not lost
        traceback.print_exc()
        exit_code = "exception"
    return {
        "run_id": spec["run_id"],
        "exit_code": exit_code,
        "mspde_file": mspde.cli.__file__,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
        "missing": tracer.missing,
        "machine": machine_facts(),
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
