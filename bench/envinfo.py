"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform


def _commit(root):
    """HEAD of a git checkout, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), "r", encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def _source_digest(root):
    """SHA-256 over the program's source files, which identifies the code
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*"), recursive=True)):
        if os.path.isfile(path) and not path.endswith(".pyc"):
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = {}
            for name in ("level", "type", "size"):
                with open(os.path.join(index, name), "r", encoding="utf-8") as fh:
                    fields[name] = fh.read().strip()
        except OSError:
            continue
        out[f"L{fields['level']} {fields['type']}"] = fields["size"]
    return out


def _blas_threads(numpy):
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for lib in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(root):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "commit": _commit(root),
        "src_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(numpy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
