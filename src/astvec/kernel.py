"""The C kernel, epoch.c: its build and its entries.

The kernel is compiled on first use, not at import, with the system's `cc`
into __pycache__ beside its source, under a name hashed from all that changes
the binary: the source, the command, the compiler and the host CPU (for
-march=native). -ffp-contract=off and no -ffast-math keep its floats
independent of the instruction set; on x86, -mprefer-vector-width=512 keeps
its 8-double vectors whole where the host has AVX-512. This module is the whole
boundary with C: `load` gives the library's typed entries, and only
`train_epoch` (for `trainer`), `code_rows` (for `coder.objective`) and
`classifier_pass` (for `classify`) call it; they take the dimensions from the
arrays, build the out-arguments and raise the errors of the statuses.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
from pathlib import Path

import numpy as np

from .sampling import ID_DTYPE


class KernelBuildError(RuntimeError):
    pass


KERNEL_SOURCE = Path(__file__).with_name("epoch.c")
COMPILE = ("cc", "-O3", "-march=native",
           *(("-mprefer-vector-width=512",) if platform.machine() in ("x86_64", "AMD64") else ()),
           "-ffp-contract=off", "-shared", "-fPIC")


def _host_cpu() -> bytes:
    """The first CPU's description, less its clock, which changes as it runs."""
    try:
        with open("/proc/cpuinfo", "rb") as fh:
            first = fh.read().split(b"\n\n")[0]
    except OSError:
        return f"{platform.machine()} {platform.processor()}".encode()
    return b"\n".join(line for line in first.splitlines()
                      if not line.startswith(b"cpu MHz"))


def _compiler() -> bytes:
    path = shutil.which(COMPILE[0])
    if path is None:
        return b""
    path = os.path.realpath(path)
    return f"{path} {os.stat(path).st_mtime_ns}".encode()


def library_path() -> Path:
    """The compiled kernel, built first if the cache lacks it."""
    key = hashlib.sha256(b"\0".join([
        KERNEL_SOURCE.read_bytes(), " ".join(COMPILE).encode(), _compiler(), _host_cpu(),
    ])).hexdigest()
    lib = KERNEL_SOURCE.parent / "__pycache__" / f"{KERNEL_SOURCE.stem}-{key[:16]}.so"
    if lib.exists():
        return lib
    import subprocess  # only on a cache miss, which keeps import time down

    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
    try:
        lib.parent.mkdir(exist_ok=True)
        proc = subprocess.run([*COMPILE, "-o", str(tmp), str(KERNEL_SOURCE)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            lines = proc.stderr.splitlines() or [f"exit status {proc.returncode}"]
            raise KernelBuildError(
                "cannot build the epoch kernel: "
                + next((line for line in lines if "error" in line), lines[0]))
        os.replace(tmp, lib)
    except OSError as exc:
        raise KernelBuildError(f"cannot build the epoch kernel: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)
    # older builds are stale now; a process that loaded one keeps its mapping
    for stale in lib.parent.glob(f"{KERNEL_SOURCE.stem}-*.so"):
        if stale != lib:
            stale.unlink(missing_ok=True)
    return lib


@functools.cache
def load(path: Path | None = None) -> ctypes.CDLL:
    """The kernel library at `path`, by default the build of KERNEL_SOURCE,
    compiled on the first call; its entries' argument types check every
    array's dtype and layout."""
    from numpy.ctypeslib import ndpointer

    try:
        lib = ctypes.CDLL(str(path or library_path()))
    except OSError as exc:
        raise KernelBuildError(f"cannot load the epoch kernel: {exc}") from exc
    i64, f64 = ctypes.c_int64, ctypes.c_double
    flat = ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    inout = ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS, WRITEABLE")
    coef = ndpointer(np.float64, ndim=3, flags="C_CONTIGUOUS")
    counts = ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    lib.train_epoch.argtypes = [
        inout, inout, i64, i64, i64, i64,
        ndpointer(ID_DTYPE, ndim=3, flags="C_CONTIGUOUS"), counts, coef, counts,
        f64, f64, f64, f64, ctypes.POINTER(f64), ctypes.POINTER(i64),
    ]
    lib.code_rows.argtypes = [
        flat, i64, i64, i64, i64,
        ndpointer(ID_DTYPE, ndim=2, flags="C_CONTIGUOUS"), coef, counts, inout,
    ]
    doubles, int64s = ctypes.POINTER(f64), ctypes.POINTER(i64)
    lib.classifier_pass.argtypes = [
        doubles, i64, int64s, i64, i64, i64, doubles, doubles, int64s, int64s,
        doubles, doubles, i64, doubles, i64, doubles,
    ]
    lib.classifier_work.argtypes = [i64, int64s, i64]
    lib.train_epoch.restype = lib.code_rows.restype = i64
    lib.classifier_pass.restype = lib.classifier_work.restype = i64
    return lib


def _checked(status: int) -> int:
    """An entry's status; -2 means its scratch arrays could not be allocated."""
    if status == -2:
        raise MemoryError("no memory for the epoch kernel's scratch arrays")
    return status


def train_epoch(params, velocity, pairs, rows, coef, n_children, delta, l2, alpha, eps):
    """One epoch of momentum-SGD steps on `params` and `velocity` in place,
    step t on the packed rows pairs[t] (real, corrupted) with the child weights
    coef[rows[t]] and n_children[rows[t]]: (failed, hinge_total, active_steps),
    failed the first step after which a hinge or parameter is not finite, or None."""
    hinge_total, active = ctypes.c_double(), ctypes.c_int64()
    failed = _checked(load().train_epoch(
        params.flat, velocity.flat, params.embeddings.shape[0], params.n_f,
        len(pairs), pairs.shape[2], pairs, rows, coef, n_children,
        delta, l2, alpha, eps, ctypes.byref(hinge_total), ctypes.byref(active)))
    return (None if failed < 0 else failed), hinge_total.value, active.value


def code_rows(params, ids, coef, n_children) -> np.ndarray:
    """d = |parent - h|^2 of each packed row at `params`, h its coded vector,
    by the kernel's forward: ids (R, 1+K), coef (R, 2, 1+K), n_children (R,)."""
    d = np.empty(len(ids))
    _checked(load().code_rows(params.flat, params.embeddings.shape[0], params.n_f,
                              len(ids), ids.shape[1], ids, coef, n_children, d))
    return d


_DTYPES = {ctypes.c_double: np.dtype(np.float64), ctypes.c_int64: np.dtype(np.int64)}


def _data(array: np.ndarray, ctype):
    """A pointer argument to the data of `array`, whose dtype is `ctype`;
    from_buffer checks that it is C-contiguous, writable and not empty. It
    costs a quarter of an ndpointer check, which counts at two calls an
    epoch."""
    if array.dtype != _DTYPES[ctype]:
        raise TypeError(f"expected {_DTYPES[ctype]} data, got {array.dtype}")
    return ctype.from_buffer(array)


@functools.lru_cache(maxsize=16)
def _classifier_work(widths: tuple[int, ...], n_rows: int) -> int:
    return load().classifier_work(len(widths) - 1, _data(np.array(widths), ctypes.c_int64),
                                  n_rows)


def classifier_pass(model, batch, grad=None, fine_tune=False, fit=False):
    """(cross-entropy, accuracy) of the `classify.ClassifierModel` `model` on
    the `classify.Batch` `batch`, by the kernel's pass. With `grad` (laid out
    like model.flat), also the gradient of the cross-entropy into it, 0 on
    the table unless `fine_tune`; with `fit`, first model.mu and model.sigma
    in place, from the batch's input."""
    f64, i64 = ctypes.c_double, ctypes.c_int64
    widths = (model.weights[0].shape[0], *(w.shape[1] for w in model.weights))
    n_rows, n_in = batch.X.shape
    table = model.embed is not None
    if not (batch.hist.shape == batch.X.shape
            and batch.y.shape == batch.counts.shape == (n_rows,)
            and model.mu.shape == model.sigma.shape == (widths[0],)
            and (model.embed.shape[0] if table else widths[0]) == n_in
            and (grad is None or grad.shape == model.flat.shape)):
        raise ValueError("the model's and the batch's arrays do not fit together")
    work = np.empty(_classifier_work(widths, n_rows))
    status = load().classifier_pass(
        _data(model.flat, f64), len(model.weights), _data(np.array(widths), i64), table,
        n_in, n_rows, _data(batch.X, f64), _data(batch.hist, f64), _data(batch.y, i64),
        _data(batch.counts, i64), _data(model.mu, f64), _data(model.sigma, f64), fit,
        None if grad is None else _data(grad, f64), fine_tune, _data(work, f64))
    if status == -4:
        raise ValueError("a label id is not below the number of classes")
    return float(work[0]), float(work[1])
