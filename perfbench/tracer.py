"""Outside-in tracer for the diraclab package.

The tracer wraps public functions of the package from outside, without any
change to the program.  A function imported by name into another module is
a second binding of the same object (``harness`` holds its own ``op_norm``),
so every binding of a traced function in every loaded ``diraclab`` module is
replaced, and :meth:`Tracer.uninstall` puts each one back.

A traced function is either a *span*, whose self time (its duration minus
that of the spans it calls) is added to a named layer, or a *counter*, which
only counts calls.  A counter is ``functools.lru_cache(maxsize=0)``: its C
implementation calls through and counts each call as a miss, at a fraction
of the cost of a Python wrapper, so the scalar leaves called millions of
times can be counted in the traced run itself.  Their time stays in the
calling layer.  Work counts are taken from arguments and results after the
span has closed; that time is excluded from every self time and so shows up
as unattributed.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "diraclab"


def _bind(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _work_enumerate(t, fn, args, kwargs, res):
    t.work["hilbert.enumerate.labels"] += res.dim


def _work_pi_prime(t, fn, args, kwargs, res):
    a = _bind(fn, args, kwargs)
    t.distinct.add((a["gen"], a["space"].signature, float(a["q"])))
    t.work["rep_double.pi_prime.nnz"] += res.nnz


def _work_power(t, fn, args, kwargs, res):
    t.work["kernels.power_iteration.iterations"] += res[1]


def _work_block_norm(t, fn, args, kwargs, res):
    a = _bind(fn, args, kwargs)
    T = a["T"]
    rows = T.cod.level_ordinals(a["n"])
    indptr = T.mat.indptr
    t.work["linop.block_norm.nnz"] += int((indptr[rows + 1]
                                           - indptr[rows]).sum())
    t.work["linop.block_norm.dense_entries"] += len(rows) * T.mat.shape[1]


def _work_cyclic(t, fn, args, kwargs, res):
    # the seed enters the frame first; every later insertion attempt is a
    # candidate image that either adds a direction or is discarded
    t.work["covariant.candidates"] += res.reached - 1 + res.discarded
    t.work["covariant.reached"] += res.reached


def _work_emit(t, fn, args, kwargs, res):
    t.work["harness.emit.bytes"] += sum(os.path.getsize(p) for p in res)


#: (module, attribute path, layer, work extractor).  A layer of None makes
#: the function a counter.  Functions not listed are not wrapped, so their
#: time belongs to the traced function that calls them.
SPECS = (
    ("hilbert", "enumerate_space", "hilbert.enumerate", _work_enumerate),
    ("qnum", "q_number", None, None),
    ("linop", "SparseOp.compose", "linop.algebra", None),
    ("linop", "SparseOp.add", "linop.algebra", None),
    ("linop", "SparseOp.scale", "linop.algebra", None),
    ("linop", "SparseOp.adjoint", "linop.algebra", None),
    ("linop", "SparseOp.apply", None, None),
    ("linop", "op_norm", "linop.op_norm", None),
    ("linop", "block_norm", "linop.block_norm", _work_block_norm),
    ("_kernels", "power_iteration", "kernels.power_iteration", _work_power),
    ("rep_l2", "alpha_hat", "rep_l2.assemble", None),
    ("rep_l2", "beta_hat", "rep_l2.assemble", None),
    ("rep_l2", "hat_generators", "rep_l2.assemble", None),
    ("rep_l2", "dirac_family", "rep_l2.assemble", None),
    ("rep_l2", "pi_hat", "rep_l2.pi_hat", None),
    ("rep_double", "pi_prime", "rep_double.pi_prime", _work_pi_prime),
    ("rep_double", "pi_prime_generators", "rep_double.pi_prime", None),
    ("rep_double", "dirac_D", "rep_double.pi_prime", None),
    ("decomp", "build_U", "decomp.build_U", None),
    ("decomp", "direct_sum_op", "decomp.build_U", None),
    ("decomp", "kq_defect", "decomp.kq_defect", None),
    ("decomp", "kq_decay", "decomp.kq_defect", None),
    ("decomp", "control_decay", "decomp.kq_defect", None),
    ("decomp", "level_block_norms", "decomp.kq_defect", None),
    ("decomp", "decay_fit", "decomp.decay_fit", None),
    ("decomp", "asymptotic_scan", "decomp.asymptotic", None),
    ("decomp", "asymptotic_residual", "decomp.asymptotic", None),
    ("decomp", "check_dirac_intertwine", "decomp.intertwine", None),
    ("covariant", "cyclic_dimension", "covariant.cyclic", _work_cyclic),
    ("harness", "run", "harness.run", None),
    ("harness", "emit", "harness.emit", _work_emit),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in SPECS if layer))


class Tracer:
    """Self time per layer, calls per function and work counts.

    Use as a context manager around in-process calls into the package; the
    package must already be imported.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(float)
        self.distinct = set()
        self.patched = []  # (owner, attribute, original)
        self._counters = {}  # key -> lru_cache wrapper
        self._child = [0.0]  # child-span seconds of each open span

    # ---------------------------------------------------------- patching

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def install(self):
        if self.patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for modname, path, layer, work in SPECS:
            key = f"{modname}.{path}"
            owner = sys.modules[f"{PACKAGE}.{modname}"]
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            orig = owner.__dict__[attr]
            wrapper = (self._counter(orig, key) if layer is None
                       else self._span(orig, key, layer, work))
            if outer:  # a method: the class is its only binding
                self._patch(owner, attr, orig, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, orig, wrapper)
        return self

    def _patch(self, owner, name, orig, wrapper):
        setattr(owner, name, wrapper)
        self.patched.append((owner, name, orig))

    def uninstall(self):
        for key, wrapper in self._counters.items():
            self.calls[key] += wrapper.cache_info().misses
        self._counters.clear()
        while self.patched:
            owner, name, orig = self.patched.pop()
            setattr(owner, name, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---------------------------------------------------------- wrappers

    def _counter(self, fn, key):
        wrapper = self._counters[key] = functools.lru_cache(maxsize=0)(fn)
        return wrapper

    def _span(self, fn, key, layer, work):
        clock = time.perf_counter
        child = self._child
        self_s = self.self_s
        calls = self.calls
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - child.pop()
                child[-1] += dt
                calls[key] += 1
            if work is not None:
                t1 = clock()
                work(tracer, fn, args, kwargs, res)
                child[-1] += clock() - t1
            return res
        return spanned
