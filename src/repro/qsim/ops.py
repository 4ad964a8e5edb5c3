"""Pluggable array-ops backplane: one interface, swappable array modules.

Every dense kernel in :mod:`repro.qsim.kernels` (and the batched trajectory
executor in :mod:`repro.qsim.shotbatch`) talks to arrays exclusively through
an :class:`ArrayOps` instance instead of importing ``numpy`` directly.  The
default implementation, :class:`NumpyOps`, *is* numpy -- bit-for-bit the
arithmetic the engines have always done -- but the indirection is the seam an
accelerated module (cupy, numba-compiled kernels, a GPU density-matrix
backend in the style of quantumsim's ``qs2/backends/cuda.py``) plugs into
without touching a single line of gate code:

* **array creation / layout**: ``empty``, ``zeros``, ``asarray``, ``eye``,
  ``kron``, ``moveaxis``, ``ascontiguousarray``;
* **contraction**: ``matmul`` (the BLAS-shaped paths);
* **elementwise into out-buffers**: ``multiply``, ``add``, ``copyto`` -- the
  scalar-times-slice arithmetic of the strided kernels, always writing into
  caller-provided scratch so no temporaries are allocated per gate;
* **reductions / structure probes**: ``abs2``, ``row_sums``,
  ``count_nonzero``, ``flatnonzero``;
* **randomness**: ``rng`` returning a numpy-``Generator``-compatible source;
* **scratch pooling**: ``scratch`` hands out reusable per-thread buffers
  (formerly a private detail of ``kernels.py``).

Selection
---------
:func:`get_ops` resolves, in order: an explicit ``name`` argument, the
process default set via :func:`set_default_ops` (the CLI's ``--array-ops``
flag calls this), the ``QSIM_ARRAY_OPS`` environment variable, and finally
``"numpy"``.  Third-party modules join with :func:`register_ops`; see
``docs/kernels.md`` for the contract and a worked registration example.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .exceptions import SimulationError

__all__ = [
    "ArrayOps",
    "NumpyOps",
    "register_ops",
    "get_ops",
    "set_default_ops",
    "active_ops_name",
    "available_ops",
    "OPS_ENV_VAR",
]

#: environment variable consulted when no explicit backend was selected
OPS_ENV_VAR = "QSIM_ARRAY_OPS"


class ArrayOps:
    """The array-module contract the kernels program against.

    Implementations must be *drop-in interchangeable* on the numpy paths:
    given the same inputs, ``multiply``/``add``/``copyto`` must be exact
    elementwise IEEE operations (the bit-identity property tests in
    ``tests/qsim/test_ops.py`` enforce this for the default backend), and
    every returned array must support numpy-style ``reshape`` and basic
    slicing (both numpy and cupy do).  ``to_numpy`` is the host-transfer
    escape hatch used at sampling boundaries.
    """

    #: registry name; implementations override
    name: str = "abstract"

    # -- creation / layout ------------------------------------------------------

    def empty(self, shape, dtype=complex):
        raise NotImplementedError

    def zeros(self, shape, dtype=complex):
        raise NotImplementedError

    def asarray(self, data, dtype=complex):
        raise NotImplementedError

    def eye(self, dim: int, dtype=complex):
        raise NotImplementedError

    def kron(self, a, b):
        raise NotImplementedError

    def moveaxis(self, a, source, destination):
        raise NotImplementedError

    def ascontiguousarray(self, a):
        raise NotImplementedError

    # -- contraction ------------------------------------------------------------

    def matmul(self, a, b):
        raise NotImplementedError

    # -- elementwise (out-buffer) -----------------------------------------------

    def multiply(self, a, b, out=None):
        raise NotImplementedError

    def add(self, a, b, out=None):
        raise NotImplementedError

    def copyto(self, dst, src) -> None:
        raise NotImplementedError

    # -- reductions / structure probes ------------------------------------------

    def abs2(self, a):
        """``|a|^2`` as a real array."""
        raise NotImplementedError

    def row_sums(self, a):
        """Per-row sums of a 2-D array, with a batch-size-invariant reduction.

        The batched shot executor relies on ``row_sums(x[i:i+1])`` being
        bit-identical to ``row_sums(x)[i]`` -- each row must be reduced
        independently, in a fixed order.
        """
        raise NotImplementedError

    def count_nonzero(self, a) -> int:
        raise NotImplementedError

    def flatnonzero(self, a):
        raise NotImplementedError

    # -- randomness -------------------------------------------------------------

    def rng(self, seed=None):
        """A numpy-``Generator``-compatible random source."""
        raise NotImplementedError

    # -- scratch pooling --------------------------------------------------------

    def scratch(self, shape: Tuple[int, ...], count: int = 3):
        """*count* reusable buffers of *shape*, valid until the next call."""
        raise NotImplementedError

    # -- host transfer ----------------------------------------------------------

    def to_numpy(self, a) -> np.ndarray:
        """*a* as a host-side numpy array (identity for CPU backends)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NumpyOps(ArrayOps):
    """The default backend: plain numpy, plus the per-thread scratch pool.

    The pool is grown on demand and viewed per shape: it avoids re-allocating
    half-state temporaries on every gate, stays safe when independent
    simulators run on different threads (numpy releases the GIL mid-kernel),
    and retains at most ~1.5x the largest state the thread has simulated.
    """

    name = "numpy"

    def __init__(self) -> None:
        self._scratch = threading.local()

    # -- creation / layout ------------------------------------------------------

    def empty(self, shape, dtype=complex):
        return np.empty(shape, dtype=dtype)

    def zeros(self, shape, dtype=complex):
        return np.zeros(shape, dtype=dtype)

    def asarray(self, data, dtype=complex):
        return np.asarray(data, dtype=dtype)

    def eye(self, dim: int, dtype=complex):
        return np.eye(dim, dtype=dtype)

    def kron(self, a, b):
        return np.kron(a, b)

    def moveaxis(self, a, source, destination):
        return np.moveaxis(a, source, destination)

    def ascontiguousarray(self, a):
        return np.ascontiguousarray(a)

    # -- contraction ------------------------------------------------------------

    def matmul(self, a, b):
        return a @ b

    # -- elementwise (out-buffer) -----------------------------------------------

    def multiply(self, a, b, out=None):
        return np.multiply(a, b, out=out)

    def add(self, a, b, out=None):
        return np.add(a, b, out=out)

    def copyto(self, dst, src) -> None:
        np.copyto(dst, src)

    # -- reductions / structure probes ------------------------------------------

    def abs2(self, a):
        return np.real(a) ** 2 + np.imag(a) ** 2

    def row_sums(self, a):
        # np.add.reduce over the last axis reduces every row independently
        # (pairwise, in index order), so the result for a given row does not
        # depend on how many other rows share the array -- the invariance the
        # batched shot executor's per-shot equivalence rests on
        return np.add.reduce(a, axis=1)

    def count_nonzero(self, a) -> int:
        return int(np.count_nonzero(a))

    def flatnonzero(self, a):
        return np.flatnonzero(a)

    # -- randomness -------------------------------------------------------------

    def rng(self, seed=None):
        return np.random.default_rng(seed)

    # -- scratch pooling --------------------------------------------------------

    def scratch(self, shape: Tuple[int, ...], count: int = 3):
        # the returned views alias the thread's pool: each kernel uses them
        # within a single call and never across calls
        pool = getattr(self._scratch, "pool", None)
        per_buffer = 1
        for dim in shape:
            per_buffer *= dim
        total = per_buffer * count
        if pool is None or pool.size < total:
            pool = np.empty(total, dtype=complex)
            self._scratch.pool = pool
        return tuple(
            pool[i * per_buffer : (i + 1) * per_buffer].reshape(shape)
            for i in range(count)
        )

    # -- host transfer ----------------------------------------------------------

    def to_numpy(self, a) -> np.ndarray:
        return np.asarray(a)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[[], ArrayOps]] = {}
_ALIASES: Dict[str, str] = {}
_INSTANCES: Dict[str, ArrayOps] = {}
_DEFAULT_NAME: Optional[str] = None  # set_default_ops override
_LOCK = threading.Lock()


def register_ops(
    name: str,
    factory: Callable[[], ArrayOps],
    aliases: Tuple[str, ...] = (),
    overwrite: bool = False,
) -> None:
    """Register *factory* (zero-argument callable returning an :class:`ArrayOps`).

    Accelerated modules plug in here and become selectable by name through
    :func:`get_ops`, the ``QSIM_ARRAY_OPS`` environment variable and the
    CLI's ``--array-ops`` flag -- without the gate code changing at all.
    *aliases* are alternative selection names mapping onto the same backend
    (``"np"`` for numpy), mirroring the backend registry's alias support.
    Registering an existing name requires ``overwrite=True`` so typos cannot
    silently shadow the numpy default.
    """
    key = name.lower()
    with _LOCK:
        if not overwrite and (key in _REGISTRY or key in _ALIASES):
            raise SimulationError(
                f"array-ops backend {name!r} is already registered (pass overwrite=True)"
            )
        _REGISTRY[key] = factory
        _INSTANCES.pop(key, None)
        for alias in aliases:
            alias_key = alias.lower()
            if not overwrite and (alias_key in _REGISTRY or alias_key in _ALIASES):
                raise SimulationError(
                    f"array-ops alias {alias!r} is already registered"
                )
            _ALIASES[alias_key] = key


def available_ops(include_aliases: bool = False) -> List[str]:
    """Sorted names of every registered array-ops backend."""
    names = sorted(_REGISTRY)
    if include_aliases:
        names += sorted(_ALIASES)
    return names


def set_default_ops(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide default backend.

    Takes precedence over ``QSIM_ARRAY_OPS``; the CLI's ``--array-ops`` flag
    is a thin wrapper over this.  The name is validated immediately so a typo
    fails at selection time, not on the first gate.
    """
    global _DEFAULT_NAME
    if name is not None:
        _resolve(name)  # validate eagerly
    _DEFAULT_NAME = None if name is None else name.lower()


def active_ops_name() -> str:
    """The name :func:`get_ops` would resolve to right now."""
    return get_ops().name


def _resolve(name: str) -> ArrayOps:
    key = name.lower()
    with _LOCK:
        key = _ALIASES.get(key, key)
        instance = _INSTANCES.get(key)
        if instance is not None:
            return instance
        factory = _REGISTRY.get(key)
        if factory is None:
            aliases = ", ".join(sorted(_ALIASES))
            raise SimulationError(
                f"unknown array-ops backend {name!r}; available: "
                f"{', '.join(sorted(_REGISTRY))}"
                + (f" (aliases: {aliases})" if aliases else "")
            )
        instance = factory()
        if not isinstance(instance, ArrayOps):
            raise SimulationError(
                f"factory for array-ops backend {name!r} returned "
                f"{type(instance).__name__}, not an ArrayOps"
            )
        _INSTANCES[key] = instance
        return instance


def get_ops(name: Optional[str] = None) -> ArrayOps:
    """The active :class:`ArrayOps` backend.

    Resolution order: explicit *name* > :func:`set_default_ops` >
    ``QSIM_ARRAY_OPS`` environment variable > ``"numpy"``.  Instances are
    cached per name, so repeated calls are a dictionary lookup.
    """
    if name is not None:
        return _resolve(name)
    if _DEFAULT_NAME is not None:
        return _resolve(_DEFAULT_NAME)
    env = os.environ.get(OPS_ENV_VAR)
    if env:
        return _resolve(env)
    return _resolve("numpy")


register_ops(NumpyOps.name, NumpyOps, aliases=("np",))
