"""Backend registry: name -> factory.

``get_backend("statevector")`` / ``get_backend("density_matrix")`` are the
front door of the execution API; third-party engines join the same namespace
through :func:`register_backend` and are then reachable from every frontend
that takes a ``backend=`` name (algorithm drivers, the language runtime, the
CLI's ``--backend`` flag).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..exceptions import BackendError
from .backend import Backend
from .engines import DensityMatrixBackend, StabilizerBackend, StatevectorBackend

__all__ = ["register_backend", "get_backend", "list_backends", "resolve_backend_name"]

_REGISTRY: Dict[str, Callable[..., Backend]] = {}
_ALIASES: Dict[str, str] = {}


def register_backend(
    name: str,
    factory: Callable[..., Backend],
    aliases: tuple = (),
    overwrite: bool = False,
) -> None:
    """Register *factory* (class or callable returning a :class:`Backend`).

    Third-party engines plug in here; see ``docs/backends.md`` for the
    contract a factory's product must honour.  Registering an existing name
    requires ``overwrite=True`` so typos cannot silently shadow a built-in.
    """
    key = name.lower()
    if not overwrite and (key in _REGISTRY or key in _ALIASES):
        raise BackendError(f"backend {name!r} is already registered (pass overwrite=True)")
    _REGISTRY[key] = factory
    for alias in aliases:
        alias_key = alias.lower()
        if not overwrite and (alias_key in _REGISTRY or alias_key in _ALIASES):
            raise BackendError(f"backend alias {alias!r} is already registered")
        _ALIASES[alias_key] = key


def resolve_backend_name(name: str) -> str:
    """Canonical registry name for *name* (which may be an alias).

    Raises the same alias-listing :class:`BackendError` as
    :func:`get_backend`, but without instantiating anything — this is what
    the static analyzer and the service's submit-time validation use to
    reject typo'd backend names before any work happens.
    """
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in _REGISTRY:
        aliases = ", ".join(sorted(_ALIASES))
        raise BackendError(
            f"unknown backend {name!r}; available: {', '.join(list_backends())}"
            + (f" (aliases: {aliases})" if aliases else "")
        )
    return key


def get_backend(name: str, **options) -> Backend:
    """Instantiate the backend registered under *name* (or an alias of it).

    Keyword *options* are forwarded to the factory, e.g.
    ``get_backend("statevector", seed=7)`` or
    ``get_backend("density_matrix", noise_model=DepolarizingNoise(0.05))``.
    """
    backend = _REGISTRY[resolve_backend_name(name)](**options)
    if not isinstance(backend, Backend):
        raise BackendError(
            f"factory for {name!r} returned {type(backend).__name__}, not a Backend"
        )
    return backend


def list_backends(include_aliases: bool = False) -> List[str]:
    """Sorted names of every registered backend."""
    names = sorted(_REGISTRY)
    if include_aliases:
        names += sorted(_ALIASES)
    return names


register_backend(StatevectorBackend.name, StatevectorBackend, aliases=("sv",))
register_backend(DensityMatrixBackend.name, DensityMatrixBackend, aliases=("dm", "density"))
register_backend(StabilizerBackend.name, StabilizerBackend, aliases=("chp", "clifford"))
