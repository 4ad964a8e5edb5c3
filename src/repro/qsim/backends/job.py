"""Job handles returned by :meth:`Backend.run`.

:meth:`Backend.run` executes its batch in the calling thread, so a
:class:`Job` is finished the moment it exists: it holds either every
experiment's result or the error that stopped the batch.  Callers consume it
through ``result()``; the execution service (:mod:`repro.qsim.service`) is
the asynchronous, multi-process path.
"""

from __future__ import annotations

import itertools
import time
from typing import List, Optional, TYPE_CHECKING

from ..exceptions import BackendError
from ..result import ExperimentResult, Result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .backend import Backend

__all__ = ["Job"]

_JOB_COUNTER = itertools.count()


class Job:
    """A finished batch of circuits: its :class:`Result`, or the error that
    stopped it.

    Instances are created by :meth:`Backend.run`; user code only consumes
    them.
    """

    def __init__(
        self,
        backend: "Backend",
        results: List[ExperimentResult],
        error: Optional[BaseException],
        submitted_at: float,
    ):
        self.backend = backend
        self.job_id = f"{backend.name}-{next(_JOB_COUNTER)}"
        self._error = error
        self._result = Result(
            backend_name=backend.name,
            job_id=self.job_id,
            results=results,
            time_taken=time.perf_counter() - submitted_at,
        )

    def result(self) -> Result:
        """The unified :class:`Result` of the batch.

        Raises :class:`BackendError` naming the job when an experiment
        failed.
        """
        if self._error is not None:
            raise BackendError(f"job {self.job_id} failed: {self._error}") from self._error
        return self._result

    def __repr__(self) -> str:
        state = "ERROR" if self._error is not None else "DONE"
        return f"Job(id={self.job_id!r}, status={state})"
