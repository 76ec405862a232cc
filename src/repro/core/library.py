"""Serverless execution model: libraries and function calls (paper §3.4).

Many workflows run near-identical short tasks thousands of times, and
per-task environment setup (starting an interpreter, importing
libraries, reading datasets) dominates runtime.  TaskVine amortizes it:

* a :class:`LibraryTask` deploys a *library* — a named collection of
  functions plus its execution environment — once per worker, where it
  runs continuously as a Library Instance;
* a :class:`FunctionCall` replaces the Unix command of a regular task
  with the name of a library function to invoke; the worker forwards
  the invocation to the resident instance, which forks to run the
  already-loaded code.

Resource management (paper §3.4, Fig. 8): **the library owns an
allocation and its calls share it.**  The LibraryTask's ``resources``
are taken from the worker's pool once, when the instance is deployed,
and held for as long as it is installed; ``function_slots`` divides
that allocation into the number of calls the instance serves at once.
A FunctionCall is placed on a worker whose instance has a free slot
and takes nothing further from the pool — the library's allocation is
the whole charge — so plain tasks pack into whatever the libraries
left, and a call's dispatch involves no resource arithmetic at all.
A call's own ``resources`` is derived, not declared: the control plane
stamps it at submit with one slot's share of the library's allocation
(``resources / function_slots``) for category accounting and the
journal, and placement never reads it.  To give calls more room, size
the library.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence

from repro.core.files import File
from repro.core.resources import Resources
from repro.core.task import Task

__all__ = ["Library", "LibraryTask", "FunctionCall"]


class Library:
    """A named collection of Python functions to deploy to workers.

    Functions are captured by reference; the manager serializes them
    (with dependencies) when building the deployment payload.  Function
    names must be unique within a library.
    """

    def __init__(self, name: str, functions: Sequence[Callable]) -> None:
        self.name = name
        self.functions: dict[str, Callable] = {}
        for fn in functions:
            fname = fn.__name__
            if fname in self.functions:
                raise ValueError(f"duplicate function {fname!r} in library {name!r}")
            self.functions[fname] = fn
        if not self.functions:
            raise ValueError(f"library {name!r} declares no functions")

    def function_names(self) -> list[str]:
        """Names invocable through this library, in declaration order."""
        return list(self.functions)

    @classmethod
    def from_names(cls, name: str, function_names: Sequence[str]) -> "Library":
        """A *shell* library: names only, no callables.

        Remote clients ship an already-serialized function table; the
        manager never unpickles it, so the Library object it keeps is a
        name-level description used for validation and routing while the
        opaque payload travels to workers verbatim.
        """
        lib = cls.__new__(cls)
        lib.name = name
        lib.functions = {}
        for fname in function_names:
            if fname in lib.functions:
                raise ValueError(f"duplicate function {fname!r} in library {name!r}")
            lib.functions[fname] = None
        if not lib.functions:
            raise ValueError(f"library {name!r} declares no functions")
        return lib

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Library {self.name} funcs={list(self.functions)}>"


class LibraryTask(Task):
    """The task that hosts a library instance on one worker.

    One LibraryTask is dispatched per worker during installation; it
    carries the serialized functions (and any attached environment
    files) as inputs, starts the instance, and then runs until removed
    or until the workflow ends.  ``resources`` is the instance's (and
    therefore all of its calls') charge against the worker's pool;
    ``function_slots`` bounds how many invocations share it at once.
    """

    def __init__(
        self,
        library: Library,
        resources: Optional[Resources] = None,
        function_slots: int = 1,
    ) -> None:
        super().__init__(f"library:{library.name}")
        self.library = library
        self.category = "library"
        self.function_slots = max(1, int(function_slots))
        if resources is not None:
            self.resources = resources

    @property
    def library_name(self) -> str:
        """The name function calls use to address this library."""
        return self.library.name


class FunctionCall(Task):
    """A lightweight invocation of a deployed library function.

    Scheduled like a task, but executed by message-passing to the
    resident library instance instead of spawning a fresh process tree.
    The deserialized return value is available via :meth:`output` once
    the call completes.

    The result envelope always lands in the executing worker's cache
    under :data:`RESULT_NAME`-derived content naming; it never rides
    the ``task_done`` reply.  By reference (:meth:`set_by_reference`,
    or any remote submission) only a ``ResultRef`` travels and
    ``output()`` yields a lazy ``ResultProxy``; otherwise the manager
    pulls the envelope back through the fetch plane and ``output()``
    is the value itself.
    """

    #: sandbox name of the result envelope output
    RESULT_NAME = "call_result.bin"
    #: a call is placed on a free slot of its library and takes nothing
    #: from the worker's pool: the library's allocation already paid
    pool_request = Resources(cores=0)

    def __init__(
        self,
        library_name: str,
        function_name: str,
        *args: Any,
        **kwargs: Any,
    ) -> None:
        super().__init__(f"call:{library_name}.{function_name}")
        self.library_name = library_name
        self.function_name = function_name
        self.args = args
        self.kwargs: Mapping[str, Any] = kwargs
        self.category = "function_call"
        self._output: Any = None
        self._output_set = False
        #: results stay in worker caches; output() is a ResultProxy
        self.by_reference = False
        #: remote form: the argument blob is a declared (staged) input
        #: rather than inline invoke payload bytes
        self.args_name: Optional[str] = None
        self.args_blob: Optional[bytes] = None

    def set_by_reference(self, flag: bool = True) -> "FunctionCall":
        """Keep the result in worker caches; ``output()`` is a proxy."""
        self.by_reference = bool(flag)
        return self

    def result_output(self) -> Optional[File]:
        """The result envelope output the real manager attaches at
        submit (None before that, and in the simulator)."""
        return next((f for n, f in self.outputs if n == self.RESULT_NAME), None)

    def value_output(self) -> Optional[File]:
        # by reference only a ResultRef travels; the envelope stays put
        return None if self.by_reference else self.result_output()

    def set_output_value(self, value: Any) -> None:
        """Record the function's return value (called by the manager)."""
        self._output = value
        self._output_set = True

    def output(self) -> Any:
        """Return value of the invocation; raises if not yet complete."""
        if not self._output_set:
            raise RuntimeError(f"function call {self.task_id} has no output yet")
        return self._output
