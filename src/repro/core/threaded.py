"""Threaded runtime: the COS kernels on real OS threads, two executors.

Each effect maps onto one ``threading`` call, so the COS algorithms run as
genuinely concurrent Python code.  Under CPython's GIL this cannot
demonstrate multi-core *speedup* (see DESIGN.md §2), but it does exercise
real interleavings, which is what the correctness tests need, and it is a
perfectly usable in-process scheduler for I/O-bound services.

One kernel source (the effect generators the DES and ``repro check``
interpret), two executors: :meth:`ThreadedRuntime.run` is the *reference
interpreter*, a trampoline performing each yielded effect through
``_handlers``; :class:`ThreadedCOS` calls plain methods derived mechanically
from the same source (:func:`direct_class`) and pays no generator hop per
primitive.  No fallback and no switch: a kernel the rewrite cannot handle
raises ``TypeError`` when its ``ThreadedCOS`` is built (docs/scheduling.md;
tests/test_direct_executor.py holds the two executors equal).
"""

from __future__ import annotations

import ast
import inspect
import linecache
import textwrap
import threading
from typing import Any, Callable, Dict, Optional, Type

from repro.core.command import Command
from repro.core.cos import COS
from repro.core.effects import (
    Acquire,
    Cas,
    Down,
    Effect,
    Load,
    Release,
    Signal,
    SignalAll,
    Store,
    Up,
    Wait,
    Work,
)
from repro.core.runtime import AtomicCell, Condition, EffectGen, Mutex, Runtime, Semaphore

__all__ = ["ThreadedRuntime", "ThreadedCOS"]


class _ThreadedMutex(Mutex):
    __slots__ = ("lock",)

    def __init__(self) -> None:
        self.lock = threading.Lock()


class _ThreadedSemaphore(Semaphore):
    __slots__ = ("sem",)

    def __init__(self, initial: int) -> None:
        self.sem = threading.Semaphore(initial)


class _ThreadedCondition(Condition):
    __slots__ = ("cv",)

    def __init__(self, mutex: _ThreadedMutex) -> None:
        self.cv = threading.Condition(mutex.lock)


class _ThreadedAtomic(AtomicCell):
    """Atomic cell backed by the GIL for load/store and a lock for CAS.

    Attribute reads/writes of a Python object are atomic under the GIL;
    compare-and-set needs a lock to make the read-modify-write step atomic.
    One lock is shared per runtime — CAS throughput is GIL-bound anyway and
    per-cell locks would triple the memory footprint of graph nodes.
    """

    __slots__ = ("value", "_cas_lock")

    def __init__(self, initial: Any, cas_lock: threading.Lock) -> None:
        self.value = initial
        self._cas_lock = cas_lock

    def compare_and_set(self, expected: Any, new: Any) -> bool:
        # Reference CAS (Java AtomicReference semantics): the paper's
        # lock-free graph CASes object identities, and ``==`` would let a
        # CAS succeed against a distinct-but-equal object.
        with self._cas_lock:
            if self.value is expected:
                self.value = new
                return True
            return False


class ThreadedRuntime(Runtime):
    """Runtime executing effect generators with ``threading`` primitives."""

    def __init__(self) -> None:
        self._cas_lock = threading.Lock()
        self._handlers: Dict[Type[Effect], Callable[[Any], Any]] = {
            Acquire: lambda e: e.mutex.lock.acquire(),
            Release: lambda e: e.mutex.lock.release(),
            Wait: lambda e: e.condition.cv.wait(),
            Signal: lambda e: e.condition.cv.notify(),
            SignalAll: lambda e: e.condition.cv.notify_all(),
            Down: lambda e: e.semaphore.sem.acquire(),
            Up: self._up,
            Load: lambda e: e.cell.value,
            Store: self._store,
            Cas: lambda e: e.cell.compare_and_set(e.expected, e.new),
            Work: lambda e: None,
        }

    # ------------------------------------------------------------ factories

    def mutex(self) -> Mutex:
        return _ThreadedMutex()

    def semaphore(self, initial: int = 0) -> Semaphore:
        return _ThreadedSemaphore(initial)

    def condition(self, mutex: Mutex) -> Condition:
        return _ThreadedCondition(mutex)

    def atomic(self, initial: Any = None) -> AtomicCell:
        return _ThreadedAtomic(initial, self._cas_lock)

    # ------------------------------------------------------------ execution

    @staticmethod
    def _up(effect: Up) -> None:
        effect.semaphore.sem.release(effect.amount)

    @staticmethod
    def _store(effect: Store) -> None:
        effect.cell.value = effect.value

    def run(self, gen: EffectGen) -> Any:
        """Drive an effect generator to completion on the calling thread."""
        handlers = self._handlers
        result = None
        while True:
            try:
                effect = gen.send(result)
            except StopIteration as stop:
                return stop.value
            result = handlers[type(effect)](effect)


# ------------------------------------------------ direct specialisation

#: ``ThreadedRuntime._handlers`` as source text over each effect's
#: constructor arguments.  ``Store`` and ``Work`` are statements (no result).
_DIRECT_SOURCE: Dict[Type[Effect], Callable[..., str]] = {
    Acquire: lambda mutex: f"{mutex}.lock.acquire()",
    Release: lambda mutex: f"{mutex}.lock.release()",
    Wait: lambda condition: f"{condition}.cv.wait()",
    Signal: lambda condition: f"{condition}.cv.notify()",
    SignalAll: lambda condition: f"{condition}.cv.notify_all()",
    Down: lambda semaphore: f"{semaphore}.sem.acquire()",
    Up: lambda semaphore, amount="1": f"{semaphore}.sem.release({amount})",
    Load: lambda cell: f"{cell}.value",
    Store: lambda cell, value: f"{cell}.value = {value}",
    Cas: lambda cell, old, new: f"{cell}.compare_and_set({old}, {new})",
    Work: lambda cost: "pass",
}


class _DirectRewriter(ast.NodeTransformer):
    """Rewrites the AST of one effect-generator method into a plain one."""

    def __init__(self, fn: Callable):
        self.where = f"{fn.__module__}.{fn.__qualname__}"
        self._globals = fn.__globals__
        #: ``get``'s leading ``yield Down(...)``, made non-blocking (try_get).
        self.probe: Optional[ast.Expr] = None

    def fail(self, node: ast.AST, why: str) -> None:
        raise TypeError(f"cannot run {self.where} directly "
                        f"(line {getattr(node, 'lineno', '?')}): {why}")

    def effect_of(self, node: ast.AST) -> Optional[Type[Effect]]:
        """The effect class a ``yield Effect(...)`` expression constructs."""
        call = getattr(node, "value", None)
        if (isinstance(node, ast.Yield) and isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)):
            return self._globals.get(call.func.id)
        return None

    def _perform(self, node: ast.Yield, mode: str) -> Any:
        effect = self.effect_of(node)
        if effect not in _DIRECT_SOURCE or node.value.keywords:
            self.fail(node, "not a `yield <Effect>(positional arguments)`")
        args = [f"({ast.unparse(self.visit(a))})" for a in node.value.args]
        try:
            return ast.parse(_DIRECT_SOURCE[effect](*args), mode=mode).body
        except (TypeError, SyntaxError) as error:  # arity; Store as a value
            self.fail(node, f"{effect.__name__}: {error}")

    def visit_Expr(self, node: ast.Expr) -> Any:
        if not isinstance(node.value, ast.Yield):
            return self.generic_visit(node)
        statement, = self._perform(node.value, "exec")
        if node is self.probe:
            statement.value.args.append(ast.Constant(False))
            statement = ast.If(ast.UnaryOp(ast.Not(), statement.value),
                               [ast.Return(ast.Constant(None))], [])
        return statement

    def visit_Yield(self, node: ast.Yield) -> Any:
        return self._perform(node, "eval")

    def visit_YieldFrom(self, node: ast.YieldFrom) -> Any:
        call = node.value
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "self"):
            self.fail(node, "`yield from` must delegate to self.<method>(...)")
        return self.generic_visit(call)


def _translate(fn: Callable, probe: bool = False) -> Callable:
    """The plain function doing what :meth:`ThreadedRuntime.run` does with
    generator function ``fn``.  ``probe`` (a kernel's ``get`` only) builds
    ``try_get`` instead: if the first effect ``get`` can perform is
    statically a ``Down``, that acquire becomes non-blocking and returns
    ``None`` on failure; any other first effect (mutex-first coarse-grained
    could block *holding* the graph mutex) makes the probe ``return None``.
    """
    rewriter = _DirectRewriter(fn)
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    func = tree.body[0]
    if fn.__closure__ or func.decorator_list:
        rewriter.fail(func, "closures (zero-argument super() is one) and "
                            "decorators do not translate")
    func.returns = None
    if probe:
        func.name = "try_get"
        first = next((stmt for stmt in func.body if any(
            isinstance(sub, (ast.Yield, ast.YieldFrom))
            for sub in ast.walk(stmt))), None)
        if (isinstance(first, ast.Expr)
                and rewriter.effect_of(first.value) is Down):
            rewriter.probe = first
        else:
            func.body = [ast.Return(ast.Constant(None))]
    source = ast.unparse(rewriter.visit(tree))
    # Registered with linecache so tracebacks through direct code show it.
    filename = f"<direct {rewriter.where}{' probe' if probe else ''}>"
    linecache.cache[filename] = (
        len(source), None, source.splitlines(True), filename)
    namespace: Dict[str, Any] = {}
    # compile() inherits this module's ``annotations`` future, so the
    # kernel's parameter annotations stay unevaluated strings.
    exec(compile(source, filename, "exec"), fn.__globals__, namespace)
    return namespace[func.name]


_DIRECT_CLASSES: Dict[type, type] = {}


def direct_class(kernel: Type[COS]) -> type:
    """The subclass of ``kernel`` whose effect-generator methods (its own
    and inherited ones) are replaced by their direct translations, plus
    ``try_get``.  Built once per process per kernel class (~13 ms)."""
    direct = _DIRECT_CLASSES.get(kernel)
    if direct is None:
        methods = {name: _translate(fn) for name, fn in inspect.getmembers(
            kernel, inspect.isgeneratorfunction)}
        for name in ("insert", "get", "remove"):
            if name not in methods:
                raise TypeError(f"{kernel.__name__}.{name} is not an "
                                f"effect-generator method")
        methods["try_get"] = _translate(kernel.get, probe=True)
        direct = _DIRECT_CLASSES.setdefault(
            kernel, type(f"Direct{kernel.__name__}", (kernel,), methods))
    return direct


class ThreadedCOS:
    """Blocking facade over a COS for plain multithreaded Python code.

    Example::

        runtime = ThreadedRuntime()
        cos = ThreadedCOS(LockFreeCOS(runtime, ReadWriteConflicts()), runtime)
        cos.insert(cmd)            # scheduler thread
        handle = cos.get()         # worker thread, blocks until ready
        ...execute...
        cos.remove(handle)
    """

    def __init__(self, cos: COS, runtime: ThreadedRuntime):
        self._cos = cos
        # A *view* of the kernel: an instance of its direct class sharing
        # its attribute dict — one state; ``cos`` stays interpretable.
        # (``runtime`` made the kernel's primitives; nothing is left to run.)
        self._direct = object.__new__(direct_class(type(cos)))
        self._direct.__dict__ = cos.__dict__

    @property
    def algorithm(self) -> COS:
        """The underlying effect-generator implementation."""
        return self._cos

    def insert(self, cmd: Command) -> None:
        self._direct.insert(cmd)

    def get(self) -> Any:
        return self._direct.get()

    def try_get(self) -> Any:
        """Non-blocking :meth:`get`: a ready handle, or ``None``.

        The ready-counting algorithms (sequential, class-based,
        fine-grained, lock-free, indexed, early) all open ``get()`` by
        downing their ready semaphore, so the probe is a non-blocking
        acquire on it: on success the rest of ``get`` runs exactly as
        under :meth:`get`.  An algorithm whose first effect is anything
        else is not probeable and always answers ``None`` — callers
        degrade to batches of one (see :func:`_translate`).
        """
        return self._direct.try_get()

    def get_batch(self, max_size: int) -> list:
        """One blocking :meth:`get` plus up to ``max_size - 1`` ready
        handles drained without blocking.  Commands behind the returned
        handles are pairwise non-conflicting (they are all simultaneously
        ready), so they may be executed in any order — or batched."""
        handles = [self.get()]
        while len(handles) < max_size:
            handle = self.try_get()
            if handle is None:
                break
            handles.append(handle)
        return handles

    def remove(self, handle: Any) -> None:
        self._direct.remove(handle)

    def command_of(self, handle: Any) -> Command:
        return self._cos.command_of(handle)
