"""Effect vocabulary for runtime-agnostic concurrent algorithms.

The COS algorithms (paper Algorithms 2-7) are written as Python generators
that *yield* effect objects instead of calling blocking primitives directly.
An interpreter — the *runtime* — performs each effect and sends its result
back into the generator:

- :class:`~repro.core.threaded.ThreadedRuntime` performs effects with real
  ``threading`` primitives, so the algorithms run on OS threads
  (:class:`~repro.core.threaded.ThreadedCOS` runs the same generators
  rewritten, mechanically, into those calls).
- :class:`~repro.sim.runtime.SimRuntime` performs effects inside a
  deterministic discrete-event simulator, charging a cost model, so the same
  algorithm code yields the paper's performance experiments without being
  limited by the GIL.

Effects reference abstract primitive handles created through the runtime's
factory methods (see :mod:`repro.core.runtime`), never concrete locks.

Effects are deliberately plain ``__slots__`` classes rather than dataclasses:
tens of millions are constructed during a benchmark run and construction cost
dominates the simulator's inner loop.  Treat instances as immutable.
"""

from __future__ import annotations

from typing import Any, Tuple

__all__ = [
    "Effect",
    "Acquire",
    "Release",
    "Wait",
    "Signal",
    "SignalAll",
    "Down",
    "Up",
    "Load",
    "Store",
    "Cas",
    "Work",
    "effect_targets",
    "effect_is_read",
]


class Effect:
    """Base class for all effects."""

    __slots__ = ()


class Acquire(Effect):
    """Acquire a mutex, blocking until it is free.  Result: ``None``."""

    __slots__ = ("mutex",)

    def __init__(self, mutex: Any):
        self.mutex = mutex

    def __repr__(self) -> str:
        return f"Acquire({self.mutex!r})"


class Release(Effect):
    """Release a held mutex.  Result: ``None``."""

    __slots__ = ("mutex",)

    def __init__(self, mutex: Any):
        self.mutex = mutex

    def __repr__(self) -> str:
        return f"Release({self.mutex!r})"


class Wait(Effect):
    """Wait on a condition variable.

    The condition's mutex must be held; it is atomically released while
    waiting and re-acquired before the effect completes.  Result: ``None``.
    """

    __slots__ = ("condition",)

    def __init__(self, condition: Any):
        self.condition = condition

    def __repr__(self) -> str:
        return f"Wait({self.condition!r})"


class Signal(Effect):
    """Wake one waiter of a condition variable (mutex held).  Result: ``None``."""

    __slots__ = ("condition",)

    def __init__(self, condition: Any):
        self.condition = condition

    def __repr__(self) -> str:
        return f"Signal({self.condition!r})"


class SignalAll(Effect):
    """Wake all waiters of a condition variable (mutex held).  Result: ``None``."""

    __slots__ = ("condition",)

    def __init__(self, condition: Any):
        self.condition = condition

    def __repr__(self) -> str:
        return f"SignalAll({self.condition!r})"


class Down(Effect):
    """P() on a counting semaphore, blocking while its value is zero."""

    __slots__ = ("semaphore",)

    def __init__(self, semaphore: Any):
        self.semaphore = semaphore

    def __repr__(self) -> str:
        return f"Down({self.semaphore!r})"


class Up(Effect):
    """V() on a counting semaphore, ``amount`` times.  Result: ``None``."""

    __slots__ = ("semaphore", "amount")

    def __init__(self, semaphore: Any, amount: int = 1):
        self.semaphore = semaphore
        self.amount = amount

    def __repr__(self) -> str:
        return f"Up({self.semaphore!r}, {self.amount})"


class Load(Effect):
    """Atomically read an atomic cell.  Result: the cell's current value."""

    __slots__ = ("cell",)

    def __init__(self, cell: Any):
        self.cell = cell

    def __repr__(self) -> str:
        return f"Load({self.cell!r})"


class Store(Effect):
    """Atomically write ``value`` into an atomic cell.  Result: ``None``."""

    __slots__ = ("cell", "value")

    def __init__(self, cell: Any, value: Any):
        self.cell = cell
        self.value = value

    def __repr__(self) -> str:
        return f"Store({self.cell!r}, {self.value!r})"


class Cas(Effect):
    """Atomic compare-and-set on an atomic cell.

    If the cell's value *is* ``expected`` (reference identity, as Java's
    ``AtomicReference``; ``==`` would let a distinct-but-equal object
    win), replace it with ``new`` and return ``True``; otherwise leave it
    unchanged and return ``False``.  This is the paper's ``compareAndSet``
    (Alg. 6, line 12).
    """

    __slots__ = ("cell", "expected", "new")

    def __init__(self, cell: Any, expected: Any, new: Any):
        self.cell = cell
        self.expected = expected
        self.new = new

    def __repr__(self) -> str:
        return f"Cas({self.cell!r}, {self.expected!r} -> {self.new!r})"


class Work(Effect):
    """Consume computation time.

    In the simulator this advances virtual time by ``cost`` seconds; the
    threaded runtime treats it as a no-op because the interpreter's real
    Python execution already performs the corresponding work.  Algorithms
    use it to expose their dominant costs (node visits, conflict checks,
    command execution) to the cost model.  Result: ``None``.
    """

    __slots__ = ("cost",)

    def __init__(self, cost: float):
        self.cost = cost

    def __repr__(self) -> str:
        return f"Work({self.cost!r})"


def effect_targets(effect: Effect) -> Tuple[Any, ...]:
    """The primitive handles an effect touches, for independence analysis.

    Two effects performed by different processes *commute* (their order does
    not matter) unless their target sets intersect.  ``Work`` touches nothing;
    condition-variable effects touch both the condition and its mutex, because
    ``Wait`` releases the mutex and ``Signal``/``SignalAll`` requeue waiters
    onto it.
    """
    cls = type(effect)
    if cls is Work:
        return ()
    if cls is Load or cls is Store or cls is Cas:
        return (effect.cell,)
    if cls is Acquire or cls is Release:
        return (effect.mutex,)
    if cls is Down or cls is Up:
        return (effect.semaphore,)
    if cls is Wait or cls is Signal or cls is SignalAll:
        condition = effect.condition
        mutex = getattr(condition, "mutex", None)
        return (condition,) if mutex is None else (condition, mutex)
    raise TypeError(f"unknown effect {effect!r}")


def effect_is_read(effect: Effect) -> bool:
    """True for effects that only observe state (``Load``): two reads of the
    same handle commute, everything else on a shared handle does not."""
    return type(effect) is Load
