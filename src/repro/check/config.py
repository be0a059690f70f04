"""Runtime-check switch for the ``repro.check`` sanitizer.

The invariant sanitizer (see :mod:`repro.check.sanitizer` and the inline
hooks in ``sim``, ``ntier``, ``cluster``, and ``runner``) is off by default
so production sweeps pay nothing for it.  It is one switch: every check is
armed, or none is.  It is armed

* process-wide by the ``REPRO_CHECK=1`` environment variable (read once at
  import),
* programmatically via :func:`enable` / :func:`disable`, or
* lexically via the :func:`override` context manager (what the test-suite
  fixture uses).

Cold paths guard each check with :func:`enabled`.  The hot paths in
:mod:`repro.sim` and :mod:`repro.ntier.server` go one step further: they
cache :func:`enabled` in a module-level boolean and register a
:func:`subscribe` callback so the cached flag is re-resolved whenever the
switch changes (``enable``/``disable``/``override`` enter *and* exit).  A
disarmed check then costs a single global load per event instead of a
function call.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator, List

#: Environment values that mean "off" for ``REPRO_CHECK``.
_FALSEY = ("", "0", "false", "off", "no")


def _from_env() -> bool:
    # Process-level feature toggle: it decides whether checks run, never what
    # the simulation computes, so it is exempt from the environ-read lint.
    raw = os.environ.get("REPRO_CHECK", "")  # repro: noqa[DCM006]
    return raw.strip().lower() not in _FALSEY


_enabled: bool = _from_env()

#: Callbacks re-run on every switch change (see :func:`subscribe`).
_subscribers: List[Callable[[], None]] = []


def subscribe(callback: Callable[[], None]) -> None:
    """Invoke ``callback`` now and after every switch change.

    Hot-path modules use this to keep a cached :func:`enabled` boolean
    current instead of calling it per event.  The callback takes no
    arguments and should re-read :func:`enabled`.  Subscriptions are
    process-wide and permanent (modules subscribe once at import).
    """
    _subscribers.append(callback)
    callback()


def _set(armed: bool) -> None:
    global _enabled
    _enabled = armed
    for callback in _subscribers:
        callback()


def enabled() -> bool:
    """Whether the runtime checks are armed."""
    return _enabled


def enable() -> None:
    """Arm every runtime check process-wide."""
    _set(True)


def disable() -> None:
    """Disarm every runtime check process-wide."""
    _set(False)


@contextmanager
def override(armed: bool = True) -> Iterator[None]:
    """Temporarily arm (``True``) or disarm (``False``) every check;
    restores the previous state on exit."""
    previous = _enabled
    _set(bool(armed))
    try:
        yield
    finally:
        _set(previous)
