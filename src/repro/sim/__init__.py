"""Discrete-event simulation kernel.

A minimal, deterministic, generator-based kernel in the SimPy tradition:
:class:`~repro.sim.core.Environment` drives an event heap; processes are
generators yielding :class:`~repro.sim.events.Event` objects;
:class:`~repro.sim.resources.Resource` provides FIFO counted semaphores with
runtime resizing; and :class:`~repro.sim.processor.ContentionProcessor`
implements the state-dependent processor sharing that embodies the paper's
multi-threading service-time model.
"""

from repro.sim.core import Environment
from repro.sim.events import (
    Condition,
    Event,
    Interrupt,
    Process,
    Timeout,
    all_of,
    any_of,
)
from repro.sim.processor import ContentionProcessor
from repro.sim.resources import Acquire, Resource
from repro.sim.rng import RandomStreams

__all__ = [
    "Acquire",
    "Condition",
    "ContentionProcessor",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Resource",
    "Timeout",
    "all_of",
    "any_of",
]
