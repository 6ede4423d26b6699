"""Host-speed probes: every timing is scaled to a reference host speed.

On the shared two-core reference host the same fixed piece of work takes
anywhere from 0.27 s to 0.49 s within one minute, and process CPU time
equals wall time throughout: neighbours slow the CPU down rather than take
it away.  A run-to-run spread of 15-30% on identical inputs follows.

Two probes owe nothing to the program under test and run right next to
the measured work:

- :func:`kernel`, a fixed pure-Python loop of about 1 ms, before and after
  each unit of a streamed scan round, every 30 ms on a thread during a
  batch scan round (:class:`Sampler`), and around each served request.  A
  measured time ``t`` with neighbouring probe times ``p`` is reported as
  ``t * REFERENCE_S / p``: the time the work would have taken on a host
  where the kernel takes :data:`REFERENCE_S`.  Where probes come in a
  series, ``p`` is the median of the neighbouring probes
  (:func:`local_probe`).  The correction is partial: over 430 alternating
  samples the log time of a fixed analysis varied with an SD of 0.25, and
  of the analysis over its neighbouring probes with an SD of 0.15.
- :func:`start_probe`, an isolated interpreter start that imports a fixed
  set of modules (numpy and the standard library, nothing from the
  checkout), between consecutive process starts.  The kernel predicts
  start-up time poorly (correlation 0.2 over 220 starts): start-up is
  imports, unmarshalling and page faults, not a hot loop.  The start probe
  tracks it (correlation 0.64-0.66 over 100 starts).  A start of ``t``
  between start probes ``p1`` and ``p2`` is reported as
  ``t * REFERENCE_START_S / mean(p1, p2)`` (:func:`start_times`).

A probe's own time is never counted as work.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time


#: kernel time on the reference host at its typical speed, run between units
#: of work as the benchmark runs it (CPython 3.11).
REFERENCE_S = 0.0012

_TEXT = (
    "var (((alpha + beta * (gamma - 12) / delta))); if (x < y) { call(a, b, c); }"
    " else { other[1] = 'str'; }\n"
) * 6


def kernel() -> float:
    """Seconds one run of the fixed kernel takes right now (about 1 ms)."""
    started = time.perf_counter()
    counts: dict[str, int] = {}
    word: list[str] = []
    for char in _TEXT:
        if char.isalnum() or char == "_":
            word.append(char)
            continue
        if word:
            key = "".join(word)
            counts[key] = counts.get(key, 0) + 1
            word = []
        counts[char] = counts.get(char, 0) + 1
    sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    [(index, str(index)) for index in range(3000)]
    return time.perf_counter() - started


def scaled(seconds: float, *probes: float) -> float:
    """``seconds`` at reference host speed, given the probe times around it."""
    return seconds * REFERENCE_S * len(probes) / sum(probes)


class Sampler:
    """Runs :func:`kernel` on a thread every ``interval`` seconds while a block runs.

    For work that cannot be cut into units from outside (a batch scan round
    is one call).  The kernel is shorter than the interpreter's switch
    interval, so it rarely shares its time with the work; its runs land in
    :attr:`probes`, and their sum is taken off the block's wall time.
    """

    def __init__(self, interval: float = 0.03) -> None:
        self.probes: list[float] = []
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        self.probes.append(kernel())
        while not self._stop.wait(self._interval):
            self.probes.append(kernel())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()


#: start probe time on the reference host at its typical speed.
REFERENCE_START_S = 0.24
_START_PROBE = "import numpy, json, pickle, email.parser, http.client, argparse, dataclasses"


def start_probe() -> float:
    """Seconds an isolated interpreter takes to start and import a fixed module set."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", _START_PROBE], check=True)
    return time.perf_counter() - started


def start_times(spawn_s: list[float], probes: list[float]) -> list[float]:
    """Process starts at reference host speed; start ``i`` ran between probes ``i``, ``i + 1``."""
    return [
        spawn * REFERENCE_START_S * 2 / (probes[index] + probes[index + 1])
        for index, spawn in enumerate(spawn_s)
    ]


def local_probe(probes: list[float], index: int, radius: int = 5) -> float:
    """Median of the probes within ``radius`` of ``index``.

    One probe can be hit by an interrupt; the median of its neighbours
    tracks the host's speed, which holds for a second or more, without
    that noise.
    """
    return statistics.median(probes[max(0, index - radius) : index + radius + 1])
