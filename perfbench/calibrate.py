"""The machine's speed of the moment, measured next to every operation.

On a shared virtual machine the speed of one core moves by up to 2x in
phases of seconds to minutes, and the thread's CPU time moves with its
wall time, so neither the best time of a run nor CPU time can hide a slow
phase longer than the run. The benchmark therefore runs a fixed
calibration kernel just before each operation and reports the
operation's time scaled to a reference speed: the speed at which one call
of the kernel takes ``KERNEL_MS``. A slow phase stretches the operation
and the kernel beside it alike, so the scaled time stays put, while a
change to nihdl moves the operation and leaves the kernel as it is.

The kernel is pure Python of the kind nihdl runs: a character-by-character
lexer over a fixed description-like text, small slotted objects, a regular
expression, dictionary counting. It is part of the benchmark, so a change
to nihdl cannot change it, and it runs with the cyclic collector paused,
so a larger nihdl heap cannot slow it.
"""

from __future__ import annotations

import gc
import re
from time import perf_counter

# One kernel call at the reference speed, in milliseconds. A scaled time
# is "milliseconds at the speed at which one kernel call takes 1 ms",
# about the kernel's own time between nihdl operations on the 2-vCPU
# machine whose figures the README gives.
KERNEL_MS = 1.0

_WORD = re.compile(r"[A-Za-z][A-Za-z0-9-]*")
_TEXT = "\n".join(
    f'method "m-{i}" {{ source "S{i % 7}" year {1990 + i % 30} '
    f'general {{ pattern {{ path "A / B{i % 5} / C" }} status full }} # note {i}\n}}'
    for i in range(40))
_PUNCT = {"{": 1, "}": 2}


class _Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: int, text: str, line: int) -> None:
        self.kind = kind
        self.text = text
        self.line = line


def kernel(text: str = _TEXT) -> tuple[int, int]:
    """Lex ``text`` and count distinct token texts; returns both counts."""
    tokens = []
    pos, n, line = 0, len(text), 1
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            line += 1
            pos += 1
        elif ch == " ":
            pos += 1
        elif ch == "#":
            while pos < n and text[pos] != "\n":
                pos += 1
        elif ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line))
            pos += 1
        elif ch == '"':
            buf = []
            pos += 1
            while text[pos] != '"':
                buf.append(text[pos])
                pos += 1
            pos += 1
            tokens.append(_Token(3, "".join(buf), line))
        else:
            m = _WORD.match(text, pos)
            if m is None:
                pos += 1
                continue
            tokens.append(_Token(4, m.group(), line))
            pos = m.end()
    counts: dict[str, int] = {}
    for tok in tokens:
        counts[tok.text] = counts.get(tok.text, 0) + 1
    return len(tokens), len(counts)


EXPECTED = kernel()


def probe(calls: int) -> float:
    """Seconds per kernel call, over ``calls`` calls."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(calls):
            result = kernel()
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"calibration kernel returned {result}, not {EXPECTED}")
    return elapsed / calls


def slowdown(kernel_seconds: float) -> float:
    """How much slower than the reference speed a kernel time shows the
    machine to be; divide a time measured beside it by this."""
    return kernel_seconds * 1e3 / KERNEL_MS
