"""Opt-in wall-clock sampling profiler (``sys._current_frames`` ticker).

Nothing starts it by default: use a scoped ``with SamplingProfiler():``
block, or :func:`repro.obs.ensure_profiler` for the process-wide one.

A daemon thread wakes every ``interval`` seconds, snapshots every
thread's current Python frame stack, and charges the elapsed wall time
to the frames it sees: the leaf frame gets *self* time, every frame on
the stack gets *cumulative* time.  Because the sampled threads never
execute a single extra instruction, the overhead is the sampler
thread's own work — a few hundred microseconds per tick.

The sampler meters that work itself: every tick is timed, and the
snapshot reports the **duty cycle** (time inside ticks as a share of
the wall time sampled).  On a single core that ratio *is* the
wall-clock fraction stolen from the workload, so the "cheap enough to
run under a live workload" claim is asserted directly against it in
``BENCH_primitives.json`` (≤ 5% budget) instead of against off-vs-on
wall-clock differences, which on a noisy shared host cannot resolve a
sub-1% effect.

Attribution rides the context layer's thread-id → request-id map
(:func:`repro.obs.context.thread_request_id`): the sampler cannot read
another thread's contextvars, but it can read the side map, so every
sample also lands in a per-request bucket.

Output formats:

- :meth:`SamplingProfiler.collapsed` — collapsed-stack text
  (``mod:fn;mod:fn ms``), the flamegraph interchange format;
- :meth:`SamplingProfiler.render_report` — self/cumulative table per
  (module, function) plus the per-request breakdown.

All aggregation happens on the sampler thread; readers take the lock
and copy.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.context import thread_request_id

#: one aggregation key: (module, function)
FrameKey = Tuple[str, str]

#: frames from these modules are the sampler's own machinery and are
#: never charged to anyone
_SELF_MODULE = __name__


def _frame_stack(frame) -> List[FrameKey]:
    """Leaf-last (module, function) stack for one thread's current frame."""
    stack: List[FrameKey] = []
    while frame is not None:
        module = frame.f_globals.get("__name__", "?")
        stack.append((module, frame.f_code.co_name))
        frame = frame.f_back
    stack.reverse()  # root first, leaf last
    return stack


class SamplingProfiler:
    """Low-overhead wall-clock profiler over all live threads."""

    def __init__(self, interval: float = 0.01, max_stacks: int = 10000):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.max_stacks = max_stacks
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._self_ms: Dict[FrameKey, float] = {}
        self._cum_ms: Dict[FrameKey, float] = {}
        self._stacks: Dict[Tuple[FrameKey, ...], float] = {}
        self._request_ms: Dict[str, float] = {}
        self._samples = 0
        self._elapsed_ms = 0.0
        self._tick_cost_ms = 0.0

    # -- lifecycle ---------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stop.clear()
            # the sampler never carries a request context of its own — it
            # is infrastructure, not request work
            self._thread = threading.Thread(
                target=self._run, name="obs-sampler", daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float = 1.0) -> None:
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=timeout)

    # -- sampling loop -----------------------------------------------------------

    def _run(self) -> None:
        own_ident = threading.get_ident()
        last = time.monotonic()
        while not self._stop.wait(self.interval):
            now = time.monotonic()
            weight_ms = (now - last) * 1000.0
            last = now
            self._tick(own_ident, weight_ms)

    def _tick(self, own_ident: int, weight_ms: float) -> None:
        """Charge *weight_ms* of wall time to every live thread's stack."""
        started = time.perf_counter()
        frames = sys._current_frames()
        with self._lock:
            self._samples += 1
            self._elapsed_ms += weight_ms
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                stack = _frame_stack(frame)
                if not stack or stack[-1][0] == _SELF_MODULE:
                    continue
                # another instance's ticker (blocked in Event.wait) is
                # still sampler machinery — never charge it to anyone
                if any(module == _SELF_MODULE and function in ("_run", "_tick")
                       for module, function in stack):
                    continue
                leaf = stack[-1]
                self._self_ms[leaf] = self._self_ms.get(leaf, 0.0) + weight_ms
                for key in set(stack):  # each frame once, recursion-safe
                    self._cum_ms[key] = self._cum_ms.get(key, 0.0) + weight_ms
                if len(self._stacks) < self.max_stacks or tuple(stack) in self._stacks:
                    path = tuple(stack)
                    self._stacks[path] = self._stacks.get(path, 0.0) + weight_ms
                request_id = thread_request_id(ident)
                if request_id is not None:
                    self._request_ms[request_id] = (
                        self._request_ms.get(request_id, 0.0) + weight_ms)
            # self-metering: the sampler's entire cost lives inside this
            # method, so the accumulated tick time over the elapsed wall
            # time is its duty cycle — the overhead it imposes
            self._tick_cost_ms += (time.perf_counter() - started) * 1000.0

    # -- reading -----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready aggregate: totals, hotspots, per-request time."""
        with self._lock:
            self_ms = dict(self._self_ms)
            cum_ms = dict(self._cum_ms)
            request_ms = dict(self._request_ms)
            samples = self._samples
            elapsed_ms = self._elapsed_ms
            tick_cost_ms = self._tick_cost_ms
        functions = []
        for key in sorted(cum_ms, key=lambda k: -cum_ms[k]):
            module, function = key
            functions.append({
                "module": module,
                "function": function,
                "self_ms": round(self_ms.get(key, 0.0), 3),
                "cum_ms": round(cum_ms[key], 3),
            })
        return {
            "interval_s": self.interval,
            "samples": samples,
            "elapsed_ms": round(elapsed_ms, 3),
            "tick_cost_ms": round(tick_cost_ms, 3),
            "duty_cycle_pct": (round(tick_cost_ms / elapsed_ms * 100.0, 2)
                               if elapsed_ms else 0.0),
            "functions": functions,
            "requests": {rid: round(ms, 3)
                         for rid, ms in sorted(request_ms.items())},
        }

    def collapsed(self, min_ms: float = 0.0) -> str:
        """Collapsed-stack text: ``mod:fn;mod:fn <ms>`` per line.

        The weight is milliseconds (not sample counts) so reports from
        different intervals compare directly; feed to any flamegraph
        tool that accepts ``flamegraph.pl`` input.
        """
        with self._lock:
            stacks = dict(self._stacks)
        lines = []
        for path in sorted(stacks, key=lambda p: -stacks[p]):
            ms = stacks[path]
            if ms < min_ms:
                continue
            frames = ";".join(f"{module}:{function}" for module, function in path)
            lines.append(f"{frames} {ms:.3f}")
        return "\n".join(lines)

    def render_report(self, top: int = 25) -> str:
        """Self/cumulative hotspot table plus the per-request breakdown."""
        snap = self.snapshot()
        lines = [
            f"sampling profiler: {snap['samples']} samples @ "
            f"{self.interval * 1000:.1f}ms over {snap['elapsed_ms']:.0f}ms",
            "",
            f"{'self_ms':>10s}  {'cum_ms':>10s}  function",
        ]
        for entry in snap["functions"][:top]:
            lines.append(f"{entry['self_ms']:>10.1f}  {entry['cum_ms']:>10.1f}  "
                         f"{entry['module']}:{entry['function']}")
        if snap["requests"]:
            lines.append("")
            lines.append("per-request wall time:")
            for rid, ms in sorted(snap["requests"].items(),
                                  key=lambda kv: -kv[1]):
                lines.append(f"{ms:>10.1f}  {rid}")
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._self_ms.clear()
            self._cum_ms.clear()
            self._stacks.clear()
            self._request_ms.clear()
            self._samples = 0
            self._elapsed_ms = 0.0
            self._tick_cost_ms = 0.0

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
