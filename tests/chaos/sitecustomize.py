"""Worker chaos for the fabric tests (``tests/chaos``).

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one, so this hook is on exactly when a command puts this
directory on ``PYTHONPATH`` (``helpers.arm_worker_chaos`` does, for the
lease workers a test spawns; CI's fabric job does for its chaos sweep).
Nothing under ``src/`` knows it exists.

When ``REPRO_WORKER_CHAOS_DIR`` and ``REPRO_WORKER_CHAOS_MODE`` are both
set, the leases that win the marker-file race in that directory misbehave
per mode, once they have streamed their first record: ``crash`` exits the
process hard, ``hang`` sleeps forever without dying, ``slow`` drags every
later trial by :data:`CHAOS_SLOW_S`.  The mode may be a comma-separated
list — ``crash,hang`` arms one lease per mode, in order — and each mode
fires exactly once per directory, so chaos tests are deterministic in
*what* is lost even though process scheduling is not.

The hook wraps ``repro.experiments.trials.run_trials``, which a worker's
lease handler binds when ``python -m repro.experiments.worker`` starts; the
inline backend bound it before, on package import, and runs clean.  The
next ``sitecustomize`` on ``sys.path`` (``tests/reach``'s, when the
reachability run executes CI's chaos sweep) is run first, so it still sees
every import.
"""

import importlib.util
import os
import sys
import time

#: Exit status of a chaos-crashed worker (distinct from argparse's 2).
CHAOS_EXIT_STATUS = 17

#: Per-trial drag of a chaos-slowed worker (straggler injection).
CHAOS_SLOW_S = 0.2

_KINDS = ("crash", "hang", "slow")


def _run_next_hook() -> None:
    """Run the ``sitecustomize`` Python would have found after this one."""
    here = os.path.dirname(os.path.abspath(__file__))
    entries = [os.path.abspath(entry or os.curdir) for entry in sys.path]
    for entry in entries[entries.index(here) + 1 :] if here in entries else []:
        path = os.path.join(entry, "sitecustomize.py")
        if entry != here and os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("_next_sitecustomize", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return


def _arm(chaos_dir: str, modes) -> str:
    """The mode this lease misbehaves in, or "" to run clean.

    Each marker file is created atomically, so across however many workers
    share the directory exactly one lease arms itself per configured mode;
    the rest (and every retry-wave lease) run clean.  The first mode's
    marker is named ``chaos-fired`` so callers can assert it fired.
    """
    for k, mode in enumerate(modes):
        marker = "chaos-fired" if k == 0 else f"chaos-fired-{k}"
        try:
            os.close(os.open(os.path.join(chaos_dir, marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except OSError:
            continue
        return mode
    return ""


def _install(chaos_dir: str, modes) -> None:
    from repro.experiments import trials

    run_trials = trials.run_trials

    def chaotic_run_trials(items):
        mode = _arm(chaos_dir, modes)
        for pair in run_trials(items):
            yield pair
            # Resumed: the lease streamed that record and wants the next.
            if mode == "crash":
                os._exit(CHAOS_EXIT_STATUS)
            elif mode == "hang":
                time.sleep(3600)
            elif mode == "slow":
                time.sleep(CHAOS_SLOW_S)

    trials.run_trials = chaotic_run_trials


_run_next_hook()
_chaos_dir = os.environ.get("REPRO_WORKER_CHAOS_DIR")
_modes = [m.strip() for m in os.environ.get("REPRO_WORKER_CHAOS_MODE", "").split(",") if m.strip()]
if _chaos_dir and _modes and all(mode in _KINDS for mode in _modes):
    _install(_chaos_dir, _modes)
