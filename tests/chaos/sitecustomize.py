"""Worker chaos for the pool tests (``tests/chaos``).

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one, so this hook is on exactly when a command puts this
directory on ``PYTHONPATH`` (``helpers.arm_worker_chaos`` does, for the
pool children a test spawns; CI's pool job does for its chaos sweep).
Nothing under ``src/`` knows it exists.

It arms only in a ``pool`` backend's child — a process that
``multiprocessing``'s ``spawn`` started, marked by ``--multiprocessing-fork``
on its command line — and only when ``REPRO_WORKER_CHAOS_DIR`` is set.  Its
one mode is a crash.  From a child's second task on, each task races for
the marker file ``chaos-fired`` in that directory; the one task that wins
exits its process hard after its first record.  So the crash always
follows finished work, and fires exactly once per directory: a re-run
with the same directory runs clean.

The hook wraps the ``run_trials`` that ``repro.experiments.backends`` calls
in that child; the parent's backends are untouched.  The next
``sitecustomize`` on ``sys.path`` (``tests/reach``'s, when the
reachability run executes CI's chaos sweep) is run first, so it still sees
every import.
"""

import importlib.util
import os
import sys

#: Exit status of a chaos-crashed worker.
CHAOS_EXIT_STATUS = 17


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


def _wins_marker(chaos_dir: str) -> bool:
    """Whether this task creates the marker (atomically: one winner)."""
    try:
        os.close(
            os.open(
                os.path.join(chaos_dir, "chaos-fired"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        )
    except OSError:
        return False
    return True


def _install(chaos_dir: str) -> None:
    from repro.experiments import backends

    run_trials = backends.run_trials
    tasks = [0]

    def chaotic_run_trials(items):
        tasks[0] += 1
        armed = tasks[0] > 1 and _wins_marker(chaos_dir)
        for pair in run_trials(items):
            yield pair
            if armed:
                os._exit(CHAOS_EXIT_STATUS)

    backends.run_trials = chaotic_run_trials


_run_next_hook()
_chaos_dir = os.environ.get("REPRO_WORKER_CHAOS_DIR")
if _chaos_dir and "--multiprocessing-fork" in sys.argv:
    _install(_chaos_dir)
