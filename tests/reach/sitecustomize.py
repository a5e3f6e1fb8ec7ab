"""Record every function a Python process enters (``tests/reach``).

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one, so this hook is on exactly when a command puts this
directory on ``PYTHONPATH``; child processes inherit that and are recorded
too.  Nothing under ``src/`` knows the hook exists.

Each code object is keyed by ``(co_filename, co_firstlineno)`` and written
the first time the process enters it, one line per code object, with one
unbuffered ``write`` to ``records/<pid>.tsv`` beside this file.  A process
killed with ``SIGKILL`` therefore keeps every record it made; a hook that
wrote at exit would lose them.  A forked child opens its own file.
"""

import os
import sys
import threading

_RECORDS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "records")
_seen = set()
_fd = -1


def _open():
    global _fd
    os.makedirs(_RECORDS, exist_ok=True)
    _fd = os.open(
        os.path.join(_RECORDS, f"{os.getpid()}.tsv"),
        os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
    )


def _entered(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            os.write(_fd, f"{code.co_filename}\t{code.co_firstlineno}\n".encode())


def _after_fork():
    # The parent's records are in the parent's file; the child's go to its own.
    os.close(_fd)
    _open()


_open()
os.register_at_fork(after_in_child=_after_fork)
threading.setprofile(_entered)
sys.setprofile(_entered)
