"""Records which code objects under one source root a process calls.

``site`` imports this module at start-up in every interpreter that has
this directory on ``PYTHONPATH`` -- so also in every child process the
traced program starts.  With ``REACH_TRACE_DIR`` and ``REACH_TRACE_ROOT``
set, each code object whose file lies under the root is written to
``REACH_TRACE_DIR/trace-<pid>.txt`` as ``file<TAB>first line`` the first
time it is called.  Each line is one unbuffered ``os.write``, so a
process that is killed loses nothing it already called.  Without the
two variables this module does nothing.
"""

import os
import sys
import threading


def _install(out_dir: str, root: str) -> None:
    path = os.path.join(out_dir, "trace-%d.txt" % os.getpid())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    # Keyed by id(); the value keeps the code object alive, so an id is
    # never reused by a later code object.
    seen = {}

    def trace(frame, event, arg):
        code = frame.f_code
        if id(code) not in seen:
            seen[id(code)] = code
            if code.co_filename.startswith(root):
                line = "%s\t%d\n" % (code.co_filename, code.co_firstlineno)
                os.write(fd, line.encode("utf-8"))
        return None  # no per-line tracing inside the frame

    sys.settrace(trace)
    threading.settrace(trace)


if os.environ.get("REACH_TRACE_DIR") and os.environ.get("REACH_TRACE_ROOT"):
    _install(os.environ["REACH_TRACE_DIR"], os.environ["REACH_TRACE_ROOT"])
