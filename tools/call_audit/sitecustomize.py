"""Call-profile hook loaded by ``tools/call_audit.py`` through PYTHONPATH.

Every interpreter that finds this file on its path (the CLI process and
any agent process it spawns) records the ``(co_filename, co_firstlineno)``
of each code object under the ``repro`` package that is called, and at
exit writes them to ``calls-<pid>.txt`` beside this file.
"""

import atexit
import importlib.util
import os
import sys
import threading


def _install() -> None:
    spec = importlib.util.find_spec("repro")
    if spec is None or spec.origin is None:
        return
    prefix = os.path.dirname(spec.origin) + os.sep
    seen = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen[code] = code.co_filename.startswith(prefix)

    def dump() -> None:
        sys.setprofile(None)
        threading.setprofile(None)
        out = os.path.join(os.path.dirname(__file__), f"calls-{os.getpid()}.txt")
        with open(out, "w") as handle:
            for code, ours in seen.items():
                if ours:
                    handle.write(f"{code.co_filename}\t{code.co_firstlineno}\n")

    atexit.register(dump)
    sys.setprofile(profile)
    threading.setprofile(profile)


_install()
