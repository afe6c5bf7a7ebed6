"""Whole-file writes: a reader sees the old bytes or the new, never a mix.

Every file a campaign persists goes through :func:`write_atomic`: the
bytes go to a temporary name in the target's directory, which is then
renamed over the target.  The temporary name is unique per process *and*
thread (``repro serve`` coordinators write shared cache entries from
threads of one process), and a writer that fails removes it.  A writer
killed outright leaves it behind; :func:`is_temp` tells such a file from
data, for code that lists a directory.
"""

from __future__ import annotations

import os
import re
import threading

_TEMP = re.compile(r"\.tmp\.\d+\.\d+$")


def write_atomic(path: str | os.PathLike, *chunks: bytes) -> None:
    """Write ``chunks``, in order, as the whole content of ``path``."""
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def is_temp(name: str) -> bool:
    """Whether ``name`` is the temporary file of a :func:`write_atomic`."""
    return _TEMP.search(name) is not None
