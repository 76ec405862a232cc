"""Process-group inspection shared by the orphan-hygiene tests (Linux)."""

import os


def live_members(pgid):
    """Pids of live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # "pid (comm) state ppid pgrp ..." — comm may hold spaces
                state, _ppid, pgrp = f.read().rpartition(")")[2].split()[:3]
        except OSError:
            continue  # exited while we looked
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members
