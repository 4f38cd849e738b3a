"""Durable job lifecycle journal for ``repro serve``.

One JSON line per job state transition, appended with ``fsync`` so a
record the server acknowledged survives a crash::

    {"id": "job-3", "status": "pending", "label": "edit-loop", ...}
    {"id": "job-3", "status": "running", ...}
    {"id": "job-3", "status": "done", "rows": [...], ...}

:meth:`JobJournal.replay` folds the lines back into one record per job
(later lines update earlier ones, exactly like the in-memory record) —
a restarted ``repro serve --journal DIR`` answers ``GET /jobs/<id>``
for every job that finished before the crash, and marks jobs the crash
caught mid-flight ``interrupted`` instead of silently forgetting them.
Only the final line of the file can ever be torn (appends are atomic
up to the fsync); unparsable lines are skipped, not fatal.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from typing import Dict, List, Tuple

#: Job statuses that no longer change (safe to evict from memory; a
#: replayed journal never resumes them).
TERMINAL_STATUSES = frozenset(
    {"done", "error", "cancelled", "timeout", "interrupted"})

_JOB_ID = re.compile(r"^job-(\d+)$")


class JobJournal:
    """Append-only JSON-lines journal of job state transitions."""

    FILENAME = "journal.jsonl"

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.path = os.path.join(directory, self.FILENAME)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, record: dict) -> None:
        """Durably append one transition (``record`` must carry "id")."""
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    # -- Replay -------------------------------------------------------------

    def replay(self) -> Tuple[Dict[str, dict], int]:
        """Fold the journal into final job records.

        Returns ``(records, last_id)`` where ``records`` maps job id to
        its merged record *in first-submission order* and ``last_id``
        is the highest numeric job id seen (0 when empty) — the
        restarted service continues numbering after it.  Jobs whose
        last journaled status is non-terminal were interrupted by a
        crash: they are marked ``status="interrupted"`` here **and**
        re-journaled by the caller via :meth:`mark_interrupted`, so a
        second restart replays them as terminal directly.
        """
        records: Dict[str, dict] = {}
        last_id = 0
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        update = json.loads(line)
                    except ValueError:
                        continue        # torn final line of a crash
                    if not isinstance(update, dict):
                        continue
                    job_id = update.get("id")
                    if not isinstance(job_id, str):
                        continue
                    match = _JOB_ID.match(job_id)
                    if match:
                        last_id = max(last_id, int(match.group(1)))
                    record = records.setdefault(job_id, {})
                    record.update(update)
        except FileNotFoundError:
            pass
        for record in records.values():
            if record.get("status") not in TERMINAL_STATUSES:
                record["status"] = "interrupted"
                record["error"] = ("server restarted while the job "
                                   "was in flight")
        return records, last_id

    def mark_interrupted(self, job_ids: List[str]) -> None:
        """Journal the interrupted verdict for crashed-in-flight jobs
        (so the *next* replay needs no inference)."""
        for job_id in job_ids:
            self.append({"id": job_id, "status": "interrupted",
                         "error": "server restarted while the job "
                                  "was in flight",
                         "time": time.time()})


