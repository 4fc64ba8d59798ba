"""Checkpoint/resume for the experiment harness.

A full paper table is a grid of benchmark × flow × bit-width cells,
each minutes of synthesis + ATPG; before this module a crash at cell
eleven of twelve lost everything.  A :class:`Journal` records each
completed cell as one JSON line — an O(1) fsynced append on the hot
path, an atomic write-temp-rename (:mod:`repro.runtime.atomic`) for
first creation and repair — so a crash loses at most the newest
record and the file always parses.  ``repro-hlts table*`` and
``bench`` grow ``--journal``/``--resume``: a resumed run replays
finished cells from the journal (restored as :class:`JournaledCell`,
which renders exactly like the live :class:`~repro.harness.experiment.
CellResult` it checkpoints) and computes only the remainder.  The
grid loop itself is :func:`repro.harness.parallel.run_parallel_grid`.

Everything a table needs is journaled — the flat ``row()`` dict plus
the pre-rendered allocation lines — so restoring never re-runs
synthesis, and deterministic fields of a resumed table are
byte-identical to an uninterrupted run (wall-clock seconds are the one
nondeterministic column; the chaos harness masks them when comparing).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .atomic import atomic_write_text
from .chaos import chaos_point

#: Journal format tag; bump on incompatible record changes.
JOURNAL_FORMAT = "repro-journal-v1"

#: (benchmark, flow, bits) — the identity of one table cell.
CellKey = tuple[str, str, int]


@dataclass
class JournaledCell:
    """A completed cell restored from the journal.

    Quacks like :class:`~repro.harness.experiment.CellResult` for table
    rendering: ``row()`` and the allocation lines are served verbatim
    from the journal record.
    """

    benchmark: str
    flow: str
    bits: int
    alloc_lines: list[str] = field(default_factory=list)
    row_data: dict[str, Any] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)

    def row(self) -> dict[str, Any]:
        return dict(self.row_data)

    @property
    def degradation(self) -> tuple[str, ...]:
        """Degradation reasons journaled with the cell (may be empty)."""
        return tuple(self.provenance.get("degradation", ()))


def cell_record(cell: Any, provenance: dict[str, Any] | None = None) -> dict:
    """Serialise one completed cell (live or restored) to a journal row."""
    if isinstance(cell, JournaledCell):
        alloc = list(cell.alloc_lines)
        provenance = {**cell.provenance, **(provenance or {})}
    else:
        from ..harness.tables import format_allocation
        alloc = format_allocation(cell)
    record = {
        "format": JOURNAL_FORMAT,
        "kind": "cell",
        "benchmark": cell.benchmark,
        "flow": cell.flow,
        "bits": cell.bits,
        "row": cell.row(),
        "alloc": alloc,
    }
    if provenance:
        record["provenance"] = provenance
    return record


def restore_cell(record: dict) -> JournaledCell:
    """Rebuild a render-ready cell from a journal record."""
    return JournaledCell(
        benchmark=record["benchmark"], flow=record["flow"],
        bits=int(record["bits"]), alloc_lines=list(record.get("alloc", [])),
        row_data=dict(record.get("row", {})),
        provenance=dict(record.get("provenance", {})))


def record_key(record: dict) -> CellKey:
    """The grid key of a journal record."""
    return (record["benchmark"], record["flow"], int(record["bits"]))


class Journal:
    """An append-only JSONL journal with crash-safe commits.

    :meth:`append` normally commits one record as a single
    ``write``+``fsync`` of one JSONL line — O(1) per commit, so journal
    writes do not serialise a parallel grid whose parent journals every
    completed cell.  The fast path is guarded by a header check (the
    file must start with a record carrying the journal's format tag and
    end on a newline); a missing, headerless or torn file falls back to
    the original atomic whole-file rewrite (write-temp, fsync, rename),
    which also serves first creation and :meth:`compact`.  A crash
    mid-append can tear at most the newest line, which :meth:`records`
    drops — exactly the loses-at-most-one-record contract the
    ``journal.pre_write`` chaos seam (sitting right before either
    write) proves.

    ``fmt`` and ``seam`` parameterise the format tag the header check
    demands and the chaos seam visited before every commit, so other
    append-only ledgers (the service WAL in
    :mod:`repro.service.ledger`) reuse the identical crash contract
    under their own seam.
    """

    def __init__(self, path: str | Path, *,
                 fmt: str = JOURNAL_FORMAT,
                 seam: str = "journal.pre_write") -> None:
        self.path = Path(path)
        self.fmt = fmt
        self.seam = seam

    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """Every journaled record ([] when the file does not exist).

        A torn *final* line (an append cut down by a crash) is dropped
        silently — losing at most the newest record is the journal's
        documented crash contract.  Corruption anywhere else still
        raises: that is damage, not an interrupted append.
        """
        if not self.path.exists():
            return []
        records = []
        lines = self.path.read_text().splitlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                if index == len(lines) - 1:
                    break  # torn tail from a crashed append
                raise
        return records

    def completed_cells(self) -> dict[CellKey, dict]:
        """Finished cells by grid key (later records win)."""
        return {record_key(r): r for r in self.records()
                if r.get("kind") == "cell"}

    def _appendable(self) -> bool:
        """Can :meth:`append` take the O(1) fast path?

        True only when the file already starts with a well-formed
        record of our format *and* ends on a newline (no torn tail).
        """
        try:
            with open(self.path, "rb") as handle:
                head = handle.readline()
                if not head.endswith(b"\n"):
                    return False
                first = json.loads(head)
                if not (isinstance(first, dict)
                        and first.get("format") == self.fmt):
                    return False
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) == b"\n"
        except (OSError, ValueError):
            return False

    def append(self, record: dict) -> None:
        """Commit one record (O(1) append, or full rewrite on repair)."""
        line = json.dumps(record, sort_keys=True)
        chaos_point(self.seam)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._appendable():
            with open(self.path, "a") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            return
        lines = [json.dumps(r, sort_keys=True) for r in self.records()]
        lines.append(line)
        atomic_write_text(self.path, "\n".join(lines) + "\n")

    def compact(self) -> None:
        """Atomically rewrite the file from its parsed records.

        Repairs a torn tail and re-canonicalises every line; a no-op
        for a journal that never crashed mid-append.
        """
        lines = [json.dumps(r, sort_keys=True) for r in self.records()]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        text = "\n".join(lines) + "\n" if lines else ""
        atomic_write_text(self.path, text)


def scrubbed_records(records: list[dict],
                     mask: tuple[str, ...] = ("tg_seconds",)) -> str:
    """Journal records as canonical bytes for equivalence checks.

    Sorts cell records by grid key (a parallel run journals completions
    in finish order, not grid order) and masks the wall-clock columns —
    the one nondeterministic field of a row — so two runs of the same
    grid compare byte-identical exactly when their deterministic
    content matches.
    """
    scrubbed = []
    for record in records:
        record = json.loads(json.dumps(record))  # deep copy
        if isinstance(record.get("row"), dict):
            for column in mask:
                record["row"].pop(column, None)
        record.pop("provenance", None)
        scrubbed.append(record)
    scrubbed.sort(key=lambda r: (str(r.get("kind")), str(r.get("benchmark")),
                                 str(r.get("flow")), int(r.get("bits", 0))))
    return "\n".join(json.dumps(r, sort_keys=True) for r in scrubbed)

