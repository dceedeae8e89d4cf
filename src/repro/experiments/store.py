"""Content-addressed result store: ``.repro-cache/`` JSON records.

Every scenario's record lives at ``<root>/<key[:2]>/<key>.json`` where
``key`` is the scenario's content hash (spec + schema version, see
:meth:`ScenarioSpec.key`).  Records are plain JSON so they are diffable,
greppable, and safe to commit as golden baselines; writes are atomic
(tmp file + rename) so parallel workers and concurrent CI jobs never
observe a torn record.

The same store holds sweep-level records (assembled
:class:`~repro.bench.harness.FigureResult` payloads keyed by the sweep's
content hash), so a fully cached ``report`` never re-runs assembly inputs.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Union

from ..obs.metrics import get_metrics
from .specs import ScenarioSpec, SweepSpec

__all__ = ["RECORD_SCHEMA", "DEFAULT_CACHE_DIR", "ResultStore"]

RECORD_SCHEMA = "repro.experiments.record/v1"
DEFAULT_CACHE_DIR = ".repro-cache"


class ResultStore:
    """A directory of content-addressed scenario/sweep result records."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self._root = os.fspath(self.root)

    # -- paths ---------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return Path(self._file(key))

    def _file(self, key: str) -> str:
        # Plain string joins: a warm re-run resolves one path per scenario,
        # and two pathlib ``/`` per record cost more than the read itself.
        return os.path.join(self._root, key[:2], key + ".json")

    # -- scenario records ----------------------------------------------

    def get(self, spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
        """Cached result payload for ``spec``, or ``None`` on a miss.

        Unreadable or schema-mismatched records count as misses (the
        scenario simply re-runs and overwrites them).
        """
        record = self._read(spec.key())
        if record is None or record.get("runner") != spec.runner:
            return None
        return record.get("result")

    def put(self, spec: ScenarioSpec, result: Mapping[str, Any]
            ) -> Dict[str, Any]:
        """Store ``result`` for ``spec``; returns the full record."""
        record = {
            "schema": RECORD_SCHEMA,
            "key": spec.key(),
            "runner": spec.runner,
            "label": spec.label,
            "params": spec.params,
            "result": dict(result),
        }
        self._write(spec.key(), record)
        return record

    # -- sweep records (assembled FigureResult payloads) ---------------

    def get_sweep(self, sweep: SweepSpec) -> Optional[Dict[str, Any]]:
        """Cached assembled-figure payload for ``sweep``, if any."""
        record = self._read(sweep.key())
        if record is None or record.get("sweep") != sweep.name:
            return None
        return record.get("figure")

    def put_sweep(self, sweep: SweepSpec, figure_payload: Mapping[str, Any]
                  ) -> Dict[str, Any]:
        """Store a sweep's assembled figure (JSON export) as its record."""
        record = {
            "schema": RECORD_SCHEMA,
            "key": sweep.key(),
            "sweep": sweep.name,
            "figure": dict(figure_payload),
        }
        self._write(sweep.key(), record)
        return record

    # -- bulk ----------------------------------------------------------

    def keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return
        for sub in sorted(self.root.iterdir()):
            if not sub.is_dir():
                continue
            for path in sorted(sub.glob("*.json")):
                yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> int:
        """Delete every record; returns the number removed."""
        removed = 0
        for key in list(self.keys()):
            self.path_for(key).unlink(missing_ok=True)
            removed += 1
        return removed

    # -- plumbing ------------------------------------------------------

    def _read(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._file(key), "rb") as f:
                data = f.read()
            record = json.loads(data.decode("utf-8"))
        except (OSError, ValueError):
            return None
        m = get_metrics()
        if m.enabled:
            m.inc("store.reads")
            m.inc("store.read_bytes", len(data))
        if not isinstance(record, dict) or record.get("schema") != RECORD_SCHEMA:
            return None
        if record.get("key") != key:
            return None
        return record

    def _write(self, key: str, record: Mapping[str, Any]) -> None:
        path = self._file(key)
        shard = os.path.dirname(path)
        os.makedirs(shard, exist_ok=True)
        # Serialized up front (byte-identical to streaming json.dump) so the
        # write can be metered without a second encode.
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
        fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(text)
            os.replace(tmp, path)
            m = get_metrics()
            if m.enabled:
                m.inc("store.writes")
                m.inc("store.write_bytes", len(text.encode("utf-8")))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
