"""Policy artifacts: compressed schedulers plus provenance, on disk.

A :class:`PolicyArtifact` bundles a :class:`~repro.policy.store.CompressedDecisions`
table with the provenance a consumer needs to trust it -- the content
address of the model it was extracted from, the objective, horizon and
ε of the query, the value the solver reported, and the solver's
:class:`~repro.obs.certificate.NumericalCertificate`.  Artifacts are
content-addressed themselves: :func:`policy_key` hashes the canonical
metadata together with the raw decision arrays, so two extractions
agree if and only if their keys agree.

On-disk format (``.rpol``)::

    bytes 0..8    magic  b"RPOLICY1"
    bytes 8..16   u64 little-endian: JSON header length H
    bytes 16..16+H  UTF-8 JSON header: {"meta", "certificate", "layout",
                    "arrays": [{"name", "dtype", "offset", "count"}, ...]}
    ...           each array's raw little-endian bytes, 64-byte aligned

The arrays are written contiguously and 64-byte aligned, so
:func:`load_artifact` can hand ``numpy.memmap`` views straight to the
store -- loading a 62k-step policy touches only the header until rows
are actually decoded.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

import numpy as np

from repro.errors import ModelError
from repro.obs.certificate import NumericalCertificate
from repro.policy.store import CompressedDecisions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.ctmdp import CTMDP

__all__ = [
    "MAGIC",
    "PolicyArtifact",
    "load_artifact",
    "model_digest",
    "policy_key",
    "save_artifact",
]

MAGIC = b"RPOLICY1"
_ALIGN = 64

#: Metadata fields every artifact carries (extra fields are allowed and
#: participate in the hash, but these are validated on construction).
_REQUIRED_META = ("model_key", "objective", "t", "epsilon", "value")


def _canonical_meta_json(meta: Mapping[str, Any]) -> str:
    """Deterministic JSON for hashing (sorted keys, fixed separators)."""
    return json.dumps(dict(meta), sort_keys=True, separators=(",", ":"))


@dataclass
class PolicyArtifact:
    """A stored scheduler: compressed decisions plus provenance.

    ``meta`` must carry at least ``model_key`` (the registry content
    address of the model), ``objective`` (``"max"``/``"min"``), ``t``
    (the horizon), ``epsilon`` and ``value`` (the probability the solver
    reported).  An optional ``model_digest`` (:func:`model_digest` of
    the model the policy was extracted on) lets validation refuse a
    model whose states or choices are numbered differently.
    ``certificate`` is the solver's numerical-health account
    from the extraction run; it travels with the artifact but does not
    enter the content hash (it is diagnostics, not policy content).
    """

    decisions: CompressedDecisions
    meta: dict[str, Any] = field(default_factory=dict)
    certificate: NumericalCertificate | None = None

    def __post_init__(self) -> None:
        missing = [name for name in _REQUIRED_META if name not in self.meta]
        if missing:
            raise ModelError(
                f"policy artifact metadata is missing {', '.join(missing)}"
            )
        objective = self.meta["objective"]
        if objective not in ("max", "min"):
            raise ModelError(f"policy objective must be 'max' or 'min', got {objective!r}")

    # Convenience accessors over the required metadata -----------------
    @property
    def model_key(self) -> str:
        return str(self.meta["model_key"])

    @property
    def objective(self) -> str:
        return str(self.meta["objective"])

    @property
    def t(self) -> float:
        return float(self.meta["t"])

    @property
    def epsilon(self) -> float:
        return float(self.meta["epsilon"])

    @property
    def value(self) -> float:
        return float(self.meta["value"])

    @property
    def key(self) -> str:
        """The artifact's content address (cached after first use)."""
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = policy_key(self)
            self.__dict__["_key"] = cached
        return cached

    def summary(self) -> dict[str, Any]:
        """The ``repro policy inspect`` payload: provenance + store stats."""
        record: dict[str, Any] = {
            "key": self.key,
            "meta": dict(self.meta),
            "store": self.decisions.stats(),
        }
        if self.certificate is not None:
            record["certificate"] = self.certificate.as_dict()
        return record

    def export_ndjson(self) -> Iterator[str]:
        """Render the artifact as NDJSON lines.

        First a ``header`` record (metadata, store layout, certificate),
        then one ``row`` record per *decision change point* -- row 0 and
        every row that differs from its predecessor -- carrying the full
        decision vector.  Replaying the stream (each row holds until the
        next record) reconstructs the dense table exactly, and for timed
        schedulers that switch at few Poisson steps the stream stays
        small.
        """
        header: dict[str, Any] = {
            "kind": "header",
            "key": self.key,
            "meta": dict(self.meta),
            "layout": self.decisions.layout(),
        }
        if self.certificate is not None:
            header["certificate"] = self.certificate.as_dict()
        yield json.dumps(header, sort_keys=True)
        previous: np.ndarray | None = None
        for index, row in enumerate(self.decisions.iter_rows()):
            if previous is None or not np.array_equal(row, previous):
                yield json.dumps({"kind": "row", "row": index,
                                  "decisions": row.tolist()})
                previous = row

    def save(self, path: str | Path) -> Path:
        return save_artifact(self, path)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PolicyArtifact(key={self.key[:12]}..., objective={self.objective}, "
            f"t={self.t:g}, rows={self.decisions.num_rows})"
        )


def policy_key(artifact: PolicyArtifact) -> str:
    """SHA-256 content address: canonical metadata + layout + array bytes.

    The certificate is deliberately excluded -- it describes the
    extraction run, not the policy.  Two runs that extract the same
    scheduler for the same query therefore share a key even if their
    floating-point health differs in the last digit.
    """
    digest = hashlib.sha256()
    digest.update(_canonical_meta_json(artifact.meta).encode("utf-8"))
    digest.update(
        json.dumps(artifact.decisions.layout(), sort_keys=True,
                   separators=(",", ":")).encode("ascii")
    )
    for name, array in artifact.decisions.arrays().items():
        digest.update(name.encode("ascii"))
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def model_digest(ctmdp: "CTMDP") -> str:
    """SHA-256 over a CTMDP's ``choice_ptr`` and its rate matrix's
    ``indptr``, ``indices`` and ``data``.

    A policy names states and choices by number, so it only fits models
    numbered alike: two models share a digest iff they have the same
    choices per state and the same rate entries per choice.  Arrays are
    hashed in canonical CSR form as little-endian int64/float64, so the
    digest does not depend on index dtypes or on whether the model was
    built in memory or read back from a file.
    """
    matrix = ctmdp.rate_matrix
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    digest = hashlib.sha256()
    for array, dtype in (
        (ctmdp.choice_ptr, "<i8"),
        (matrix.indptr, "<i8"),
        (matrix.indices, "<i8"),
        (matrix.data, "<f8"),
    ):
        digest.update(len(array).to_bytes(8, "little"))
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


def _pad(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def save_artifact(artifact: PolicyArtifact, path: str | Path) -> Path:
    """Write ``artifact`` to ``path`` in the ``.rpol`` binary format."""
    path = Path(path)
    arrays = artifact.decisions.arrays()
    table: list[dict[str, Any]] = []
    # Lay the arrays out after a header whose own length depends on the
    # offsets; two passes converge because offsets only shrink the
    # second time if the header shrank, and we re-pad from the final
    # header length.
    header: dict[str, Any] = {
        "meta": dict(artifact.meta),
        "key": artifact.key,
        "layout": artifact.decisions.layout(),
        "certificate": (
            artifact.certificate.as_dict() if artifact.certificate is not None else None
        ),
        "arrays": table,
    }
    # First pass with zero offsets to learn the header's encoded size.
    for name, array in arrays.items():
        table.append({
            "name": name,
            "dtype": np.dtype(array.dtype).str,  # e.g. "<i4" -- endian-explicit
            "count": int(array.size),
            "offset": 0,
        })
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    base = _pad(len(MAGIC) + 8 + len(encoded) + _ALIGN)  # slack for offset digits
    offset = base
    for entry, array in zip(table, arrays.values()):
        entry["offset"] = offset
        offset += np.ascontiguousarray(array).nbytes
        offset = _pad(offset)
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    if len(MAGIC) + 8 + len(encoded) > base:  # pragma: no cover - slack suffices
        raise ModelError("policy header exceeded its alignment slack")

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(len(encoded).to_bytes(8, "little"))
        handle.write(encoded)
        for entry, array in zip(table, arrays.values()):
            handle.seek(entry["offset"])
            handle.write(np.ascontiguousarray(array).tobytes())
        # Ensure the file extends to the padded end of the last array.
        handle.seek(0, 2)
        if handle.tell() < offset:
            handle.truncate(offset)
    return path


def read_header(path: str | Path) -> dict[str, Any]:
    """Read and validate just the JSON header of a ``.rpol`` file."""
    path = Path(path)
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise ModelError(f"{path} is not a policy artifact (bad magic {magic!r})")
        (length,) = (int.from_bytes(handle.read(8), "little"),)
        encoded = handle.read(length)
        if len(encoded) != length:
            raise ModelError(f"{path}: truncated policy header")
    try:
        header = json.loads(encoded.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ModelError(f"{path}: corrupt policy header: {error}") from None
    for field_name in ("meta", "layout", "arrays"):
        if field_name not in header:
            raise ModelError(f"{path}: policy header is missing {field_name!r}")
    return header


def load_artifact(path: str | Path, mmap: bool = True) -> PolicyArtifact:
    """Load a ``.rpol`` file, memory-mapping the decision arrays.

    With ``mmap`` (the default) the arrays are read-only ``np.memmap``
    views -- nothing beyond the header is paged in until rows are
    decoded.  ``mmap=False`` copies the arrays into process memory
    (use before deleting the file).
    """
    path = Path(path)
    header = read_header(path)
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        dtype = np.dtype(str(entry["dtype"]))
        count = int(entry["count"])
        offset = int(entry["offset"])
        if mmap and count:
            view: np.ndarray = np.memmap(
                path, dtype=dtype, mode="r", offset=offset, shape=(count,)
            )
        else:
            with open(path, "rb") as handle:
                handle.seek(offset)
                raw = handle.read(count * dtype.itemsize)
            if len(raw) != count * dtype.itemsize:
                raise ModelError(f"{path}: truncated policy array {entry['name']!r}")
            view = np.frombuffer(raw, dtype=dtype).copy()
        arrays[str(entry["name"])] = view
    decisions = CompressedDecisions.from_arrays(header["layout"], arrays)
    certificate = None
    if header.get("certificate"):
        certificate = NumericalCertificate.from_dict(header["certificate"])
    artifact = PolicyArtifact(
        decisions=decisions, meta=dict(header["meta"]), certificate=certificate
    )
    stored_key = header.get("key")
    if stored_key is not None and stored_key != artifact.key:
        raise ModelError(
            f"{path}: policy content hash mismatch "
            f"(stored {str(stored_key)[:12]}..., computed {artifact.key[:12]}...)"
        )
    return artifact
