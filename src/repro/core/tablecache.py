"""Content-addressed on-disk cache for precomputed `CostTables`.

Every search entry point pays `CostModel.build_tables` before a single DP
cell is evaluated, and the same (graph, machine, p, mode) instance is
rebuilt by experiment drivers thousands of times across runs.  TensorOpt
and FlexFlow both treat cost-profile construction as a cacheable artifact;
this module does the same for PaSE's tables.

**Cache key.**  :func:`table_digest` hashes a canonical description of
everything the table contents depend on:

* graph structure and op shapes — per node: name, kind, dims
  (name/size/splittable), aliases, every tensor port's axes / param flag /
  scale / sparse-gradient count, reduction dims, FLOP model; plus the full
  edge list with ports;
* the `MachineSpec` (rates, topology breakdown, p2p);
* the configuration space — ``p``, enumeration mode, **and the raw bytes
  of every node's configuration table** (so pruned or custom spaces get
  their own entries);
* the `CostModel` ablation flags and update-phase constant;
* a format version, bumped whenever the stored layout changes.

Any change to any of these yields a different digest, which *is* the
invalidation rule: stale entries are never read, only eventually evicted
by the size cap.

**Storage.**  One ``<digest>.npz`` per entry holding every ``lc`` and
``pair_tx`` array plus a JSON manifest; writes go through a temp file +
``os.replace`` so concurrent builders never observe a torn entry.  The
cache is bounded by ``max_bytes``; storing past the cap evicts the
least-recently-used entries (by file mtime — hits re-touch their entry).

**Concurrency.**  Entry writes are already atomic, but eviction (and
quarantine, and ``clear``) delete files, and a fleet sweep points many
worker processes at one shared cache directory.  Every mutating sweep
over the directory therefore runs under an exclusive ``flock`` on
``<root>/.lock`` — held only for the scan/delete, never while a table is
being serialized — and treats an entry vanishing mid-scan as already
evicted, not an error.  The lock is released by the kernel if its holder
dies, so a SIGKILLed worker can never wedge the cache.

**Corruption.**  The manifest carries a sha256 over every stored array's
raw bytes (`payload_checksum`), verified on load.  An entry that fails
to parse, fails its checksum, or does not match the live configuration
space is **quarantined** — moved to a ``corrupt/`` subdirectory and
counted in ``TableCache.quarantined`` — and reported as a plain miss, so
a truncated or bit-flipped file costs one rebuild, never a crash, while
the evidence is kept for inspection instead of silently deleted.

Tables marked ``derived`` (e.g. resilience coarsening slices) are refused
by :meth:`TableCache.store`: their digest would describe the original
space and poison later lookups.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import mmap
import os
import struct
import tempfile
import weakref
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

import numpy as np

from .configs import ConfigSpace
from .graph import CompGraph
from .machine import MachineSpec

if TYPE_CHECKING:  # pragma: no cover
    from .costmodel import CostModel, CostTables

__all__ = ["TableCache", "table_digest", "DEFAULT_CACHE_BYTES",
           "CACHE_DIR_ENV", "CACHE_BYTES_ENV"]

#: Stored-layout version; bump to invalidate every existing entry.
#: v2 added the manifest payload checksum.
_FORMAT_VERSION = 2

_log = logging.getLogger(__name__)

#: Default size cap for the cache directory (bytes).
DEFAULT_CACHE_BYTES = 1 << 30

#: Environment overrides for the cache directory and size cap.
CACHE_DIR_ENV = "PASE_TABLE_CACHE_DIR"
CACHE_BYTES_ENV = "PASE_TABLE_CACHE_BYTES"

#: Separator joining pair keys in the manifest (never appears in names).
_PAIR_SEP = "\x1f"

#: Process-wide memo of *verified* mmap'd entries, keyed by
#: ``(path, inode, size, digest)``.  A persistent fleet worker hits
#: the same cache file once per task; re-mapping and re-checksumming
#: identical bytes every time is pure waste, so the parsed read-only
#: views are kept until the file changes (any rewrite lands via
#: ``os.replace``, whose temp file carries a fresh inode) or the memo
#: fills up.  The inode — not mtime — identifies the bytes, because the
#: cache's own LRU touch rewrites mtime on every hit.  Only mmap reads
#: are memoized: their arrays are immutable views, safe to hand to any
#: number of callers.
_MMAP_MEMO: dict = {}
_MMAP_MEMO_MAX = 16

#: Identity-keyed memo for `table_digest`: hashing the full enumerated
#: configuration space costs ~1ms, and a fleet worker digests the same
#: memoized ``(graph, space)`` pair on every task (once for the cache
#: lookup, once for the run fingerprint).  Entries are validated by
#: weakref before use, so a recycled ``id()`` can never alias a dead
#: object's digest.  Mutating a graph/space in place after digesting it
#: is not supported (they are build-once values everywhere in the repo).
_DIGEST_MEMO: dict = {}
_DIGEST_MEMO_MAX = 32

#: The fixed portion of a zip *local* file header (signature through
#: the extra-field length), per APPNOTE 4.3.7.
_ZIP_LOCAL_HEADER = struct.Struct("<IHHHHHIIIHH")
_ZIP_LOCAL_MAGIC = 0x04034B50


def _member_data_span(raw, info: zipfile.ZipInfo) -> tuple[int, int]:
    """(offset, size) of a stored member's payload inside the file.

    The *local* header's name/extra lengths can differ from the central
    directory's, so the span is computed from the local header itself.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"{info.filename} is compressed; cannot mmap")
    hdr = bytes(raw[info.header_offset:
                    info.header_offset + _ZIP_LOCAL_HEADER.size])
    if len(hdr) < _ZIP_LOCAL_HEADER.size:
        raise ValueError("truncated zip local header")
    fields = _ZIP_LOCAL_HEADER.unpack(hdr)
    if fields[0] != _ZIP_LOCAL_MAGIC:
        raise ValueError("bad zip local header signature")
    name_len, extra_len = fields[9], fields[10]
    start = info.header_offset + _ZIP_LOCAL_HEADER.size + name_len + extra_len
    return start, info.file_size


def _npy_view(raw: memoryview, start: int, size: int) -> np.ndarray:
    """A read-only ndarray over one ``.npy`` payload inside ``raw``."""
    head = bytes(raw[start:start + min(size, 4096)])
    bio = io.BytesIO(head)
    version = np.lib.format.read_magic(bio)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(bio)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(bio)
    else:
        raise ValueError(f"unsupported .npy version {version}")
    if dtype.hasobject:
        raise ValueError("object arrays cannot be mapped")
    data_start = start + bio.tell()
    count = int(np.prod(shape, dtype=np.int64))
    arr = np.frombuffer(raw, dtype=dtype, count=count, offset=data_start)
    return arr.reshape(shape, order="F" if fortran else "C")


def open_npz_mmap(path) -> dict[str, np.ndarray]:
    """Read-only zero-copy array views over an uncompressed ``.npz``.

    ``np.load`` ignores ``mmap_mode`` for zip archives, so this walks
    the zip's local headers itself: each stored member's payload is a
    contiguous ``.npy`` byte range inside the file, mapped once with
    ``mmap.ACCESS_READ`` and wrapped by ``np.frombuffer``.  Returns
    member name (without the ``.npy`` suffix) -> read-only ndarray; the
    mapping stays alive as long as any view references it, and deleting
    the file while views are alive is safe on POSIX (the inode persists
    until the last mapping dies).  Raises ``ValueError`` / ``OSError`` /
    ``zipfile.BadZipFile`` when the archive is compressed, torn, or
    otherwise unmappable — callers fall back to an eager load.
    """
    with open(path, "rb") as fh:
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    raw = memoryview(mapped)
    views: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
        for info in zf.infolist():
            name = info.filename
            if name.endswith(".npy"):
                name = name[:-4]
            start, size = _member_data_span(raw, info)
            views[name] = _npy_view(raw, start, size)
    return views


def _payload_checksum(arrays) -> str:
    """sha256 over the stored arrays' dtype/shape/raw bytes, in manifest
    order — the integrity check `TableCache.load` verifies.

    Contiguous arrays hash straight off their buffer (no ``tobytes``
    copy), so verifying a multi-MB mmap'd entry touches the pages once
    and allocates nothing; the digest is identical either way.
    """
    h = hashlib.sha256()
    for arr in arrays:
        a = arr if (isinstance(arr, np.ndarray) and arr.flags.c_contiguous) \
            else np.ascontiguousarray(arr)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.data)
    return h.hexdigest()


def _tensor_desc(spec) -> list:
    return [list(spec.axes), bool(spec.is_param), float(spec.scale),
            spec.sparse_grad_elements]


def _node_desc(op) -> list:
    return [
        op.name,
        op.kind,
        [[d.name, d.size, bool(d.splittable)] for d in op.dims],
        sorted((a, [p, s]) for a, (p, s) in op.aliases.items()),
        sorted((port, _tensor_desc(s)) for port, s in op.inputs.items()),
        sorted((port, _tensor_desc(s)) for port, s in op.outputs.items()),
        sorted(op.reduction_dims),
        float(op.flops_per_point),
        op.flops_fwd_override,
    ]


def table_digest(graph: CompGraph, space: ConfigSpace,
                 model: "CostModel", *, memory: bool = False) -> str:
    """Stable hex digest identifying one table-construction instance.

    ``memory=True`` describes a build that also carries per-node memory
    tables (``CostTables.mem``); it folds a marker plus the memory
    model's constants into the digest so memory-carrying entries never
    alias scalar ones.  ``memory=False`` digests are byte-identical to
    what this function produced before the flag existed — every cached
    scalar entry and journal key stays valid.
    """
    model_key = (model.machine.name, model.machine.peak_flops,
                 model.machine.intra_node_bw, model.machine.inter_node_bw,
                 model.machine.devices_per_node, model.machine.p2p,
                 bool(model.include_grad_sync), bool(model.include_reduction),
                 bool(model.include_extra), float(model.UPDATE_FLOPS_PER_PARAM))
    memo_key = (id(graph), id(space), model_key, bool(memory))
    hit = _DIGEST_MEMO.get(memo_key)
    if hit is not None:
        wr_graph, wr_space, digest = hit
        if wr_graph() is graph and wr_space() is space:
            return digest
        del _DIGEST_MEMO[memo_key]
    h = hashlib.sha256()
    desc = {
        "version": _FORMAT_VERSION,
        "nodes": [_node_desc(op) for op in graph],
        "edges": [[e.src, e.src_port, e.dst, e.dst_port]
                  for e in graph.edges],
        "machine": [model.machine.name, model.machine.peak_flops,
                    model.machine.intra_node_bw, model.machine.inter_node_bw,
                    model.machine.devices_per_node, model.machine.p2p],
        "model": [bool(model.include_grad_sync),
                  bool(model.include_reduction),
                  bool(model.include_extra),
                  float(model.UPDATE_FLOPS_PER_PARAM)],
        "space": [space.p, space.mode],
    }
    if memory:
        # Added only when True: scalar digests stay byte-identical to the
        # pre-flag format (v2 cache entries and resume keys never churn).
        from ..analysis.memory import DEFAULT_OPTIMIZER_STATE_FACTOR

        desc["memory"] = [True, float(DEFAULT_OPTIMIZER_STATE_FACTOR)]
    h.update(json.dumps(desc, sort_keys=True).encode())
    # Hash the enumerated configurations themselves so pruned/custom
    # spaces never collide with the stock enumeration for the same p/mode.
    for name in sorted(space.tables):
        tab = np.ascontiguousarray(space.tables[name], dtype=np.int64)
        h.update(name.encode())
        h.update(str(tab.shape).encode())
        h.update(tab.tobytes())
    digest = h.hexdigest()
    try:
        while len(_DIGEST_MEMO) >= _DIGEST_MEMO_MAX:
            _DIGEST_MEMO.pop(next(iter(_DIGEST_MEMO)))
        _DIGEST_MEMO[memo_key] = (weakref.ref(graph), weakref.ref(space),
                                  digest)
    except TypeError:  # non-weakref-able objects: just skip the memo
        pass
    return digest


def _unpack(data) -> tuple:
    """``(manifest, lc, pair_tx, mem)`` from a stored entry's members.

    ``data`` maps member names to arrays: the read-only views of
    `open_npz_mmap` or an open ``np.load`` archive (whose members are
    copied out as they are indexed).
    """
    manifest = json.loads(str(data["manifest"]))
    lc = {name: data[f"lc_{i}"] for i, name in enumerate(manifest["nodes"])}
    pair_tx = {}
    for i, joined in enumerate(manifest["pairs"]):
        u, v = joined.split(_PAIR_SEP)
        pair_tx[(u, v)] = data[f"tx_{i}"]
    mem = None
    if "mem_nodes" in manifest:
        mem = {name: data[f"mem_{i}"]
               for i, name in enumerate(manifest["mem_nodes"])}
    return manifest, lc, pair_tx, mem


class TableCache:
    """A bounded on-disk store of `CostTables` arrays keyed by digest.

    Parameters
    ----------
    root:
        Cache directory.  Defaults to ``$PASE_TABLE_CACHE_DIR`` or
        ``~/.cache/pase/tables``.  Created lazily on first store.
    max_bytes:
        Size cap; least-recently-used entries are evicted when a store
        pushes the directory past it.  Defaults to
        ``$PASE_TABLE_CACHE_BYTES`` or 1 GiB.
    """

    def __init__(self, root: str | os.PathLike | None = None, *,
                 max_bytes: int | None = None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or \
                Path.home() / ".cache" / "pase" / "tables"
        self.root = Path(root)
        if max_bytes is None:
            env = os.environ.get(CACHE_BYTES_ENV)
            max_bytes = int(env) if env else DEFAULT_CACHE_BYTES
        if max_bytes <= 0:
            raise ValueError(f"max_bytes={max_bytes} must be positive")
        self.max_bytes = int(max_bytes)
        #: Entries quarantined by this instance (corrupt/truncated files).
        self.quarantined = 0

    # -- paths ---------------------------------------------------------------

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.npz"

    @property
    def corrupt_dir(self) -> Path:
        return self.root / "corrupt"

    def entries(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return iter(())
        return iter(sorted(self.root.glob("*.npz")))

    def total_bytes(self) -> int:
        total = 0
        for p in self.entries():
            try:
                total += p.stat().st_size
            except OSError:  # deleted by a concurrent evictor
                continue
        return total

    # -- cross-process exclusion ---------------------------------------------

    @contextlib.contextmanager
    def _lock(self):
        """Exclusive ``flock`` on ``<root>/.lock`` for directory mutation.

        Blocks until acquired; auto-released when the fd closes *or* the
        holding process dies, so no crash can leave the cache locked.
        No-op where ``fcntl`` is unavailable (single-process platforms).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root / ".lock", os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    # -- store / load --------------------------------------------------------

    def store(self, digest: str, tables: "CostTables") -> Path | None:
        """Persist one entry; returns its path, or None when refused.

        Derived tables (coarsened/sliced copies) are refused — their
        digest describes the original configuration space.
        """
        if tables.derived:
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        node_names = list(tables.lc)
        pair_keys = list(tables.pair_tx)
        mem_names = list(tables.mem) if tables.mem is not None else None
        payload = [tables.lc[n] for n in node_names] + \
            [tables.pair_tx[k] for k in pair_keys]
        if mem_names is not None:
            payload += [tables.mem[n] for n in mem_names]
        manifest = {
            "version": _FORMAT_VERSION,
            "digest": digest,
            "nodes": node_names,
            "pairs": [_PAIR_SEP.join(k) for k in pair_keys],
            "payload_checksum": _payload_checksum(payload),
        }
        if mem_names is not None:
            manifest["mem_nodes"] = mem_names
        arrays = {"manifest": np.array(json.dumps(manifest))}
        for i, name in enumerate(node_names):
            arrays[f"lc_{i}"] = tables.lc[name]
        for i, key in enumerate(pair_keys):
            arrays[f"tx_{i}"] = tables.pair_tx[key]
        if mem_names is not None:
            for i, name in enumerate(mem_names):
                arrays[f"mem_{i}"] = tables.mem[name]
        path = self.path_for(digest)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.evict(keep=path)
        return path

    def load(self, digest: str, graph: CompGraph, space: ConfigSpace,
             machine: MachineSpec) -> "CostTables | None":
        """Reconstruct `CostTables` for a digest, or None on a miss.

        The caller supplies the live graph/space/machine objects (the
        digest guarantees they describe the stored arrays).  A corrupt,
        truncated, checksum-failing, or incompatible entry is quarantined
        to ``corrupt/`` and reported as a miss — the caller rebuilds; the
        run never crashes on a bad cache file.

        Warm hits are served as **mmap'd zero-copy views**: the entry's
        arrays are read-only views straight off one shared mapping of
        the file (`open_npz_mmap`), so a fleet of workers hitting the
        same entry shares pages instead of each copying multi-MB
        payloads — nothing in the pipeline writes table arrays in place (writers copy first, e.g. the reduction's
        ``np.array(...)`` adoption).  Anything the mmap reader cannot
        serve falls back to the eager copying loader, whose verdict
        (including quarantine) is authoritative.
        """
        from .costmodel import CostTables

        path = self.path_for(digest)
        if not path.is_file():
            return None
        try:
            st = path.stat()
        except OSError:
            return None  # raced an eviction: a plain miss
        memo_key = (str(path), st.st_ino, st.st_size, digest)
        verified = _MMAP_MEMO.get(memo_key)
        if verified is not None:
            manifest, lc, pair_tx, mem = verified
        else:
            try:
                loaded = _unpack(open_npz_mmap(path))
            except (OSError, ValueError, KeyError, EOFError,
                    zipfile.BadZipFile, json.JSONDecodeError):
                loaded = None  # let the eager loader classify the file
            from_mmap = loaded is not None
            try:
                if loaded is None:
                    with np.load(path, allow_pickle=False) as data:
                        loaded = _unpack(data)
                manifest, lc, pair_tx, mem = loaded
                if manifest.get("version") != _FORMAT_VERSION or \
                        manifest.get("digest") != digest:
                    raise ValueError("manifest mismatch")
                payload = list(lc.values()) + list(pair_tx.values())
                if mem is not None:
                    payload += list(mem.values())
                if _payload_checksum(payload) != \
                        manifest.get("payload_checksum"):
                    raise ValueError("payload checksum mismatch")
            except (OSError, ValueError, KeyError, EOFError,
                    zipfile.BadZipFile, json.JSONDecodeError) as err:
                self._quarantine(path, reason=str(err))
                return None
            if from_mmap:
                while len(_MMAP_MEMO) >= _MMAP_MEMO_MAX:
                    _MMAP_MEMO.pop(next(iter(_MMAP_MEMO)))
                _MMAP_MEMO[memo_key] = (manifest, lc, pair_tx, mem)
        if set(lc) != set(space.tables) or \
                any(lc[n].shape[0] != space.size(n) for n in lc):
            self._quarantine(path, reason="stored shapes do not match the "
                             "live configuration space")
            return None
        os.utime(path)  # LRU touch
        return CostTables(graph=graph, space=space, machine=machine,
                          lc=lc, pair_tx=pair_tx, mem=mem)

    def _quarantine(self, path: Path, *, reason: str) -> None:
        """Move a bad entry to ``corrupt/`` (counted, never re-read).

        ``entries()`` only globs the cache root, so quarantined files are
        invisible to hits and eviction; they persist for inspection until
        someone clears the subdirectory.
        """
        self.quarantined += 1
        _log.warning("quarantining corrupt table-cache entry %s (%s)",
                     path.name, reason)
        try:
            with self._lock():
                self.corrupt_dir.mkdir(parents=True, exist_ok=True)
                os.replace(path, self.corrupt_dir / path.name)
        except OSError:
            path.unlink(missing_ok=True)

    # -- maintenance ---------------------------------------------------------

    def evict(self, keep: Path | None = None) -> list[Path]:
        """Delete least-recently-used entries until under ``max_bytes``.

        ``keep`` (typically the entry just written) is evicted only after
        every other entry is gone.  The whole scan-and-delete runs under
        the cache lock so concurrent writers never double-evict or trip
        over each other's deletions.
        """
        with self._lock():
            return self._evict_locked(keep)

    def _evict_locked(self, keep: Path | None) -> list[Path]:
        entries = []
        for p in self.entries():
            try:
                entries.append((p, p.stat()))
            except OSError:  # vanished between glob and stat
                continue
        total = sum(st.st_size for _, st in entries)
        if total <= self.max_bytes:
            return []
        entries.sort(key=lambda e: (e[0] == keep, e[1].st_mtime))
        removed: list[Path] = []
        for p, st in entries:
            if total <= self.max_bytes:
                break
            p.unlink(missing_ok=True)
            total -= st.st_size
            removed.append(p)
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        with self._lock():
            n = 0
            for p in self.entries():
                p.unlink(missing_ok=True)
                n += 1
            return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TableCache {self.root} cap={self.max_bytes}>"
