"""Content-addressed compile cache + stable IR serialization (Sec. 6).

CraterLake's programming model is compile-once/run-many: FHE programs
are static dataflow graphs, so a lowered schedule is a pure function of
(program IR, :class:`~repro.core.config.ChipConfig`, pod descriptor).
The lowering pipeline - hoisting, then pressure scheduling, each with a
simulator-backed profitability gate - is therefore *repeated-inference
precompute*: a serving loop that recompiled the same logreg graph per
request would spend seconds per query on work whose result never
changes.  This module makes that work a one-time cost:

* **Stable serialization** - :func:`program_to_arrays` /
  :func:`program_from_arrays` encode a :class:`~repro.ir.Program` as
  columnar numpy arrays (an ``.npz`` payload) plus a canonical-JSON
  manifest, versioned by :data:`FORMAT_VERSION` and round-tripping
  bit-exactly (``loaded == original`` fieldwise, including ``steps``,
  hint ids, hoisted ops, batching, and tags).  See docs/COMPILER.md for
  the on-disk contract and the version-bump rules.
* **Content-addressed fingerprints** - :func:`fingerprint` hashes the
  *canonicalized* program (SSA names, hint ids and plaintext ids
  replaced by first-appearance indices, so renaming values cannot
  cause a miss), the config's :meth:`~repro.core.config.ChipConfig.
  cache_key` (every field but the display name), and the pod
  descriptor.  Anything that can change the lowered schedule changes
  the hash; nothing else does.
* **Two-tier cache** - :class:`CompileCache` holds an LRU memory tier
  (compiled ``Program`` objects) over an optional size-bounded
  directory tier (``<fingerprint>.json`` + ``.npz`` pairs, evicted
  oldest-first).  Loads re-verify the payload seal (the reliability
  layer's verify-on-restore idiom, cf. `repro.reliability.recovery`):
  a corrupt, truncated, or version-skewed artifact counts
  ``compiler.cache.invalid``, is deleted, and reads as a miss - never
  an exception, never a wrong schedule.
* **The entry point** - :func:`compile_program` runs the fixed
  pipeline (hoist -> pressure scheduling) through the cache.  Cache
  observability flows through `repro.obs` as ``compiler.cache.{hit,
  miss,store,evict,invalid}`` counters and ``compiler.compile`` /
  ``compiler.cache.*`` spans (docs/TRACING.md).

``simulate(program, cfg)`` never compiles or caches: it prices the op
stream it is given, so callers lower with :func:`compile_program` first.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.core.config import ChipConfig
from repro.ir import KINDS, HomOp, Program
from repro.obs import collector as obs
from repro.reliability.errors import ArtifactError

#: Serialization format version.  Bump rules (see docs/COMPILER.md):
#: any change to the artifact schema, the columnar encoding, the
#: canonicalization used by :func:`fingerprint`, or the semantics of an
#: existing IR field requires a bump; adding a new *optional* HomOp
#: field with a default that old artifacts can assume also requires a
#: bump (old artifacts must not deserialize into wrong programs).
#: Loaders reject any other version - a stale artifact is a miss, not a
#: best-effort parse.
FORMAT_VERSION = 3

_KIND_CODE = {kind: i for i, kind in enumerate(KINDS)}

# -- canonical JSON + fingerprinting ----------------------------------------

def canonical_json(obj) -> bytes:
    """Deterministic JSON bytes: sorted keys, minimal separators.  Two
    structurally equal documents serialize identically regardless of
    dict insertion order - the "insensitive to dict ordering" half of
    the fingerprint contract."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("ascii")


def canonical_program_dict(program: Program) -> dict:
    """The program as fingerprinted: names replaced by structure.

    SSA value names, hint ids, and plaintext ids are display choices of
    the builder (`FheBuilder`'s ``v%17`` counter, a workload's
    ``rot{j%8}`` pool); renaming them consistently cannot change the
    lowered schedule, so each is mapped to a first-appearance index
    (``v0, v1, ...`` / ``h0, ...`` / ``p0, ...``).  The *sharing
    structure* survives: collapsing two distinct hints into one, or
    splitting one value into two, changes the mapping and the hash.
    ``Program.name`` and ``description`` are metadata and excluded;
    every schedule-relevant field (kind, level, operand wiring, steps,
    digits, tag, compact_pt, repeat, degree, max_level) is included.
    """
    values: dict[str, str] = {}
    hints: dict[str, str] = {}
    pts: dict[str, str] = {}

    def vname(name: str) -> str:
        if name not in values:
            values[name] = f"v{len(values)}"
        return values[name]

    ops = []
    for op in program.ops:
        operands = [vname(o) for o in op.operands]
        hint = None
        if op.hint_id is not None:
            if op.hint_id not in hints:
                hints[op.hint_id] = f"h{len(hints)}"
            hint = hints[op.hint_id]
        pt = None
        if op.plaintext_id is not None:
            if op.plaintext_id not in pts:
                pts[op.plaintext_id] = f"p{len(pts)}"
            pt = pts[op.plaintext_id]
        ops.append([op.kind, op.level, vname(op.result), operands, hint,
                    pt, op.steps, op.digits, op.tag, op.compact_pt,
                    op.repeat])
    return {"degree": program.degree, "max_level": program.max_level,
            "ops": ops}


def program_token(program: Program) -> str:
    """sha256 of the canonical-JSON form of
    :func:`canonical_program_dict` - the program half of the
    fingerprint.

    Canonicalization walks every op, so the token is memoized on the
    ``Program`` instance (guarded by the ops list's identity and
    length): a serving loop fingerprinting the same program per request
    pays the walk once.  The memo assumes the codebase's convention
    that a ``Program`` is immutable once built - passes return *new*
    programs (and ``append`` or replacing ``.ops`` invalidates the
    guard) - mutating an existing ``HomOp`` in place is already
    undefined behavior for scheduling and is not detected here.
    """
    ops = program.ops
    guard = (id(ops), len(ops))
    memo = getattr(program, "_token_memo", None)
    if memo is not None and memo[0] == guard:
        return memo[1]
    token = hashlib.sha256(
        canonical_json(canonical_program_dict(program))).hexdigest()
    program._token_memo = (guard, token)
    return token


def fingerprint(program: Program, cfg: ChipConfig | None = None,
                pod: str = "") -> str:
    """Content address of a (program, config, pod) compilation.

    The sha256 of the canonical JSON of ``{"format", "program_sha256",
    "config", "pod"}``, where ``program_sha256`` is
    :func:`program_token` (the hash of the canonicalized program) -
    a two-stage construction so the per-op walk can be memoized.
    Invariant under SSA renames, hint/plaintext-id renames, dict
    ordering, and the display names ``Program.name`` /
    ``ChipConfig.name``; sensitive to every op field, the op order, the
    program's ring parameters, every other config field, the pod
    descriptor, and :data:`FORMAT_VERSION` itself (a format bump
    invalidates every existing artifact at once).

    ``pod`` is ``PodConfig.descriptor()`` when the program is one shard
    of a pod cut (``""`` = single chip).  A shard of resnet20 cut for a
    4-chip pod is a *different program* from the whole benchmark; the
    descriptor keeps their artifacts from aliasing even when a
    partitioner change produces identical IR.
    """
    cfg = cfg or ChipConfig()
    doc = {
        "format": FORMAT_VERSION,
        "program_sha256": program_token(program),
        "config": cfg.cache_key(),
        "pod": pod,
    }
    return hashlib.sha256(canonical_json(doc)).hexdigest()


# -- columnar serialization --------------------------------------------------

def _str_column(items: list[str]) -> np.ndarray:
    return (np.array(items, dtype=np.str_) if items
            else np.array([], dtype="<U1"))


def program_to_arrays(program: Program) -> dict[str, np.ndarray]:
    """Encode the op stream as columnar arrays (the ``.npz`` payload).

    Fixed-width numeric columns plus unicode string columns; the
    variable-length ``operands`` tuples flatten into one string column
    with an offsets array (``operands_off[i]:operands_off[i+1]`` slices
    op i's operands).  ``None``-able fields (``steps``, ``hint_id``,
    ``plaintext_id``) carry an explicit mask column - ``steps`` values
    are signed rotation amounts, so no in-band sentinel exists.
    """
    ops = program.ops
    n = len(ops)
    operands_flat: list[str] = []
    operands_off = np.zeros(n + 1, dtype=np.int64)
    for i, op in enumerate(ops):
        operands_flat.extend(op.operands)
        operands_off[i + 1] = len(operands_flat)
    return {
        "kind": np.fromiter((_KIND_CODE[op.kind] for op in ops),
                            dtype=np.uint8, count=n),
        "level": np.fromiter((op.level for op in ops),
                             dtype=np.int64, count=n),
        "digits": np.fromiter((op.digits for op in ops),
                              dtype=np.int64, count=n),
        "repeat": np.fromiter((op.repeat for op in ops),
                              dtype=np.int64, count=n),
        "compact_pt": np.fromiter((op.compact_pt for op in ops),
                                  dtype=np.uint8, count=n),
        "steps": np.fromiter(
            (op.steps if op.steps is not None else 0 for op in ops),
            dtype=np.int64, count=n),
        "steps_mask": np.fromiter(
            (op.steps is not None for op in ops), dtype=np.uint8, count=n),
        "result": _str_column([op.result for op in ops]),
        "operands": _str_column(operands_flat),
        "operands_off": operands_off,
        "hint": _str_column([op.hint_id or "" for op in ops]),
        "hint_mask": np.fromiter(
            (op.hint_id is not None for op in ops), dtype=np.uint8, count=n),
        "plaintext": _str_column([op.plaintext_id or "" for op in ops]),
        "plaintext_mask": np.fromiter(
            (op.plaintext_id is not None for op in ops),
            dtype=np.uint8, count=n),
        "tag": _str_column([op.tag for op in ops]),
    }


def program_from_arrays(meta: dict, arrays) -> Program:
    """Rebuild a :class:`Program` from a manifest's ``program`` section
    and the columnar payload.  Ops go through the normal :class:`HomOp`
    constructor, so the IR's own validation re-runs on load - a corrupt
    column that survives the seal check still cannot produce an
    inconsistent op."""
    n = int(meta["op_count"])
    if len(arrays["kind"]) != n:
        raise ArtifactError("op count mismatch", manifest=n,
                            payload=len(arrays["kind"]))
    # One bulk .tolist() per column (numpy scalars -> native int/str) is
    # ~5x faster than per-element indexing on the 70k-op benchmarks -
    # this loop is the disk tier's whole load cost.
    kinds = arrays["kind"].tolist()
    levels = arrays["level"].tolist()
    digits = arrays["digits"].tolist()
    repeats = arrays["repeat"].tolist()
    compact = arrays["compact_pt"].tolist()
    steps = arrays["steps"].tolist()
    steps_mask = arrays["steps_mask"].tolist()
    results = arrays["result"].tolist()
    operands = arrays["operands"].tolist()
    operands_off = arrays["operands_off"].tolist()
    hints = arrays["hint"].tolist()
    hint_mask = arrays["hint_mask"].tolist()
    pts = arrays["plaintext"].tolist()
    pt_mask = arrays["plaintext_mask"].tolist()
    tags = arrays["tag"].tolist()
    program = Program(name=meta["name"], degree=int(meta["degree"]),
                      max_level=int(meta["max_level"]),
                      description=meta["description"])
    ops = program.ops
    for i in range(n):
        code = kinds[i]
        if code >= len(KINDS):
            raise ArtifactError("unknown op kind code", code=code)
        ops.append(HomOp(
            kind=KINDS[code],
            level=levels[i],
            result=results[i],
            operands=tuple(operands[operands_off[i]:operands_off[i + 1]]),
            hint_id=hints[i] if hint_mask[i] else None,
            plaintext_id=pts[i] if pt_mask[i] else None,
            steps=steps[i] if steps_mask[i] else None,
            digits=digits[i],
            tag=tags[i],
            compact_pt=bool(compact[i]),
            repeat=repeats[i],
        ))
    return program


def payload_seal(arrays: dict[str, np.ndarray]) -> str:
    """sha256 over the payload's array *contents* (name, dtype, shape,
    raw bytes, in sorted-name order) - the artifact's integrity seal.

    Computed over contents rather than the ``.npz`` container bytes
    because zip archives embed timestamps; the seal must be a pure
    function of the data so the manifest stays deterministic.
    """
    h = hashlib.sha256()
    for key in sorted(arrays):
        a = np.ascontiguousarray(arrays[key])
        h.update(key.encode())
        h.update(b"\0")
        h.update(a.dtype.str.encode())
        h.update(repr(tuple(a.shape)).encode())
        h.update(b"\0")
        h.update(a.tobytes())
    return h.hexdigest()


def artifact_manifest(program: Program, fp: str, cfg: ChipConfig,
                      pod: str, arrays: dict[str, np.ndarray]) -> dict:
    """The JSON sidecar for one serialized lowered schedule.  Pure
    function of its inputs (no timestamps, sorted keys on write), so
    re-serializing an identical compilation is byte-identical."""
    from dataclasses import asdict

    return {
        "format": FORMAT_VERSION,
        "kind": "repro.compiler.cache/artifact",
        "fingerprint": fp,
        "program": {
            "name": program.name,
            "degree": program.degree,
            "max_level": program.max_level,
            "description": program.description,
            "op_count": len(program.ops),
        },
        "config": asdict(cfg),
        "pod": pod,
        "payload_sha256": payload_seal(arrays),
        "arrays": sorted(arrays),
    }


def save_artifact(base: Path, program: Program, fp: str,
                  cfg: ChipConfig, pod: str = "") -> Path:
    """Write ``<base>.json`` + ``<base>.npz``; returns the manifest path.

    The payload lands first and the manifest last, so a crash mid-write
    leaves either a dangling ``.npz`` (never consulted without its
    manifest) or a manifest whose seal check fails - both read as
    misses, matching the recovery layer's write-then-commit discipline.
    """
    base = Path(base)
    arrays = program_to_arrays(program)
    manifest = artifact_manifest(program, fp, cfg, pod, arrays)
    base.parent.mkdir(parents=True, exist_ok=True)
    with open(base.with_suffix(".npz"), "wb") as f:
        np.savez(f, **arrays)
    base.with_suffix(".json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return base.with_suffix(".json")


def load_artifact(base: Path, expect_fingerprint: str | None = None,
                  ) -> Program:
    """Read and *verify* one artifact; raises :class:`ArtifactError` on
    any mismatch (format version, payload seal, fingerprint, structure).
    The cache wraps this in its corruption-tolerant lookup; call it
    directly only when a hard failure is what you want (e.g. loading an
    ahead-of-time artifact you believe must exist)."""
    base = Path(base)
    try:
        manifest = json.loads(base.with_suffix(".json").read_text())
    except (OSError, ValueError) as exc:
        raise ArtifactError("unreadable artifact manifest",
                            path=str(base.with_suffix(".json"))) from exc
    if not isinstance(manifest, dict):
        raise ArtifactError("artifact manifest is not an object")
    if manifest.get("format") != FORMAT_VERSION:
        raise ArtifactError("artifact format version mismatch",
                            found=manifest.get("format"),
                            supported=FORMAT_VERSION)
    if expect_fingerprint and manifest.get("fingerprint") != expect_fingerprint:
        raise ArtifactError("artifact fingerprint mismatch",
                            expected=expect_fingerprint,
                            found=manifest.get("fingerprint"))
    try:
        with np.load(base.with_suffix(".npz")) as npz:
            arrays = {key: npz[key] for key in npz.files}
    except Exception as exc:  # zipfile/numpy raise various corruption errors
        raise ArtifactError("unreadable artifact payload",
                            path=str(base.with_suffix(".npz"))) from exc
    if sorted(arrays) != manifest.get("arrays"):
        raise ArtifactError("artifact payload columns mismatch")
    if payload_seal(arrays) != manifest.get("payload_sha256"):
        raise ArtifactError("artifact payload seal mismatch",
                            path=str(base.with_suffix(".npz")))
    try:
        return program_from_arrays(manifest["program"], arrays)
    except ArtifactError:
        raise
    except Exception as exc:  # missing columns, IR validation failures...
        raise ArtifactError("artifact does not decode to a valid program",
                            path=str(base)) from exc


# -- the two-tier cache ------------------------------------------------------

def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-craterlake/
    compile``, else ``~/.cache/repro-craterlake/compile``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    root = Path(xdg) if xdg else Path.home() / ".cache"
    return root / "repro-craterlake" / "compile"


class CompileCache:
    """LRU memory tier over an optional size-bounded directory tier.

    ``directory=None`` is memory-only (no surprise writes under
    ``$HOME``); pass a directory (or use :func:`default_cache`) for
    cross-process persistence.  ``memory_entries`` bounds the LRU;
    ``disk_bytes`` bounds the directory tier, evicting oldest-modified
    artifacts first.  All lookups are corruption-tolerant: any failure
    to read, unseal, or rebuild an artifact deletes it, counts
    ``compiler.cache.invalid``, and reports a miss.

    Instance-local totals mirror the obs counters in :attr:`stats`
    (``hit`` / ``miss`` / ``store`` / ``evict`` / ``invalid``), so tests
    and servers can read rates without a live collector.
    """

    def __init__(self, directory: str | Path | None = None, *,
                 memory_entries: int = 16,
                 disk_bytes: int = 512 * 2**20):
        self.directory = Path(directory) if directory is not None else None
        self.memory_entries = int(memory_entries)
        self.disk_bytes = int(disk_bytes)
        self._memory: OrderedDict[str, Program] = OrderedDict()
        self.stats = {"hit": 0, "miss": 0, "store": 0, "evict": 0,
                      "invalid": 0}

    # -- bookkeeping -------------------------------------------------------

    def _count(self, event: str, value: int = 1) -> None:
        self.stats[event] += value
        obs.count(f"compiler.cache.{event}", value)

    def _base(self, fp: str) -> Path:
        return self.directory / fp

    def _artifacts(self) -> list[Path]:
        """Manifest paths in the directory tier, oldest-modified first."""
        if self.directory is None or not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.json"),
                      key=lambda p: p.stat().st_mtime)

    def _remove(self, base: Path) -> None:
        for path in (base.with_suffix(".json"), base.with_suffix(".npz")):
            try:
                path.unlink()
            except OSError:
                pass

    # -- the cache protocol ------------------------------------------------

    def get(self, fp: str) -> Program | None:
        """Cached lowered schedule for a fingerprint, or None (a miss)."""
        program = self._memory.get(fp)
        if program is not None:
            self._memory.move_to_end(fp)
            self._count("hit")
            obs.count("compiler.cache.hit.memory")
            return program
        if self.directory is not None:
            base = self._base(fp)
            if base.with_suffix(".json").exists():
                try:
                    with obs.span("compiler.cache.load", "compiler"):
                        program = load_artifact(base, expect_fingerprint=fp)
                except Exception:
                    # Corrupt / stale / truncated: degrade to a miss.
                    self._count("invalid")
                    self._remove(base)
                else:
                    self._insert_memory(fp, program)
                    self._count("hit")
                    obs.count("compiler.cache.hit.disk")
                    return program
        self._count("miss")
        return None

    def put(self, fp: str, program: Program,
            cfg: ChipConfig | None = None, pod: str = "") -> None:
        """Store a lowered schedule under its fingerprint (both tiers).

        ``cfg``/``pod`` are recorded in the on-disk manifest for
        humans and AOT tooling; they do not affect the key (the
        fingerprint already binds them).  Disk failures (read-only or
        full filesystem) are swallowed: caching is an optimization and
        must never take the compile path down.
        """
        snapshot = Program(name=program.name, degree=program.degree,
                           max_level=program.max_level,
                           description=program.description)
        snapshot.ops = list(program.ops)
        self._insert_memory(fp, snapshot)
        if self.directory is not None:
            try:
                with obs.span("compiler.cache.store", "compiler"):
                    save_artifact(self._base(fp), snapshot, fp,
                                  cfg or ChipConfig(), pod)
                self._trim_disk(keep=fp)
            except OSError:
                obs.count("compiler.cache.store_error")
                return
        self._count("store")

    def clear(self) -> None:
        """Drop both tiers (directory artifacts included)."""
        self._memory.clear()
        for manifest in self._artifacts():
            self._remove(manifest.with_suffix(""))

    # -- tier internals ----------------------------------------------------

    def _insert_memory(self, fp: str, program: Program) -> None:
        if self.memory_entries < 1:
            return
        self._memory[fp] = program
        self._memory.move_to_end(fp)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self._count("evict")

    def _trim_disk(self, keep: str) -> None:
        """Evict oldest artifacts until the directory fits the budget;
        the just-written artifact survives even if it alone exceeds it
        (a too-small budget degrades capacity, not correctness)."""
        manifests = self._artifacts()
        total = 0
        sizes: list[tuple[Path, int]] = []
        for manifest in manifests:
            pair = manifest.stat().st_size
            npz = manifest.with_suffix(".npz")
            if npz.exists():
                pair += npz.stat().st_size
            sizes.append((manifest, pair))
            total += pair
        for manifest, pair in sizes:
            if total <= self.disk_bytes:
                break
            if manifest.stem == keep:
                continue
            self._remove(manifest.with_suffix(""))
            self._count("evict")
            total -= pair


_DEFAULT_CACHE: CompileCache | None = None


def default_cache() -> CompileCache:
    """The process-wide cache over :func:`default_cache_dir` (created on
    first use; ``compile_program(..., cache=True)`` resolves to it)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = CompileCache(default_cache_dir())
    return _DEFAULT_CACHE


def resolve_cache(cache) -> CompileCache | None:
    """Map the public ``cache=`` knob onto a :class:`CompileCache`:
    None/False -> disabled, True -> :func:`default_cache`, a path ->
    a cache over that directory, a CompileCache -> itself."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return default_cache()
    if isinstance(cache, CompileCache):
        return cache
    if isinstance(cache, (str, Path)):
        return CompileCache(cache)
    raise ArtifactError("cache must be None/bool/path/CompileCache",
                        got=type(cache).__name__)


# -- the compile entry point -------------------------------------------------

def compile_program(program: Program, cfg: ChipConfig | None = None, *,
                    pod: str = "", cache=None) -> Program:
    """Lower ``program`` for ``cfg`` through the fixed pass pipeline,
    optionally through a compile cache.

    The pipeline is hoisting, then pressure scheduling; each pass keeps
    its own simulator/profitability gate, so the result is never worse
    than the input program.  The pipeline is deterministic, which is
    what makes a cached artifact a *bit-identical* substitute for
    recompiling.

    ``pod`` namespaces the artifact with a pod-partition descriptor
    (``PodConfig.descriptor()``, e.g. ``"4xmodel"``) when the program
    is one shard of a pod cut; single-chip callers leave it ``""``.

    ``cache`` accepts anything :func:`resolve_cache` does.  On a hit
    the cached op stream is returned under the caller's program
    metadata (name/description are display fields, excluded from the
    fingerprint); on a miss the freshly lowered program is stored under
    its fingerprint before returning.
    """
    from repro.compiler.hoisting import hoist_rotations
    from repro.compiler.ordering import order_for_pressure

    cfg = cfg or ChipConfig()
    store = resolve_cache(cache)
    fp = None
    if store is not None:
        with obs.span("compiler.cache.fingerprint", "compiler"):
            fp = fingerprint(program, cfg, pod)
        hit = store.get(fp)
        if hit is not None:
            out = Program(name=program.name, degree=program.degree,
                          max_level=program.max_level,
                          description=program.description)
            out.ops = list(hit.ops)
            return out
    with obs.span("compiler.compile", "compiler"):
        lowered = order_for_pressure(hoist_rotations(program, cfg), cfg)
    if store is not None:
        store.put(fp, lowered, cfg, pod)
    return lowered
