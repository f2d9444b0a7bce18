"""The authenticated index core: postings, epochs, proofs, rebuilds.

Structure
---------

* A :class:`Posting` per ``(dimension, value)`` pair holds the entry ids
  committed under that value **in commit order**, together with a chained
  digest — ``chain = H(prev_chain || entry_id || record_digest)`` — so an
  append costs O(1) and the whole history of the posting is committed by
  one hash.
* Trust bands are *mutable* (scores move sources between bands), so the
  ``trust_band`` dimension is kept as the current source→score-digest map
  per band rather than an append-only posting.
* :meth:`PeerIndex.root` is the Merkle root (:class:`~repro.crypto.merkle.
  MerkleTree`) over every posting leaf, the band leaves and a height leaf;
  the root after applying block *n* is **epoch n**'s digest. Epoch digests
  are journaled into the WAL by the durability layer and auditable by the
  explorer.
* The epoch tree is kept between blocks. Every mutation marks the leaves it
  touched dirty, and :meth:`PeerIndex.root` re-encodes only those and
  rehashes only their paths to the root: O(changed leaves x log leaves) per
  block. The tree is rebuilt only when a block changes the leaf *set* (a new
  posting, a band appearing or emptying, the first tombstone), and the
  rebuild reuses the cached bytes of every unchanged leaf. Leaf order, leaf
  bytes and the tree shape are those of :meth:`PeerIndex.leaves`, so epoch
  digests are byte-identical to hashing ``leaves()`` from scratch.
* :meth:`PeerIndex.prove` reads a :class:`PostingProof` off the cached tree
  in O(log leaves); a light client verifies it against a trusted epoch root
  with :func:`verify_posting_proof` — no chain replay: the client recomputes
  the posting chain from the proof's entries, rebuilds the leaf, and checks
  Merkle membership.

The index only ever observes **valid** transactions' write sets, so it is
rebuildable from world state alone (:meth:`PeerIndex.from_world`) — that is
both the recovery path and the SAN308 divergence check.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

from repro.chaincodes.data import TIME_BUCKET_S, time_bucket
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import MerkleProofError
from repro.fabric.tx import ValidationCode
from repro.index.filters import BlockFilter
from repro.util.serialization import canonical_json

_DATA_PREFIX = "data:"
_TRUST_PREFIX = "trust:"
_DATA_END = _DATA_PREFIX + "\x7f"
_TRUST_END = _TRUST_PREFIX + "\x7f"

# Entry dimensions (append-only postings). ``trust_band`` is separate.
DIMS = ("source", "camera", "class", "violation", "time")

TRUSTED_THRESHOLD = 0.75
MIN_TRUST_THRESHOLD = 0.25

# Leaf keys of the epoch tree that are not (dim, value) postings or bands.
_HEIGHT_LEAF = ("_meta", "")
_TOMBSTONE_LEAF = ("_tombstones", "")


def _seed_chain(dim: str, value: str) -> str:
    """Domain-separated starting digest of a posting chain."""
    return hashlib.sha256(f"posting\x00{dim}\x00{value}".encode()).hexdigest()


def _extend_chain(chain: str, entry_id: str, record_digest: str) -> str:
    h = hashlib.sha256()
    h.update(bytes.fromhex(chain))
    h.update(entry_id.encode())
    h.update(bytes.fromhex(record_digest))
    return h.hexdigest()


def record_digest(raw: bytes) -> str:
    """Digest binding a posting entry to the exact on-chain record bytes."""
    return hashlib.sha256(raw).hexdigest()


@dataclass
class Posting:
    """Append-only entry list for one (dimension, value), chain-digested."""

    dim: str
    value: str
    entries: list[tuple[str, str]] = field(default_factory=list)
    chain: str = ""

    def __post_init__(self) -> None:
        if not self.chain:
            self.chain = _seed_chain(self.dim, self.value)

    def append(self, entry_id: str, digest: str) -> None:
        self.chain = _extend_chain(self.chain, entry_id, digest)
        self.entries.append((entry_id, digest))

    def leaf_bytes(self) -> bytes:
        return canonical_json(
            {
                "chain": self.chain,
                "dim": self.dim,
                "n": len(self.entries),
                "value": self.value,
            }
        )


def _band_leaf_bytes(band: str, sources: dict[str, str]) -> bytes:
    return canonical_json(
        {
            "dim": "trust_band",
            "sources": [[sid, digest] for sid, digest in sorted(sources.items())],
            "value": band,
        }
    )


@dataclass(frozen=True)
class PostingProof:
    """Merkle membership proof for one posting leaf at one epoch.

    ``entries`` is the full entry list of the posting (``(entry_id,
    record_digest)`` pairs in commit order; for ``trust_band`` it is the
    ``(source_id, score_digest)`` map instead). The verifier recomputes the
    posting chain / band leaf from the entries alone, so a tampered or
    truncated entry list cannot reconstruct the committed leaf.
    """

    dim: str
    value: str
    entries: tuple[tuple[str, str], ...]
    merkle: MerkleProof
    root: str  # hex epoch root this proof targets
    height: int  # chain height (blocks) at the proven epoch


def verify_posting_proof(proof: PostingProof, trusted_root: str) -> bool:
    """Raise :class:`MerkleProofError` unless the proof's entries are the
    committed posting under ``trusted_root`` (a hex epoch digest); returns
    True on success so it composes with assertions."""
    if proof.root != trusted_root:
        raise MerkleProofError(
            "posting proof targets a different epoch root than trusted"
        )
    if proof.dim == "trust_band":
        leaf = _band_leaf_bytes(proof.value, dict(proof.entries))
    else:
        chain = _seed_chain(proof.dim, proof.value)
        for entry_id, digest in proof.entries:
            chain = _extend_chain(chain, entry_id, digest)
        leaf = canonical_json(
            {
                "chain": chain,
                "dim": proof.dim,
                "n": len(proof.entries),
                "value": proof.value,
            }
        )
    proof.merkle.verify(leaf, bytes.fromhex(trusted_root))
    return True


def verify_answer_records(
    records: list[dict], proofs: tuple[PostingProof, ...], trusted_root: str
) -> int:
    """Light-client verification of a query answer, no chain replay.

    Every proof must verify against ``trusted_root``, and every answer
    record must hash (canonical JSON) to the record digest its posting
    committed. Returns the number of verified records; raises
    :class:`MerkleProofError` on any failure.
    """
    digests: dict[str, str] = {}
    for proof in proofs:
        verify_posting_proof(proof, trusted_root)
        if proof.dim != "trust_band":
            digests.update(dict(proof.entries))
    for record in records:
        entry_id = record.get("entry_id")
        expected = digests.get(entry_id)
        if expected is None:
            raise MerkleProofError(
                f"answer row {entry_id!r} is not covered by any posting proof"
            )
        if record_digest(canonical_json(record)) != expected:
            raise MerkleProofError(
                f"answer row {entry_id!r} does not match its committed digest"
            )
    return len(records)


class PeerIndex:
    """One peer's cumulative index, advanced one committed block at a time."""

    def __init__(
        self,
        trusted_threshold: float = TRUSTED_THRESHOLD,
        min_threshold: float = MIN_TRUST_THRESHOLD,
    ) -> None:
        self.trusted_threshold = trusted_threshold
        self.min_threshold = min_threshold
        self.postings: dict[tuple[str, str], Posting] = {}
        # band -> source -> digest of the current on-chain trust record.
        self.bands: dict[str, dict[str, str]] = {}
        self.band_of: dict[str, str] = {}
        self.height = 0  # blocks applied; epoch n exists once height == n+1
        self.epochs: dict[int, str] = {}
        self.block_filters: dict[int, BlockFilter] = {}
        self.tombstones: set[str] = set()
        self._indexed: set[str] = set()
        # Sorted integer ids of the time buckets that have a posting.
        self._time_ids: list[int] = []
        # The epoch tree as of the last root(): None means the leaf set has
        # changed and the next root() rebuilds it. Leaves are keyed by
        # (dim, value); ``_dirty`` holds the keys whose bytes are stale.
        self._tree: MerkleTree | None = None
        self._leaf_pos: dict[tuple[str, str], int] = {}
        self._leaf_cache: dict[tuple[str, str], bytes] = {}
        self._dirty: set[tuple[str, str]] = set()

    # -- band mapping --------------------------------------------------------

    def band_for(self, score: float) -> str:
        if score >= self.trusted_threshold:
            return "trusted"
        if score >= self.min_threshold:
            return "provisional"
        return "untrusted"

    # -- incremental maintenance (commit path) --------------------------------

    def apply_block(self, block) -> str:
        """Index a committed (annotated) block's valid writes; returns the
        new epoch digest, also recorded under ``epochs[block.number]``."""
        codes = block.validation_codes
        tokens: list[str] = []
        for i, tx in enumerate(block.transactions):
            if codes and codes[i] is not ValidationCode.VALID:
                continue
            for write in tx.rwset.writes:
                tokens.extend(self._apply_write(write))
        self.height = block.number + 1
        self._dirty.add(_HEIGHT_LEAF)
        filt = BlockFilter()
        for token in tokens:
            filt.add(token)
        self.block_filters[block.number] = filt
        digest = self.root()
        self.epochs[block.number] = digest
        return digest

    def _apply_write(self, write) -> list[str]:
        key = write.key
        if key.startswith(_DATA_PREFIX):
            if write.is_delete or write.value is None:
                entry_id = key[len(_DATA_PREFIX):]
                if entry_id in self._indexed:
                    if not self.tombstones:
                        self._tree = None
                    self.tombstones.add(entry_id)
                    self._dirty.add(_TOMBSTONE_LEAF)
                return []
            try:
                record = json.loads(write.value)
            except (UnicodeDecodeError, json.JSONDecodeError):
                return []
            if not isinstance(record, dict):
                return []
            entry_id = record.get("entry_id") or key[len(_DATA_PREFIX):]
            return self._insert(entry_id, record, write.value)
        if key.startswith(_TRUST_PREFIX):
            if write.is_delete or write.value is None:
                return []
            return self._apply_trust(key[len(_TRUST_PREFIX):], write.value)
        return []

    def _insert(self, entry_id: str, record: dict, raw: bytes) -> list[str]:
        if entry_id in self._indexed:
            return []  # data records are immutable; re-commit is a no-op
        digest = record_digest(raw)
        tokens = []
        for key in self._record_dims(record):
            posting = self.postings.get(key)
            if posting is None:
                posting = self.postings[key] = self._new_posting(*key)
            posting.append(entry_id, digest)
            self._dirty.add(key)
            tokens.append("=".join(key))
        self._indexed.add(entry_id)
        return tokens

    def _new_posting(self, dim: str, value: str, chain: str = "") -> Posting:
        self._tree = None
        if dim == "time":
            insort(self._time_ids, int(value))
        return Posting(dim, value, chain=chain)

    @staticmethod
    def _record_dims(record: dict) -> list[tuple[str, str]]:
        metadata = record.get("metadata") or {}
        dims: list[tuple[str, str]] = []
        source = record.get("source_id")
        if source:
            dims.append(("source", str(source)))
        camera = metadata.get("camera_id") if isinstance(metadata, dict) else None
        if camera:
            dims.append(("camera", str(camera)))
        ts = metadata.get("timestamp") if isinstance(metadata, dict) else None
        if isinstance(ts, (int, float)) and not isinstance(ts, bool):
            dims.append(("time", time_bucket(ts)))
        classes, violations = set(), set()
        if isinstance(metadata, dict):
            for detection in metadata.get("detections") or ():
                if isinstance(detection, dict) and detection.get("vehicle_class"):
                    classes.add(str(detection["vehicle_class"]))
            for violation in metadata.get("violations") or ():
                if isinstance(violation, dict) and violation.get("violation_type"):
                    violations.add(str(violation["violation_type"]))
        dims.extend(("class", c) for c in sorted(classes))
        dims.extend(("violation", v) for v in sorted(violations))
        return dims

    def _apply_trust(self, source_id: str, raw: bytes) -> list[str]:
        try:
            record = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return []
        if not isinstance(record, dict):
            return []
        try:
            score = float(record.get("score", 0.0))
        except (TypeError, ValueError):
            return []
        band = self.band_for(score)
        old = self.band_of.get(source_id)
        if old is not None and old != band:
            self.bands[old].pop(source_id, None)
            self._dirty.add(("trust_band", old))
            if not self.bands[old]:
                del self.bands[old]
                self._tree = None
        if band not in self.bands:
            self.bands[band] = {}
            self._tree = None
        self.band_of[source_id] = band
        self.bands[band][source_id] = record_digest(raw)
        self._dirty.add(("trust_band", band))
        return [f"trust_band={band}"]

    # -- the authenticated epoch root ------------------------------------------

    def _leaf_keys(self) -> list[tuple[str, str]]:
        """Deterministic leaf order: height leaf, entry postings sorted by
        (dim, value), band leaves, then the tombstone leaf when present."""
        keys = [_HEIGHT_LEAF, *sorted(self.postings)]
        keys.extend(("trust_band", band) for band in sorted(self.bands))
        if self.tombstones:
            keys.append(_TOMBSTONE_LEAF)
        return keys

    def _encode_leaf(self, key: tuple[str, str]) -> bytes:
        if key == _HEIGHT_LEAF:
            return canonical_json({"dim": "_meta", "height": self.height})
        if key == _TOMBSTONE_LEAF:
            return canonical_json({"dim": "_tombstones", "ids": sorted(self.tombstones)})
        if key[0] == "trust_band":
            return _band_leaf_bytes(key[1], self.bands[key[1]])
        return self.postings[key].leaf_bytes()

    def leaves(self) -> list[bytes]:
        """Every leaf of the current epoch, encoded from scratch (the
        reference the cached tree behind :meth:`root` must agree with)."""
        return [self._encode_leaf(key) for key in self._leaf_keys()]

    def _synced_tree(self) -> MerkleTree:
        """The epoch tree brought up to date: rebuilt when the leaf set has
        changed, otherwise only the dirty leaves' paths rehashed."""
        cache = self._leaf_cache
        if self._tree is None:
            keys = self._leaf_keys()
            leaves = [
                cache[key] if key in cache and key not in self._dirty
                else self._encode_leaf(key)
                for key in keys
            ]
            self._leaf_pos = {key: i for i, key in enumerate(keys)}
            self._leaf_cache = dict(zip(keys, leaves))
            self._tree = MerkleTree(leaves)
        elif self._dirty:
            changes = {}
            for key in self._dirty:
                changes[self._leaf_pos[key]] = cache[key] = self._encode_leaf(key)
            self._tree.update(changes)
        self._dirty.clear()
        return self._tree

    def root(self) -> str:
        return self._synced_tree().root.hex()

    def prove(self, dim: str, value: str) -> PostingProof:
        """Membership proof for one posting (or trust band) at the current
        epoch. Raises :class:`MerkleProofError` for an unknown value —
        absence proofs are out of scope for this structure."""
        if dim == "trust_band":
            sources = self.bands.get(value)
            if sources is None:
                raise MerkleProofError(f"no trust band {value!r} in the index")
            entries = tuple(sorted(sources.items()))
        else:
            posting = self.postings.get((dim, value))
            if posting is None:
                raise MerkleProofError(f"no posting for {dim}={value!r}")
            entries = tuple(posting.entries)
        tree = self._synced_tree()
        return PostingProof(
            dim=dim,
            value=value,
            entries=entries,
            merkle=tree.proof(self._leaf_pos[(dim, value)]),
            root=tree.root.hex(),
            height=self.height,
        )

    # -- lookups (the planner's index route) ------------------------------------

    def has(self, dim: str, value: str) -> bool:
        """Is there a posting (or trust band) to prove for this value?"""
        if dim == "trust_band":
            return value in self.bands
        return (dim, value) in self.postings

    def lookup(self, dim: str, value: str) -> list[str]:
        """Entry ids under one value, sorted; tombstoned entries excluded.
        ``trust_band`` expands through the member sources' postings."""
        if dim == "trust_band":
            ids: set[str] = set()
            for source in self.bands.get(value, ()):
                posting = self.postings.get(("source", source))
                if posting is not None:
                    ids.update(eid for eid, _ in posting.entries)
            return sorted(ids - self.tombstones)
        posting = self.postings.get((dim, value))
        if posting is None:
            return []
        return sorted(
            {eid for eid, _ in posting.entries if eid not in self.tombstones}
        )

    def lookup_time_range(self, lower: float, upper: float) -> list[str]:
        """Entry ids whose time bucket intersects ``[lower, upper)``."""
        ids: set[str] = set()
        for bucket in self.time_buckets(lower, upper):
            ids.update(eid for eid, _ in self.postings[("time", bucket)].entries)
        return sorted(ids - self.tombstones)

    def time_buckets(self, lower: float, upper: float) -> list[str]:
        """Bucket values present in the index that intersect the range, in
        string order (which is not numeric order for negative buckets)."""
        if upper < lower:
            return []
        lo_b, hi_b = int(lower // TIME_BUCKET_S), int(upper // TIME_BUCKET_S)
        ids = self._time_ids
        present = ids[bisect_left(ids, lo_b):bisect_right(ids, hi_b)]
        return sorted(f"{b:012d}" for b in present)

    def blocks_possibly_containing(self, dim: str, value: str) -> list[int]:
        """Block numbers whose posting filter admits ``dim=value``."""
        token = f"{dim}={value}"
        return [n for n, f in sorted(self.block_filters.items()) if token in f]

    # -- persistence / rebuild ----------------------------------------------------

    def fresh(self) -> "PeerIndex":
        """An empty index with this one's thresholds (post-wipe state)."""
        return PeerIndex(self.trusted_threshold, self.min_threshold)

    def to_doc(self) -> dict:
        return {
            "height": self.height,
            "thresholds": [self.trusted_threshold, self.min_threshold],
            "postings": [
                [dim, value, p.chain, [[e, d] for e, d in p.entries]]
                for (dim, value), p in sorted(self.postings.items())
            ],
            "bands": {
                band: [[s, d] for s, d in sorted(members.items())]
                for band, members in sorted(self.bands.items())
            },
            "epochs": {str(n): digest for n, digest in sorted(self.epochs.items())},
            "filters": {
                str(n): f.to_doc() for n, f in sorted(self.block_filters.items())
            },
            "tombstones": sorted(self.tombstones),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "PeerIndex":
        trusted, minimum = doc.get("thresholds", [TRUSTED_THRESHOLD, MIN_TRUST_THRESHOLD])
        out = cls(float(trusted), float(minimum))
        out.height = int(doc["height"])
        for dim, value, chain, entries in doc.get("postings", ()):
            posting = out._new_posting(dim, value, chain)
            posting.entries = [(e, d) for e, d in entries]
            out.postings[(dim, value)] = posting
        out._indexed = {
            eid
            for (dim, _), posting in out.postings.items()
            for eid, _ in posting.entries
        }
        for band, members in doc.get("bands", {}).items():
            out.bands[band] = {s: d for s, d in members}
            for s in out.bands[band]:
                out.band_of[s] = band
        out.epochs = {int(n): d for n, d in doc.get("epochs", {}).items()}
        out.block_filters = {
            int(n): BlockFilter.from_doc(f) for n, f in doc.get("filters", {}).items()
        }
        out.tombstones = set(doc.get("tombstones", ()))
        return out

    @classmethod
    def from_world(
        cls,
        world,
        height: int,
        trusted_threshold: float = TRUSTED_THRESHOLD,
        min_threshold: float = MIN_TRUST_THRESHOLD,
    ) -> "PeerIndex":
        """Rebuild from committed world state (recovery / divergence check).

        Replaying inserts in ``(block, tx)`` version order reproduces the
        exact chained posting digests of incremental maintenance, so the
        rebuilt root matches the live root at the same height. Per-block
        filters are approximated from the data records' versions (trust
        tokens are not recoverable per block from current state); deleted
        records are invisible here, so callers skip root comparison for
        indexes carrying tombstones.
        """
        out = cls(trusted_threshold, min_threshold)
        rows = []
        for key, raw in world.range(_DATA_PREFIX, _DATA_END):
            version = world.get_version(key)
            rows.append((version.block, version.tx, key, raw))
        tokens_by_block: dict[int, list[str]] = {}
        for block_n, _tx, key, raw in sorted(rows):
            try:
                record = json.loads(raw)
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            if not isinstance(record, dict):
                continue
            entry_id = record.get("entry_id") or key[len(_DATA_PREFIX):]
            tokens_by_block.setdefault(block_n, []).extend(
                out._insert(entry_id, record, raw)
            )
        for key, raw in world.range(_TRUST_PREFIX, _TRUST_END):
            out._apply_trust(key[len(_TRUST_PREFIX):], raw)
        for block_n, tokens in tokens_by_block.items():
            filt = BlockFilter()
            for token in tokens:
                filt.add(token)
            out.block_filters[block_n] = filt
        out.height = height
        if height > 0:
            out.epochs[height - 1] = out.root()
        return out
