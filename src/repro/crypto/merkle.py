"""Binary Merkle trees with inclusion proofs.

Ledger blocks commit to their transaction set through a Merkle root, so a
light client holding one transaction and a short proof can check membership
against the block header alone. Leaves are domain-separated from interior
nodes (0x00 / 0x01 prefixes) to rule out second-preimage attacks that splice
an interior node in as a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.crypto.hashing import digest
from repro.errors import MerkleProofError
from repro.obs.prof import profiled

_LEAF = b"\x00"
_NODE = b"\x01"


def _leaf_hash(data: bytes) -> bytes:
    return digest(_LEAF + data)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return digest(_NODE + left + right)


@dataclass(frozen=True)
class ProofStep:
    """One sibling on the path from a leaf to the root."""

    sibling: bytes
    sibling_on_left: bool


@dataclass(frozen=True)
class MerkleProof:
    """Inclusion proof: the leaf index plus the sibling path to the root."""

    leaf_index: int
    steps: tuple[ProofStep, ...]

    def verify(self, leaf_data: bytes, root: bytes) -> None:
        """Raise :class:`MerkleProofError` unless the proof links leaf→root."""
        with profiled("crypto.merkle", n_bytes=len(leaf_data)):
            node = _leaf_hash(leaf_data)
            for step in self.steps:
                if step.sibling_on_left:
                    node = _node_hash(step.sibling, node)
                else:
                    node = _node_hash(node, step.sibling)
            if node != root:
                raise MerkleProofError("Merkle proof does not reconstruct the root")

    def is_valid(self, leaf_data: bytes, root: bytes) -> bool:
        try:
            self.verify(leaf_data, root)
        except MerkleProofError:
            return False
        return True


class MerkleTree:
    """Merkle tree over a fixed number of byte-string leaves, which
    :meth:`update` can replace in place.

    An odd node at any level is promoted unpaired (Certificate-Transparency
    style) rather than duplicated, so the tree of *n* leaves never commits to
    phantom data.
    """

    def __init__(self, leaves: Sequence[bytes]) -> None:
        if not leaves:
            raise ValueError("Merkle tree requires at least one leaf")
        with profiled("crypto.merkle") as pf:
            self._leaves = [bytes(leaf) for leaf in leaves]
            pf.add_bytes(sum(len(leaf) for leaf in self._leaves))
            # _levels[0] is the leaf-hash level; the last level is [root].
            self._levels: list[list[bytes]] = [[_leaf_hash(l) for l in self._leaves]]
            while len(self._levels[-1]) > 1:
                prev = self._levels[-1]
                nxt = [
                    _node_hash(prev[i], prev[i + 1]) if i + 1 < len(prev) else prev[i]
                    for i in range(0, len(prev), 2)
                ]
                self._levels.append(nxt)

    def __len__(self) -> int:
        return len(self._leaves)

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    def update(self, changes: Mapping[int, bytes]) -> None:
        """Replace the leaves at the given indexes and rehash only their
        paths to the root, each interior node once: O(k log n) for k
        changes, never more hashing than building the tree afresh, and the
        same tree as building it afresh with the new leaves."""
        for index in changes:
            if not 0 <= index < len(self._leaves):
                raise IndexError(f"leaf index {index} out of range")
        with profiled("crypto.merkle") as pf:
            for index, leaf in changes.items():
                self._leaves[index] = leaf = bytes(leaf)
                self._levels[0][index] = _leaf_hash(leaf)
                pf.add_bytes(len(leaf))
            touched = {index // 2 for index in changes}
            for below, level in zip(self._levels, self._levels[1:]):
                for pos in touched:
                    left = 2 * pos
                    level[pos] = (
                        _node_hash(below[left], below[left + 1])
                        if left + 1 < len(below)
                        else below[left]  # unpaired: promoted unchanged
                    )
                touched = {pos // 2 for pos in touched}

    def proof(self, index: int) -> MerkleProof:
        """Build the inclusion proof for the leaf at ``index``."""
        if not 0 <= index < len(self._leaves):
            raise IndexError(f"leaf index {index} out of range")
        steps: list[ProofStep] = []
        pos = index
        for level in self._levels[:-1]:
            if pos % 2 == 0:
                if pos + 1 < len(level):
                    steps.append(ProofStep(sibling=level[pos + 1], sibling_on_left=False))
                # Unpaired node is promoted: no step at this level.
            else:
                steps.append(ProofStep(sibling=level[pos - 1], sibling_on_left=True))
            pos //= 2
        return MerkleProof(leaf_index=index, steps=tuple(steps))


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Root of the Merkle tree over ``leaves``; empty input hashes to the
    digest of the empty string under leaf domain separation."""
    if not leaves:
        return _leaf_hash(b"")
    return MerkleTree(leaves).root
