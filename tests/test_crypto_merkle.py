"""Tests for Merkle trees and inclusion proofs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.merkle import MerkleTree, merkle_root
from repro.errors import MerkleProofError


class TestMerkleTree:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    def test_single_leaf_root_is_leaf_hash(self):
        tree = MerkleTree([b"only"])
        assert len(tree) == 1
        proof = tree.proof(0)
        assert proof.steps == ()
        proof.verify(b"only", tree.root)

    def test_root_changes_with_leaf_content(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"a", b"c"]).root

    def test_root_changes_with_leaf_order(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_proofs_verify_for_all_leaves(self):
        leaves = [f"tx-{i}".encode() for i in range(7)]  # odd count
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            tree.proof(i).verify(leaf, tree.root)

    def test_proof_fails_for_wrong_leaf(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        with pytest.raises(MerkleProofError):
            tree.proof(1).verify(b"x", tree.root)

    def test_proof_fails_for_wrong_root(self):
        tree = MerkleTree([b"a", b"b"])
        other = MerkleTree([b"a", b"c"])
        assert not tree.proof(0).is_valid(b"a", other.root)

    def test_proof_index_out_of_range(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(IndexError):
            tree.proof(1)

    def test_leaf_not_confusable_with_interior_node(self):
        """Domain separation: a two-leaf root used as a leaf gives a new root."""
        inner = MerkleTree([b"a", b"b"]).root
        assert MerkleTree([inner]).root != MerkleTree([b"a", b"b"]).root

    def test_odd_promotion_no_phantom_leaf(self):
        """Tree of [a,b,c] must differ from tree of [a,b,c,c] (no duplication)."""
        assert MerkleTree([b"a", b"b", b"c"]).root != MerkleTree([b"a", b"b", b"c", b"c"]).root


class TestMerkleUpdate:
    @staticmethod
    def assert_same_tree(tree, leaves):
        fresh = MerkleTree(leaves)
        assert tree.root == fresh.root
        for i in range(len(leaves)):
            assert tree.proof(i) == fresh.proof(i)

    @pytest.mark.parametrize("n", range(1, 18))
    def test_update_matches_fresh_tree(self, n):
        """Every leaf rewritten in turn, across odd-node promotion shapes."""
        leaves = [f"leaf-{i}".encode() for i in range(n)]
        tree = MerkleTree(leaves)
        for i in reversed(range(n)):
            leaves[i] = f"new-{i}".encode()
            tree.update({i: leaves[i]})
            self.assert_same_tree(tree, leaves)

    @pytest.mark.parametrize("n", range(1, 18))
    def test_batched_update_matches_fresh_tree(self, n):
        leaves = [f"leaf-{i}".encode() for i in range(n)]
        tree = MerkleTree(leaves)
        changes = {i: f"new-{i}".encode() for i in range(0, n, 3)}
        changes[n - 1] = b"last"
        tree.update(changes)
        for i, leaf in changes.items():
            leaves[i] = leaf
        self.assert_same_tree(tree, leaves)

    def test_update_index_out_of_range(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        for index in (3, -1):
            with pytest.raises(IndexError):
                tree.update({index: b"d"})
        assert tree.root == MerkleTree([b"a", b"b", b"c"]).root


@given(
    st.lists(st.binary(max_size=8), min_size=1, max_size=17),
    st.lists(
        st.dictionaries(st.integers(min_value=0, max_value=16), st.binary(max_size=8)),
        max_size=6,
    ),
)
def test_property_updates_match_fresh_tree(leaves, batches):
    tree = MerkleTree(leaves)
    for batch in batches:
        changes = {index % len(leaves): leaf for index, leaf in batch.items()}
        leaves = [changes.get(i, leaf) for i, leaf in enumerate(leaves)]
        tree.update(changes)
    TestMerkleUpdate.assert_same_tree(tree, leaves)


class TestMerkleRoot:
    def test_empty_defined(self):
        assert isinstance(merkle_root([]), bytes)
        assert len(merkle_root([])) == 32

    def test_matches_tree(self):
        leaves = [b"x", b"y", b"z"]
        assert merkle_root(leaves) == MerkleTree(leaves).root


@given(st.lists(st.binary(max_size=32), min_size=1, max_size=33))
def test_property_all_proofs_verify(leaves):
    tree = MerkleTree(leaves)
    for i, leaf in enumerate(leaves):
        assert tree.proof(i).is_valid(leaf, tree.root)


@given(st.lists(st.binary(max_size=16), min_size=2, max_size=16), st.data())
def test_property_mutated_leaf_fails(leaves, data):
    tree = MerkleTree(leaves)
    idx = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    mutated = leaves[idx] + b"\x01"
    assert not tree.proof(idx).is_valid(mutated, tree.root)


@given(st.lists(st.binary(max_size=16), min_size=1, max_size=16))
def test_property_root_deterministic(leaves):
    assert MerkleTree(leaves).root == MerkleTree(leaves).root
