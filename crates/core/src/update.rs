//! Incremental updates via virtual-node slots (§2.3.2).
//!
//! The PBiTree embedding is sparse: most nodes of the perfect binary tree
//! are *virtual* — never materialized, but reserved code space. The paper
//! points out that these virtual nodes "may serve as placeholders and thus
//! be advantageous to update": inserting a new element under `p` only
//! needs a free (virtual) slot inside `p`'s subtree, with no renumbering
//! of existing elements — the property "durable" numbering schemes buy
//! with explicit gaps, obtained here for free.
//!
//! [`CodeAllocator`] tracks the occupied slots of an encoding and hands
//! out fresh codes:
//!
//! * [`CodeAllocator::insert_child`] — any free slot strictly inside a
//!   parent's subtree, preferring shallow levels (short codes, small
//!   regions left intact for future inserts);
//! * [`CodeAllocator::insert_sibling_after`] — a free slot at the same
//!   height right of an existing node (keeps siblings contiguous, the
//!   binarization heuristic's invariant), falling back to any free slot
//!   under the parent.
//!
//! When a subtree's code space is exhausted the allocator reports it; the
//! remedy — as with every durable numbering scheme — is re-embedding into
//! a taller PBiTree ([`crate::binarize::binarize_tree_with_height`]).

use std::collections::HashSet;

use crate::code::{Code, PBiTreeShape};

/// Errors raised by the update allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// Every slot in the parent's subtree is occupied: the document must
    /// be re-embedded into a taller PBiTree.
    SubtreeFull {
        /// The parent whose subtree has no free slot.
        parent: u64,
    },
    /// The anchor node is a leaf of the PBiTree (height 0): it has no
    /// subtree to allocate from.
    NoRoomBelowLeaf {
        /// The offending anchor.
        node: u64,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::SubtreeFull { parent } => {
                write!(
                    f,
                    "no free code slot under {parent}; re-embed into a taller tree"
                )
            }
            UpdateError::NoRoomBelowLeaf { node } => {
                write!(f, "{node} is at height 0; nothing can be inserted below it")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// Tracks occupied codes and allocates virtual-node slots for inserts.
#[derive(Debug, Clone)]
pub struct CodeAllocator {
    shape: PBiTreeShape,
    used: HashSet<u64>,
}

impl CodeAllocator {
    /// An allocator over explicit occupied codes (e.g. loaded from a
    /// catalog).
    pub fn from_codes<I: IntoIterator<Item = Code>>(shape: PBiTreeShape, codes: I) -> Self {
        CodeAllocator {
            shape,
            used: codes.into_iter().map(|c| c.get()).collect(),
        }
    }

    /// The tree shape.
    #[inline]
    pub fn shape(&self) -> PBiTreeShape {
        self.shape
    }

    /// Number of occupied slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.used.len()
    }

    /// Whether nothing is occupied.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.used.is_empty()
    }

    /// Whether a code is occupied.
    #[inline]
    pub fn contains(&self, code: Code) -> bool {
        self.used.contains(&code.get())
    }

    /// Allocates a free slot strictly inside `parent`'s subtree, marking
    /// it occupied. Prefers the shallowest level with a free slot and
    /// scans it left to right — new children land next to existing ones.
    pub fn insert_child(&mut self, parent: Code) -> Result<Code, UpdateError> {
        let hp = parent.height();
        if hp == 0 {
            return Err(UpdateError::NoRoomBelowLeaf { node: parent.get() });
        }
        // Levels below the parent, shallow first: height hp-1 down to 0.
        let (start, end) = parent.region();
        for h in (0..hp).rev() {
            // The subtree is an aligned block, so its leftmost height-h
            // node is `start + 2^h - 1` and they repeat every 2^(h+1).
            let step = 1u64 << (h + 1);
            let mut slot = start + (1u64 << h) - 1;
            while slot <= end {
                if slot != parent.get() && !self.used.contains(&slot) {
                    self.used.insert(slot);
                    return Ok(Code::from_raw_unchecked(slot));
                }
                slot += step;
            }
        }
        Err(UpdateError::SubtreeFull {
            parent: parent.get(),
        })
    }

    /// Allocates the nearest free slot at `node`'s height to its right,
    /// within `parent`'s subtree (the "append a sibling" case of document
    /// updates). Falls back to [`insert_child`](Self::insert_child) when
    /// that row is exhausted.
    pub fn insert_sibling_after(&mut self, parent: Code, node: Code) -> Result<Code, UpdateError> {
        debug_assert!(parent.is_ancestor_of(node), "node must be under parent");
        let h = node.height();
        let step = 1u64 << (h + 1);
        let (_, end) = parent.region();
        let mut slot = node.get() + step;
        while slot <= end {
            if !self.used.contains(&slot) {
                self.used.insert(slot);
                return Ok(Code::from_raw_unchecked(slot));
            }
            slot += step;
        }
        self.insert_child(parent)
    }

    /// Releases a slot (element deletion). Returns whether it was present.
    pub fn remove(&mut self, code: Code) -> bool {
        self.used.remove(&code.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binarize::binarize_tree_with_height;
    use crate::tree::DataTree;

    fn setup() -> (CodeAllocator, Code) {
        // A small document in a roomy tree.
        let mut t = DataTree::new(0);
        let a = t.add_child(t.root(), 1);
        // Three children: they land two levels below `a`, so the level
        // right below `a` consists entirely of free virtual slots.
        t.add_child(a, 2);
        t.add_child(a, 3);
        t.add_child(a, 4);
        let enc = binarize_tree_with_height(&t, 10).unwrap();
        let alloc = CodeAllocator::from_codes(enc.shape(), enc.codes().iter().copied());
        (alloc, enc.code(a))
    }

    #[test]
    fn inserted_children_are_descendants_and_fresh() {
        let (mut alloc, parent) = setup();
        let before = alloc.len();
        let mut seen = HashSet::new();
        for _ in 0..20 {
            let c = alloc.insert_child(parent).unwrap();
            assert!(parent.is_ancestor_of(c), "{c} not under {parent}");
            assert!(seen.insert(c.get()), "duplicate code {c}");
        }
        assert_eq!(alloc.len(), before + 20);
    }

    #[test]
    fn prefers_shallow_slots() {
        let (mut alloc, parent) = setup();
        let c = alloc.insert_child(parent).unwrap();
        // First free slot is at the level right below the parent.
        assert_eq!(c.height(), parent.height() - 1);
    }

    #[test]
    fn sibling_insert_lands_right_of_node() {
        let (mut alloc, parent) = setup();
        let first = alloc.insert_child(parent).unwrap();
        let sib = alloc.insert_sibling_after(parent, first).unwrap();
        assert_eq!(sib.height(), first.height());
        assert!(sib.get() > first.get());
        assert!(parent.is_ancestor_of(sib));
    }

    #[test]
    fn exhaustion_is_reported() {
        // A tiny subtree: parent at height 2 has 6 proper slots.
        let shape = PBiTreeShape::new(8).unwrap();
        let parent = Code::new(4).unwrap(); // height 2, region [1, 7]
        let mut alloc = CodeAllocator::from_codes(shape, [parent]);
        for _ in 0..6 {
            alloc.insert_child(parent).unwrap();
        }
        assert_eq!(
            alloc.insert_child(parent),
            Err(UpdateError::SubtreeFull { parent: 4 })
        );
        // Deleting one frees a slot again.
        assert!(alloc.remove(Code::new(1).unwrap()) || alloc.remove(Code::new(2).unwrap()));
        assert!(alloc.insert_child(parent).is_ok());
    }

    #[test]
    fn leaf_anchor_rejected() {
        let shape = PBiTreeShape::new(8).unwrap();
        let mut alloc = CodeAllocator::from_codes(shape, []);
        let leaf = Code::new(1).unwrap();
        assert_eq!(
            alloc.insert_child(leaf),
            Err(UpdateError::NoRoomBelowLeaf { node: 1 })
        );
    }

    #[test]
    fn sibling_insert_falls_back_when_the_row_is_exhausted() {
        // Parent at height 3 (code 8, region [1, 15]); its height-0 row
        // inside the subtree is {1, 3, 5, 7, 9, 11, 13, 15}.
        let shape = PBiTreeShape::new(8).unwrap();
        let parent = Code::new(8).unwrap();
        let node = Code::new(13).unwrap();
        // Occupy everything right of `node` in its row.
        let mut alloc = CodeAllocator::from_codes(shape, [parent, node, Code::new(15).unwrap()]);
        let got = alloc.insert_sibling_after(parent, node).unwrap();
        // The row right of 13 is full, so the fallback allocates a free
        // slot elsewhere under the parent — shallowest level first.
        assert_ne!(got.get(), 15);
        assert!(parent.is_ancestor_of(got));
        assert_eq!(got.height(), 2, "shallowest free level under height 3");
    }

    #[test]
    fn insertion_at_h63_allocates_under_the_full_tree_root() {
        // The tallest supported tree: H = 63, root code 2^62 at height
        // 62, code space [1, 2^63 - 1]. Slot arithmetic must not
        // overflow near the top of the code space.
        let shape = PBiTreeShape::new(63).unwrap();
        let root = shape.root();
        assert_eq!(root.get(), 1u64 << 62);
        let mut alloc = CodeAllocator::from_codes(shape, []);
        let a = alloc.insert_child(root).unwrap();
        assert_eq!(a.height(), 61, "shallowest level under the root");
        assert!(root.is_ancestor_of(a));
        let b = alloc.insert_sibling_after(root, a).unwrap();
        assert_eq!(b.height(), 61);
        assert!(b.get() > a.get() && root.is_ancestor_of(b));
        // Both height-61 slots are taken now: the next child drops a
        // level. Regions stay inside the root's.
        let c = alloc.insert_child(root).unwrap();
        assert_eq!(c.height(), 60);
        let (lo, hi) = root.region();
        assert_eq!((lo, hi), (1, (1u64 << 63) - 1));
        let (clo, chi) = c.region();
        assert!(lo <= clo && chi <= hi);
    }

    #[test]
    fn delete_then_reinsert_reuses_the_freed_code() {
        let (mut alloc, parent) = setup();
        let first = alloc.insert_child(parent).unwrap();
        assert!(alloc.remove(first));
        assert!(!alloc.contains(first), "slot is free again");
        // Allocation scans shallowest-first, left-to-right: with the
        // state restored, the freed slot is chosen again — codes are
        // reused, not burned (no code-space leak under churn).
        let again = alloc.insert_child(parent).unwrap();
        assert_eq!(again, first);
        // And double-remove reports absence.
        assert!(alloc.remove(first));
        assert!(!alloc.remove(first));
    }

    #[test]
    fn existing_containments_never_change() {
        // The durability property: inserts never move existing codes, so
        // all previously computed joins remain valid.
        let (mut alloc, parent) = setup();
        let before: Vec<u64> = {
            let mut v: Vec<u64> = (1..1000u64)
                .filter(|&c| alloc.contains(Code::new(c).unwrap()))
                .collect();
            v.sort_unstable();
            v
        };
        for _ in 0..10 {
            alloc.insert_child(parent).unwrap();
        }
        for &c in &before {
            assert!(alloc.contains(Code::new(c).unwrap()));
        }
    }
}
