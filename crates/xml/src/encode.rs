//! PBiTree encoding of documents and element-set extraction.

use crate::document::{Document, TagId};
use pbitree_core::{binarize_tree, Code, CodeError, EncodedTree};

/// A document together with the PBiTree codes of all its nodes — the unit
/// a containment-join engine loads. Element sets extracted from it are the
/// `A` and `D` inputs of the paper's Definition 1.
#[derive(Debug)]
pub struct EncodedDocument {
    doc: Document,
    enc: EncodedTree,
}

impl EncodedDocument {
    /// Binarizes `doc` into the minimal PBiTree.
    pub fn encode(doc: Document) -> Result<Self, CodeError> {
        let enc = binarize_tree(doc.tree())?;
        Ok(EncodedDocument { doc, enc })
    }

    /// The underlying document.
    #[inline]
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The encoding (codes indexed by node id) and tree shape.
    #[inline]
    pub fn encoding(&self) -> &EncodedTree {
        &self.enc
    }

    /// The PBiTree height used by the embedding.
    #[inline]
    pub fn height(&self) -> u32 {
        self.enc.shape().height()
    }

    /// Codes of all nodes with tag `name`, in document order. This is the
    /// element-set extraction step that feeds containment joins.
    pub fn element_set(&self, name: &str) -> Vec<Code> {
        self.doc
            .nodes_with_tag(name)
            .into_iter()
            .map(|n| self.enc.code(n))
            .collect()
    }

    /// `(code, tag)` pairs for every node — the bulk-load feed for a
    /// storage engine.
    pub fn all_coded_nodes(&self) -> impl Iterator<Item = (Code, TagId)> + '_ {
        let tree = self.doc.tree();
        tree.ids().map(move |n| (self.enc.code(n), tree.label(n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn encoded(xml: &str) -> EncodedDocument {
        EncodedDocument::encode(parse(xml).unwrap()).unwrap()
    }

    #[test]
    fn codes_preserve_containment() {
        let e = encoded(
            "<book><chapter><section><figure/></section></chapter>\
             <chapter><figure/></chapter></book>",
        );
        let chapters = e.element_set("chapter");
        let figures = e.element_set("figure");
        assert_eq!(chapters.len(), 2);
        assert_eq!(figures.len(), 2);
        // Every figure is inside exactly one chapter.
        for f in &figures {
            let n = chapters.iter().filter(|c| c.is_ancestor_of(*f)).count();
            assert_eq!(n, 1);
        }
        // The section contains the first figure only.
        let s = e.element_set("section")[0];
        assert!(s.is_ancestor_of(figures[0]));
        assert!(!s.is_ancestor_of(figures[1]));
    }

    #[test]
    fn all_coded_nodes_covers_document() {
        let e = encoded("<r><a/><b>t</b></r>");
        let v: Vec<_> = e.all_coded_nodes().collect();
        assert_eq!(v.len(), e.document().len());
        // Codes are unique.
        let mut codes: Vec<u64> = v.iter().map(|(c, _)| c.get()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), v.len());
    }
}
