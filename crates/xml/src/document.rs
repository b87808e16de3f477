//! The parsed document: a labelled tree plus tag and text tables.

use std::collections::{BTreeMap, HashMap};

use pbitree_core::{DataTree, NodeId};

/// Interned tag identifier. Element tags intern as-is (`"item"`),
/// attributes with an `@` prefix (`"@id"`), text content as `"#text"`.
pub type TagId = u32;

/// The pseudo-tag under which text nodes are interned.
pub const TEXT_TAG: &str = "#text";

/// A parsed XML document: the node tree, interned tag names, and text
/// content for `#text` nodes and attribute nodes.
#[derive(Debug)]
pub struct Document {
    tree: DataTree,
    tag_names: Vec<String>,
    tag_ids: HashMap<String, TagId>,
    /// Text content, present for `#text` nodes and attribute nodes.
    /// Ordered, so dropping a document frees its strings in the order it
    /// allocated them: hash order left the heap fragmented differently in
    /// every process.
    texts: BTreeMap<NodeId, String>,
}

impl Document {
    /// Creates a document whose root element has tag `root_tag`.
    pub fn new(root_tag: &str) -> Self {
        let mut doc = Document {
            tree: DataTree::new(0),
            tag_names: Vec::new(),
            tag_ids: HashMap::new(),
            texts: BTreeMap::new(),
        };
        let id = doc.intern(root_tag);
        debug_assert_eq!(id, 0);
        doc
    }

    /// Interns a tag name, returning its id.
    pub fn intern(&mut self, name: &str) -> TagId {
        if let Some(&id) = self.tag_ids.get(name) {
            return id;
        }
        let id = self.tag_names.len() as TagId;
        self.tag_names.push(name.to_owned());
        self.tag_ids.insert(name.to_owned(), id);
        id
    }

    /// Looks up an already-interned tag.
    pub fn tag_id(&self, name: &str) -> Option<TagId> {
        self.tag_ids.get(name).copied()
    }

    /// The name of a tag id.
    pub fn tag_name(&self, id: TagId) -> &str {
        &self.tag_names[id as usize]
    }

    /// Appends an element child.
    pub fn add_element(&mut self, parent: NodeId, tag: &str) -> NodeId {
        let id = self.intern(tag);
        self.tree.add_child(parent, id)
    }

    /// Appends an attribute child (`@name` pseudo-tag) carrying `value`.
    pub fn add_attribute(&mut self, parent: NodeId, name: &str, value: &str) -> NodeId {
        let tag = self.intern(&format!("@{name}"));
        let node = self.tree.add_child(parent, tag);
        self.texts.insert(node, value.to_owned());
        node
    }

    /// Appends a text child (`#text` pseudo-tag).
    pub fn add_text(&mut self, parent: NodeId, content: &str) -> NodeId {
        let tag = self.intern(TEXT_TAG);
        let node = self.tree.add_child(parent, tag);
        self.texts.insert(node, content.to_owned());
        node
    }

    /// The underlying tree.
    #[inline]
    pub fn tree(&self) -> &DataTree {
        &self.tree
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.tree.root()
    }

    /// Total node count (elements + attributes + text nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Always false (a document has a root).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The tag name of a node.
    pub fn node_tag_name(&self, n: NodeId) -> &str {
        self.tag_name(self.tree.label(n))
    }

    /// Text content of a text or attribute node.
    pub fn text(&self, n: NodeId) -> Option<&str> {
        self.texts.get(&n).map(String::as_str)
    }

    /// All nodes with the given tag name, in document order.
    pub fn nodes_with_tag(&self, name: &str) -> Vec<NodeId> {
        match self.tag_id(name) {
            None => Vec::new(),
            Some(id) => self
                .tree
                .preorder(self.tree.root())
                .filter(|&n| self.tree.label(n) == id)
                .collect(),
        }
    }

    /// Concatenated text of all `#text` descendants of `n` (element
    /// "string value", used by value predicates in queries).
    pub fn string_value(&self, n: NodeId) -> String {
        let mut out = String::new();
        for d in self.tree.preorder(n) {
            if let Some(t) = self.texts.get(&d) {
                out.push_str(t);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query_structure() {
        let mut doc = Document::new("book");
        let ch1 = doc.add_element(doc.root(), "chapter");
        let ch2 = doc.add_element(doc.root(), "chapter");
        let title = doc.add_element(ch1, "title");
        doc.add_text(title, "Intro");
        doc.add_attribute(ch2, "id", "c2");

        assert_eq!(doc.node_tag_name(doc.root()), "book");
        assert_eq!(doc.nodes_with_tag("chapter"), vec![ch1, ch2]);
        assert_eq!(doc.nodes_with_tag("nothing"), Vec::new());
        assert_eq!(doc.string_value(ch1), "Intro");
        assert_eq!(doc.string_value(ch2), "c2");
        let attr = doc.nodes_with_tag("@id")[0];
        assert_eq!(doc.text(attr), Some("c2"));
    }

    #[test]
    fn interning_is_idempotent() {
        let mut doc = Document::new("r");
        let a = doc.intern("x");
        let b = doc.intern("x");
        assert_eq!(a, b);
        assert_eq!(doc.tag_name(a), "x");
        assert_eq!(doc.tag_id("x"), Some(a));
        assert_eq!(doc.tag_id("y"), None);
    }
}
