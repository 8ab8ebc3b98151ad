//! Textual rendering of data trees in the style of the paper's Figure 2.

use std::fmt::Write as _;

use crate::{Child, DataTree, NodeId};

/// Options controlling [`render_tree`].
#[derive(Clone, Debug)]
pub struct RenderOptions {
    /// Maximum depth rendered (`usize::MAX` for unlimited).
    pub max_depth: usize,
    /// Whether attributes are shown.
    pub show_attrs: bool,
    /// Whether string children are shown.
    pub show_text: bool,
    /// Whether each vertex is prefixed with its node number (`#N`) — the
    /// id an edit script passes to `apply-edits`.
    pub show_ids: bool,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            max_depth: usize::MAX,
            show_attrs: true,
            show_text: true,
            show_ids: false,
        }
    }
}

/// Renders a data tree as an indented outline, one vertex per line, in the
/// style of the paper's Figure 2 (element labels as interior nodes,
/// attributes as `@name = value` annotations, strings as quoted leaves).
///
/// ```
/// use xic_model::{TreeBuilder, AttrValue, render_tree, RenderOptions};
/// let mut b = TreeBuilder::new();
/// let book = b.node("book");
/// let entry = b.child_node(book, "entry").unwrap();
/// b.attr(entry, "isbn", AttrValue::single("1-55860")).unwrap();
/// b.leaf(entry, "title", "Data on the Web").unwrap();
/// let t = b.finish(book).unwrap();
/// let out = render_tree(&t, &RenderOptions::default());
/// assert!(out.contains("book"));
/// assert!(out.contains("@isbn = \"1-55860\""));
/// ```
pub fn render_tree(tree: &DataTree, opts: &RenderOptions) -> String {
    let mut out = String::new();
    render_node(tree, tree.root(), 0, opts, &mut out);
    out
}

fn render_node(tree: &DataTree, id: NodeId, depth: usize, opts: &RenderOptions, out: &mut String) {
    let pad = "  ".repeat(depth);
    let label = tree.label(id);
    if opts.show_ids {
        let _ = write!(out, "{pad}#{} {label}", id.index());
    } else {
        let _ = write!(out, "{pad}{label}");
    }
    if opts.show_attrs {
        for (name, value) in tree.attrs(id) {
            let _ = write!(out, "  @{name} = {value}");
        }
    }
    out.push('\n');
    if depth >= opts.max_depth {
        return;
    }
    for c in tree.children(id) {
        match c {
            Child::Node(n) => render_node(tree, *n, depth + 1, opts, out),
            Child::Text(t) => {
                if opts.show_text {
                    let _ = writeln!(out, "{pad}  {:?}", tree.pool().resolve(*t));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrValue, TreeBuilder};

    fn small() -> DataTree {
        let mut b = TreeBuilder::new();
        let book = b.node("book");
        let entry = b.child_node(book, "entry").unwrap();
        b.attr(entry, "isbn", AttrValue::single("x")).unwrap();
        b.leaf(entry, "title", "T").unwrap();
        let r = b.child_node(book, "ref").unwrap();
        b.attr(r, "to", AttrValue::set(["x", "y"])).unwrap();
        b.finish(book).unwrap()
    }

    #[test]
    fn renders_all_vertices() {
        let t = small();
        let s = render_tree(&t, &RenderOptions::default());
        for lbl in ["book", "entry", "title", "ref"] {
            assert!(s.contains(lbl), "missing {lbl} in:\n{s}");
        }
        assert!(s.contains("@isbn = \"x\""));
        assert!(s.contains(r#"{"x", "y"}"#));
        assert!(s.contains("\"T\""));
    }

    #[test]
    fn respects_depth_and_flags() {
        let t = small();
        let s = render_tree(
            &t,
            &RenderOptions {
                max_depth: 0,
                show_attrs: false,
                show_text: false,
                show_ids: false,
            },
        );
        assert_eq!(s.trim(), "book");
    }

    #[test]
    fn show_ids_prefixes_node_numbers() {
        let t = small();
        let s = render_tree(
            &t,
            &RenderOptions {
                show_ids: true,
                ..RenderOptions::default()
            },
        );
        assert!(s.lines().next().unwrap().starts_with("#0 book"), "{s}");
        assert!(s.contains("#1 entry"), "{s}");
    }

    #[test]
    fn indentation_tracks_depth() {
        let t = small();
        let s = render_tree(&t, &RenderOptions::default());
        let entry_line = s.lines().find(|l| l.contains("entry")).unwrap();
        assert!(entry_line.starts_with("  entry"));
        let title_line = s.lines().find(|l| l.contains("title")).unwrap();
        assert!(title_line.starts_with("    title"));
    }
}
