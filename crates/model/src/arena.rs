//! The range arenas a [`DataTree`](crate::DataTree) keeps its per-vertex
//! lists in: child lists, attribute slots and set members. Each list is a
//! `(start, len)` [`Span`] of one tree-wide `Vec`, so a vertex owns no
//! heap block of its own.

/// A list's `(start, len)` in an [`Arena`].
pub(crate) type Span = (u32, u32);

/// Stale entries an arena tolerates, on top of as many as there are live
/// ones, before it is rewritten: edits that grow a list move it to the
/// arena end and leave the old entries behind.
pub(crate) const STALE_MIN: usize = 1024;

/// The indices of span `r`. An empty span's start is meaningless: the
/// arena may have shrunk below it since.
pub(crate) fn range(r: Span) -> std::ops::Range<usize> {
    if r.1 == 0 {
        return 0..0;
    }
    r.0 as usize..(r.0 + r.1) as usize
}

/// One `Vec` holding many lists, each addressed by a [`Span`], and a
/// count of the entries no span covers any more.
#[derive(Clone, Debug)]
pub(crate) struct Arena<T> {
    pub(crate) items: Vec<T>,
    pub(crate) stale: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena {
            items: Vec::new(),
            stale: 0,
        }
    }
}

impl<T: Copy> Arena<T> {
    pub(crate) fn get(&self, r: Span) -> &[T] {
        &self.items[range(r)]
    }

    pub(crate) fn get_mut(&mut self, r: Span) -> &mut [T] {
        &mut self.items[range(r)]
    }

    /// Appends a new list, returning its span.
    pub(crate) fn push(&mut self, items: impl IntoIterator<Item = T>) -> Span {
        let start = self.items.len();
        self.items.extend(items);
        (start as u32, (self.items.len() - start) as u32)
    }

    /// Inserts `item` at offset `at` of list `r`, moving the list to the
    /// arena end unless it already ends there.
    pub(crate) fn insert(&mut self, r: &mut Span, at: usize, item: T) {
        if r.1 == 0 || (r.0 + r.1) as usize != self.items.len() {
            let start = self.items.len();
            self.items.extend_from_within(range(*r));
            self.stale += r.1 as usize;
            r.0 = start as u32;
        }
        self.items.insert(r.0 as usize + at, item);
        r.1 += 1;
    }

    /// Removes the entry at offset `at` of list `r`, returning it.
    pub(crate) fn remove(&mut self, r: &mut Span, at: usize) -> T {
        let i = r.0 as usize + at;
        let item = self.items[i];
        let end = (r.0 + r.1) as usize;
        self.items.copy_within(i + 1..end, i);
        if end == self.items.len() {
            self.items.pop();
        } else {
            self.stale += 1;
        }
        r.1 -= 1;
        item
    }

    /// Counts `n` entries stale: a list gave them up in place.
    pub(crate) fn release(&mut self, n: usize) {
        self.stale += n;
    }

    pub(crate) fn needs_compaction(&self) -> bool {
        self.stale > STALE_MIN && self.stale > self.items.len() / 2
    }

    /// Rewrites the arena to hold exactly the lists `spans` address, in
    /// that order, pointing each span at its new place.
    pub(crate) fn compact<'s>(&mut self, spans: impl IntoIterator<Item = &'s mut Span>) {
        let mut items = Vec::with_capacity(self.items.len() - self.stale);
        for r in spans {
            let start = items.len() as u32;
            items.extend_from_slice(self.get(*r));
            r.0 = start;
        }
        self.items = items;
        self.stale = 0;
    }

    pub(crate) fn shrink_to_fit(&mut self) {
        self.items.shrink_to_fit();
    }
}
