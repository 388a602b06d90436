//! The one per-id table. [`crate::VarId`] and [`crate::StmtId`] are
//! dense indices, so a table keyed by one is a `Vec<Option<V>>`: a
//! lookup indexes instead of hashing, and iteration is in ascending id
//! order (declaration order, program order). A set is an `IdVec<()>`.

/// A table from dense ids to values; it grows to `id + 1` on insert.
/// Its last slot is always present, so `==` is equality of entries.
#[derive(Debug, Clone, PartialEq)]
pub struct IdVec<V>(Vec<Option<V>>);

impl<V> Default for IdVec<V> {
    fn default() -> Self {
        IdVec(Vec::new())
    }
}

impl<V> IdVec<V> {
    /// Set the entry at `id`, returning the value it replaces.
    pub fn insert(&mut self, id: usize, value: V) -> Option<V> {
        if id >= self.0.len() {
            self.0.resize_with(id + 1, || None);
        }
        self.0[id].replace(value)
    }

    /// The entry at `id`, inserting `f()` first if there is none.
    pub fn get_or_insert_with(&mut self, id: usize, f: impl FnOnce() -> V) -> &mut V {
        if !self.contains(id) {
            self.insert(id, f());
        }
        self.get_mut(id).expect("present")
    }

    /// The entry at `id`, if present.
    pub fn get(&self, id: usize) -> Option<&V> {
        self.0.get(id)?.as_ref()
    }

    /// The entry at `id`, mutably, if present.
    pub fn get_mut(&mut self, id: usize) -> Option<&mut V> {
        self.0.get_mut(id)?.as_mut()
    }

    /// Is there an entry at `id`?
    pub fn contains(&self, id: usize) -> bool {
        self.get(id).is_some()
    }

    /// Present entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> + '_ {
        (self.0.iter().enumerate()).filter_map(|(id, v)| Some((id, v.as_ref()?)))
    }

    /// Present values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.0.iter().flatten()
    }

    /// Present values, mutably, in ascending id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.0.iter_mut().flatten()
    }

    /// The number of present entries.
    pub fn len(&self) -> usize {
        self.values().count()
    }

    /// Is no entry present?
    pub fn is_empty(&self) -> bool {
        self.values().next().is_none()
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl<V> std::ops::Index<usize> for IdVec<V> {
    type Output = V;

    fn index(&self, id: usize) -> &V {
        self.get(id)
            .unwrap_or_else(|| panic!("IdVec has no entry at id {id}"))
    }
}

impl<V> FromIterator<(usize, V)> for IdVec<V> {
    fn from_iter<I: IntoIterator<Item = (usize, V)>>(iter: I) -> Self {
        let mut t = IdVec::default();
        for (id, v) in iter {
            t.insert(id, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::IdVec;

    #[test]
    fn insert_over_an_entry_returns_the_old_value() {
        let mut t = IdVec::default();
        assert_eq!(t.insert(3, "a"), None);
        assert_eq!(t.insert(3, "b"), Some("a"));
        assert_eq!((t[3], t.len()), ("b", 1));
    }

    #[test]
    fn get_past_the_end_is_none() {
        let t: IdVec<u8> = [(1, 7)].into_iter().collect();
        assert_eq!(
            (t.get(0), t.get(1), t.get(2), t.get(usize::MAX)),
            (None, Some(&7), None, None)
        );
    }

    #[test]
    fn iter_skips_holes_and_ascends() {
        let mut t: IdVec<usize> = [9, 2, 5].into_iter().map(|id| (id, id * 10)).collect();
        assert_eq!(t.iter().collect::<Vec<_>>(), [(2, &20), (5, &50), (9, &90)]);
        t.values_mut().for_each(|v| *v += 1);
        assert_eq!(t.values().collect::<Vec<_>>(), [&21, &51, &91]);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn from_iterator_handles_gaps() {
        let t: IdVec<()> = [(4, ()), (0, ())].into_iter().collect();
        assert_eq!(t.iter().map(|(id, _)| id).collect::<Vec<_>>(), [0, 4]);
        assert!((1..4).all(|id| !t.contains(id)) && t.len() == 2);
    }

    #[test]
    #[should_panic(expected = "no entry at id 6")]
    fn index_on_an_absent_id_names_it() {
        let t: IdVec<u8> = [(2, 1)].into_iter().collect();
        let _ = t[6];
    }
}
