//! Flat `id → [value]` tables: the per-variable, per-method and
//! per-call-site indices an [`crate::AnalysisResult`] answers queries
//! from.
//!
//! An [`IdTable`] stores every group in one value array, delimited by
//! an offset array (compressed sparse rows), so building one costs two
//! allocations however many ids it covers. Ids are compact whenever
//! the table comes from a solver run, and the offsets are then indexed
//! by the id itself: a lookup is two loads. A restored snapshot's ids
//! are untrusted, so an id range much wider than the entry count falls
//! back to a sorted key list searched by bisection; no table is ever
//! sized by an id alone.

/// A group id range at most this many times the entry count (plus
/// [`DENSE_FLOOR`]) is indexed directly; a wider one is sparse.
const DENSE_SLACK: usize = 8;

/// Id ranges up to this size are always indexed directly.
const DENSE_FLOOR: usize = 1024;

/// A read-only multimap from `u32` ids to slices of `V`.
#[derive(Debug)]
pub(crate) struct IdTable<V> {
    index: Index,
    values: Vec<V>,
}

#[derive(Debug)]
enum Index {
    /// Slot = id; `starts[id]..starts[id + 1]` holds its values, and
    /// ids past the end have none.
    Dense { starts: Vec<u32> },
    /// Slot = position in the ascending `keys`; `starts[slot]..
    /// starts[slot + 1]` holds its values.
    Sparse { keys: Vec<u32>, starts: Vec<u32> },
}

impl Index {
    fn starts(&self) -> &[u32] {
        match self {
            Index::Dense { starts } | Index::Sparse { starts, .. } => starts,
        }
    }
}

impl<V: Copy> IdTable<V> {
    /// Groups `pairs` by id. Within a group, values keep their order in
    /// `pairs` (the grouping is a stable counting sort, or a stable sort
    /// for a sparse table). `pairs` is walked twice.
    pub(crate) fn group<I>(pairs: I) -> Self
    where
        I: Iterator<Item = (u32, V)> + Clone,
    {
        let (mut n, mut max, mut fill) = (0usize, 0u32, None);
        for (id, v) in pairs.clone() {
            n += 1;
            max = max.max(id);
            fill.get_or_insert(v);
        }
        let Some(fill) = fill else {
            return IdTable { index: Index::Dense { starts: vec![0] }, values: Vec::new() };
        };
        let span = max as usize + 1;
        if span > DENSE_SLACK * n + DENSE_FLOOR {
            return Self::group_sparse(pairs.collect());
        }
        // Counting sort: count into `starts[id + 1]`, prefix-sum to
        // group starts, place each value at its group's cursor (which
        // leaves `starts[id]` at the group's end), then shift back.
        let mut starts = vec![0u32; span + 1];
        for (id, _) in pairs.clone() {
            starts[id as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut values = vec![fill; n];
        for (id, v) in pairs {
            let at = &mut starts[id as usize];
            values[*at as usize] = v;
            *at += 1;
        }
        starts.copy_within(..span, 1);
        starts[0] = 0;
        IdTable { index: Index::Dense { starts }, values }
    }

    fn group_sparse(mut pairs: Vec<(u32, V)>) -> Self {
        pairs.sort_by_key(|&(id, _)| id);
        let mut keys = Vec::new();
        let mut starts = Vec::new();
        for (i, &(id, _)) in pairs.iter().enumerate() {
            if keys.last() != Some(&id) {
                keys.push(id);
                starts.push(i as u32);
            }
        }
        starts.push(pairs.len() as u32);
        let values = pairs.into_iter().map(|(_, v)| v).collect();
        IdTable { index: Index::Sparse { keys, starts }, values }
    }
}

impl<V> IdTable<V> {
    /// Number of slots: one per group (dense tables also count the
    /// empty groups of unused ids below the largest).
    pub(crate) fn slot_count(&self) -> usize {
        self.index.starts().len() - 1
    }

    /// The slot of `id`, or `None` if it has no values.
    pub(crate) fn slot(&self, id: u32) -> Option<usize> {
        match &self.index {
            Index::Dense { starts } => {
                let s = id as usize;
                (s + 1 < starts.len() && starts[s] < starts[s + 1]).then_some(s)
            }
            Index::Sparse { keys, .. } => keys.binary_search(&id).ok(),
        }
    }

    /// The values of one slot (`slot < slot_count()`).
    pub(crate) fn at(&self, slot: usize) -> &[V] {
        let starts = self.index.starts();
        &self.values[starts[slot] as usize..starts[slot + 1] as usize]
    }

    /// The values of `id` (empty if it has none).
    pub(crate) fn get(&self, id: u32) -> &[V] {
        self.slot(id).map_or(&[], |s| self.at(s))
    }

    /// Sorts each group's values in place.
    pub(crate) fn sort_groups(&mut self)
    where
        V: Ord,
    {
        for w in self.index.starts().windows(2) {
            self.values[w[0] as usize..w[1] as usize].sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(pairs: &[(u32, u32)]) -> IdTable<u32> {
        IdTable::group(pairs.iter().copied())
    }

    #[test]
    fn groups_keep_input_order_and_answer_missing_ids_empty() {
        let t = table(&[(3, 30), (1, 10), (3, 31), (1, 11), (0, 0)]);
        assert!(matches!(t.index, Index::Dense { .. }));
        assert_eq!(t.get(0), &[0]);
        assert_eq!(t.get(1), &[10, 11]);
        assert_eq!(t.get(2), &[] as &[u32]);
        assert_eq!(t.get(3), &[30, 31]);
        assert_eq!(t.get(4), &[] as &[u32]);
        assert_eq!(t.get(u32::MAX), &[] as &[u32]);
        assert_eq!(t.slot(2), None);
        assert_eq!(t.slot_count(), 4);
        assert_eq!(table(&[]).get(0), &[] as &[u32]);
        assert_eq!(table(&[]).slot_count(), 0);
    }

    #[test]
    fn wide_ids_go_sparse_without_sizing_by_the_id() {
        let big = u32::MAX - 1;
        let mut t = table(&[(big, 2), (7, 70), (big, 1), (7, 71)]);
        let Index::Sparse { keys, .. } = &t.index else {
            panic!("an id near u32::MAX must not be indexed directly");
        };
        assert_eq!(keys, &[7, big]);
        assert_eq!(t.slot_count(), 2);
        assert_eq!(t.get(big), &[2, 1]);
        assert_eq!(t.get(7), &[70, 71]);
        assert_eq!(t.get(8), &[] as &[u32]);
        t.sort_groups();
        assert_eq!(t.get(big), &[1, 2]);
        assert_eq!(t.at(t.slot(7).unwrap()), &[70, 71]);
    }

    #[test]
    fn dense_and_sparse_agree() {
        let mut rng = obs::rng::SplitMix64::new(0x7ab1e);
        for trial in 0..200 {
            let n = rng.below_usize(40);
            let pairs: Vec<(u32, u32)> =
                (0..n).map(|_| (rng.below(64) as u32, rng.below(1000) as u32)).collect();
            let dense = table(&pairs);
            let sparse = IdTable::group_sparse(pairs.clone());
            for id in 0..70 {
                assert_eq!(dense.get(id), sparse.get(id), "id {id}, trial {trial}");
            }
        }
    }
}
