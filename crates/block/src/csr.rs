//! Id lists grouped by a dense key, in compressed sparse row form: the one
//! layout of the LSH tables (records by signature, [`crate::ann`]) and the
//! posting lists (records by token, [`crate::index`]).

/// Ids grouped by a dense key: group `k` is `ids[offsets[k]..offsets[k + 1]]`.
pub(crate) struct Csr {
    /// `n_keys + 1` group boundaries.
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Csr {
    /// Groups `entries` (`(key, id)` with `key < n_keys`) by a two-pass
    /// counting sort: count each key and turn the counts into start
    /// offsets, then place every id in its key's next free slot. No
    /// hashing, no per-group allocation, and each group keeps the input
    /// order of its ids, so ascending input ids give ascending groups.
    /// `entries` is iterated twice.
    pub(crate) fn group(n_keys: usize, entries: impl Iterator<Item = (usize, u32)> + Clone) -> Csr {
        let mut offsets = vec![0u32; n_keys + 1];
        for (key, _) in entries.clone() {
            offsets[key] += 1;
        }
        let mut start = 0u32;
        for slot in &mut offsets {
            let count = *slot;
            *slot = start;
            start = start
                .checked_add(count)
                .expect("a Csr holds fewer than 2^32 ids");
        }
        let mut ids = vec![0u32; start as usize];
        // `offsets[key]` walks from its group's start to its end, which is
        // the next group's start, so the final shift restores the starts.
        for (key, id) in entries {
            let slot = &mut offsets[key];
            ids[*slot as usize] = id;
            *slot += 1;
        }
        offsets.copy_within(..n_keys, 1);
        offsets[0] = 0;
        Csr { offsets, ids }
    }

    /// The ids of group `key`: two loads and a slice.
    #[inline]
    pub(crate) fn get(&self, key: usize) -> &[u32] {
        &self.ids[self.offsets[key] as usize..self.offsets[key + 1] as usize]
    }

    /// The length of every group, empty ones included, in key order.
    pub(crate) fn lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_keep_input_order_and_cover_every_key() {
        let entries = [(2usize, 0u32), (0, 1), (2, 2), (3, 3), (2, 4), (0, 5)];
        let csr = Csr::group(5, entries.iter().copied());
        assert_eq!(csr.get(0), &[1, 5]);
        assert_eq!(csr.get(1), &[] as &[u32]);
        assert_eq!(csr.get(2), &[0, 2, 4]);
        assert_eq!(csr.get(3), &[3]);
        assert_eq!(csr.get(4), &[] as &[u32]);
        assert_eq!(csr.lens().collect::<Vec<_>>(), vec![2, 0, 3, 1, 0]);
    }

    #[test]
    fn empty_input() {
        let csr = Csr::group(3, std::iter::empty());
        assert!((0..3).all(|k| csr.get(k).is_empty()));
        assert_eq!(Csr::group(0, std::iter::empty()).lens().count(), 0);
    }
}
