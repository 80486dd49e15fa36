//! Merged iteration across the memtable and SSTables.
//!
//! Sources are ordered by *precedence*: index 0 is the newest (the memtable
//! snapshot), higher indices are progressively older SSTables. When several
//! sources yield the same key, the lowest-precedence-index version wins and
//! the older ones are skipped — this is how overwrites and tombstones shadow
//! older data without any sequence numbers in the file format.

use crate::Bytes;

use crate::error::Result;
use crate::memtable::Slot;
use crate::sstable::{SsEntry, SsTableIter};

/// Anything that yields `(key, slot)` entries in strictly ascending key
/// order.
pub trait EntrySource {
    /// Next entry or `None` when exhausted.
    fn next_entry(&mut self) -> Result<Option<SsEntry>>;

    /// Entries this source has materialised so far: decoded from disk, or
    /// copied into memory up front.
    fn entries_visited(&self) -> u64;
}

impl EntrySource for SsTableIter {
    fn next_entry(&mut self) -> Result<Option<SsEntry>> {
        SsTableIter::next_entry(self)
    }

    fn entries_visited(&self) -> u64 {
        self.entries_decoded()
    }
}

/// A source backed by an in-memory, already-sorted vector (used for
/// memtable snapshots).
#[derive(Debug)]
pub struct VecSource {
    entries: std::vec::IntoIter<SsEntry>,
    len: u64,
}

impl VecSource {
    /// Wrap `entries`, which must already be sorted by key ascending.
    pub fn new(entries: Vec<SsEntry>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].key < w[1].key));
        VecSource {
            len: entries.len() as u64,
            entries: entries.into_iter(),
        }
    }
}

impl EntrySource for VecSource {
    fn next_entry(&mut self) -> Result<Option<SsEntry>> {
        Ok(self.entries.next())
    }

    /// The whole snapshot: it was copied out when the source was built.
    fn entries_visited(&self) -> u64 {
        self.len
    }
}

/// K-way merge over precedence-ordered sources.
///
/// Yields each key at most once (the newest version), *including*
/// tombstones — compaction needs to see them. User-facing iterators filter
/// tombstones via [`MergeIter::next_live`].
pub struct MergeIter {
    /// `heads[i]` is the peeked next entry of source `i`.
    heads: Vec<Option<SsEntry>>,
    sources: Vec<Box<dyn EntrySource + Send>>,
}

impl MergeIter {
    /// Build a merge over `sources`, newest first.
    pub fn new(sources: Vec<Box<dyn EntrySource + Send>>) -> Result<Self> {
        let mut iter = MergeIter {
            heads: Vec::with_capacity(sources.len()),
            sources,
        };
        for i in 0..iter.sources.len() {
            let head = iter.sources[i].next_entry()?;
            iter.heads.push(head);
        }
        Ok(iter)
    }

    /// Next (newest-version) entry, tombstones included.
    pub fn next_merged(&mut self) -> Result<Option<SsEntry>> {
        // Find the smallest key among heads; ties resolved by lowest index.
        let mut winner: Option<usize> = None;
        for (i, head) in self.heads.iter().enumerate() {
            let Some(entry) = head else { continue };
            match winner {
                None => winner = Some(i),
                Some(w) => {
                    if entry.key < self.heads[w].as_ref().unwrap().key {
                        winner = Some(i);
                    }
                }
            }
        }
        let Some(w) = winner else { return Ok(None) };
        let entry = self.heads[w].take().unwrap();
        // Advance the winning source and every source holding the same key.
        self.heads[w] = self.sources[w].next_entry()?;
        for i in 0..self.heads.len() {
            while let Some(h) = &self.heads[i] {
                if h.key == entry.key {
                    self.heads[i] = self.sources[i].next_entry()?;
                } else {
                    break;
                }
            }
        }
        Ok(Some(entry))
    }

    /// Entries materialised across every source so far.
    pub(crate) fn entries_visited(&self) -> u64 {
        self.sources.iter().map(|s| s.entries_visited()).sum()
    }

    /// Next live entry: skips tombstones.
    pub fn next_live(&mut self) -> Result<Option<(Bytes, Bytes)>> {
        while let Some(entry) = self.next_merged()? {
            if let Slot::Value(v) = entry.slot {
                return Ok(Some((entry.key, v)));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(entries: &[(&str, Option<&str>)]) -> Box<dyn EntrySource + Send> {
        Box::new(VecSource::new(
            entries
                .iter()
                .map(|(k, v)| SsEntry {
                    key: Bytes::copy_from_slice(k.as_bytes()),
                    slot: match v {
                        Some(v) => Slot::Value(Bytes::copy_from_slice(v.as_bytes())),
                        None => Slot::Tombstone,
                    },
                })
                .collect(),
        ))
    }

    fn collect_live(mut m: MergeIter) -> Vec<(String, String)> {
        let mut out = Vec::new();
        while let Some((k, v)) = m.next_live().unwrap() {
            out.push((
                String::from_utf8(k.to_vec()).unwrap(),
                String::from_utf8(v.to_vec()).unwrap(),
            ));
        }
        out
    }

    #[test]
    fn merges_disjoint_sources_in_order() {
        let m = MergeIter::new(vec![
            src(&[("b", Some("2")), ("d", Some("4"))]),
            src(&[("a", Some("1")), ("c", Some("3"))]),
        ])
        .unwrap();
        let got = collect_live(m);
        assert_eq!(
            got,
            vec![
                ("a".into(), "1".into()),
                ("b".into(), "2".into()),
                ("c".into(), "3".into()),
                ("d".into(), "4".into())
            ]
        );
    }

    #[test]
    fn newer_source_shadows_older() {
        let m =
            MergeIter::new(vec![src(&[("k", Some("new"))]), src(&[("k", Some("old"))])]).unwrap();
        assert_eq!(collect_live(m), vec![("k".into(), "new".into())]);
    }

    #[test]
    fn tombstone_shadows_older_value() {
        let m = MergeIter::new(vec![
            src(&[("k", None)]),
            src(&[("k", Some("old")), ("l", Some("live"))]),
        ])
        .unwrap();
        assert_eq!(collect_live(m), vec![("l".into(), "live".into())]);
    }

    #[test]
    fn next_merged_exposes_tombstones() {
        let mut m = MergeIter::new(vec![src(&[("k", None)])]).unwrap();
        let e = m.next_merged().unwrap().unwrap();
        assert!(e.slot.is_tombstone());
        assert!(m.next_merged().unwrap().is_none());
    }

    #[test]
    fn triple_source_same_key() {
        let m = MergeIter::new(vec![
            src(&[("k", Some("v2"))]),
            src(&[("k", Some("v1"))]),
            src(&[("k", Some("v0")), ("z", Some("zz"))]),
        ])
        .unwrap();
        assert_eq!(
            collect_live(m),
            vec![("k".into(), "v2".into()), ("z".into(), "zz".into())]
        );
    }

    #[test]
    fn empty_sources_yield_nothing() {
        let m = MergeIter::new(vec![src(&[]), src(&[])]).unwrap();
        assert!(collect_live(m).is_empty());
    }
}
