//! Property-based tests: the store must behave exactly like a sorted map,
//! no matter how operations interleave with flushes, compactions and
//! reopens.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::path::PathBuf;

use fabric_kvstore::{KvStore, LogStore, Options, WriteBatch};
use fabric_telemetry::rng::{check_cases, StdRng};

/// Cases per property (each opens stores on disk).
const CASES: u64 = 48;

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Batch(Vec<(Vec<u8>, Option<Vec<u8>>)>),
    Flush,
    Compact,
    Reopen,
}

/// 1–3 letters from a small alphabet, so puts/deletes/overwrites
/// actually collide.
fn gen_key(rng: &mut StdRng) -> Vec<u8> {
    const ALPHABET: &[u8] = b"abcdxyz";
    let len = rng.gen_range(1..4usize);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

fn gen_value(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.gen_range(0..24usize);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Puts, deletes and batches interleaved with flushes, compactions and
/// reopens, weighted 6:2:2:1:1:1.
fn gen_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..13u32) {
        0..=5 => Op::Put(gen_key(rng), gen_value(rng)),
        6..=7 => Op::Delete(gen_key(rng)),
        8..=9 => Op::Batch(
            (0..rng.gen_range(1..5usize))
                .map(|_| (gen_key(rng), rng.gen_bool().then(|| gen_value(rng))))
                .collect(),
        ),
        10 => Op::Flush,
        11 => Op::Compact,
        _ => Op::Reopen,
    }
}

fn gen_ops(rng: &mut StdRng) -> Vec<Op> {
    (0..rng.gen_range(1..60usize))
        .map(|_| gen_op(rng))
        .collect()
}

/// Up to 29 distinct keys with values.
fn gen_entries(rng: &mut StdRng) -> BTreeMap<Vec<u8>, Vec<u8>> {
    (0..rng.gen_range(0..30usize))
        .map(|_| (gen_key(rng), gen_value(rng)))
        .collect()
}

struct TempDir(PathBuf);
impl TempDir {
    fn new(tag: u64) -> Self {
        let p = std::env::temp_dir().join(format!(
            "kv-prop-{}-{tag}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn check_equiv(db: &KvStore, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    // Every model key matches; a range scan reproduces the whole model.
    let scanned = db
        .range(Bound::Unbounded, Bound::Unbounded)
        .unwrap()
        .collect_all()
        .unwrap();
    let scanned: Vec<(Vec<u8>, Vec<u8>)> = scanned
        .into_iter()
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect();
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(scanned, expected, "full scan diverged from model");
}

#[test]
fn store_matches_sorted_map_model() {
    check_cases(CASES, |rng| {
        let ops = gen_ops(rng);
        let seed = rng.next_u64();
        let dir = TempDir::new(seed);
        let mut db = KvStore::open(&dir.0, Options::small_for_tests()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    db.put(k.clone(), v.clone()).unwrap();
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    db.delete(k.clone()).unwrap();
                    model.remove(&k);
                }
                Op::Batch(entries) => {
                    let mut batch = WriteBatch::new();
                    for (k, v) in &entries {
                        match v {
                            Some(v) => {
                                batch.put(k.clone(), v.clone());
                            }
                            None => {
                                batch.delete(k.clone());
                            }
                        }
                    }
                    db.write(batch).unwrap();
                    for (k, v) in entries {
                        match v {
                            Some(v) => {
                                model.insert(k, v);
                            }
                            None => {
                                model.remove(&k);
                            }
                        }
                    }
                }
                Op::Flush => db.flush().unwrap(),
                Op::Compact => db.compact().unwrap(),
                Op::Reopen => {
                    drop(db);
                    db = KvStore::open(&dir.0, Options::small_for_tests()).unwrap();
                }
            }
            // Spot-check point reads continuously (cheap).
            for (k, v) in model.iter().take(4) {
                let got = db.get(k).unwrap();
                assert_eq!(got.as_deref(), Some(v.as_slice()));
            }
        }
        check_equiv(&db, &model);
        // Point reads for everything, including deleted keys.
        for key in [b"a".to_vec(), b"zz".to_vec(), b"dcba".to_vec()] {
            assert_eq!(
                db.get(&key).unwrap().map(|b| b.to_vec()),
                model.get(&key).cloned()
            );
        }
        // Survives one final reopen.
        drop(db);
        let db = KvStore::open(&dir.0, Options::small_for_tests()).unwrap();
        check_equiv(&db, &model);
    });
}

/// A flushed store's `[start, end)` scan returns exactly the model's keys
/// in that range.
fn check_range(entries: &BTreeMap<Vec<u8>, Vec<u8>>, start: &[u8], end: &[u8], tag: u64) {
    let dir = TempDir::new(tag.wrapping_add(1_000_000));
    let db = KvStore::open(&dir.0, Options::small_for_tests()).unwrap();
    for (k, v) in entries {
        db.put(k.clone(), v.clone()).unwrap();
    }
    db.flush().unwrap();
    let got = db
        .range(Bound::Included(start), Bound::Excluded(end))
        .unwrap()
        .collect_all()
        .unwrap();
    let got: Vec<Vec<u8>> = got.into_iter().map(|(k, _)| k.to_vec()).collect();
    let want: Vec<Vec<u8>> = if start >= end {
        Vec::new() // inverted range: the store must return empty
    } else {
        entries
            .range::<[u8], _>((Bound::Included(start), Bound::Excluded(end)))
            .map(|(k, _)| k.clone())
            .collect()
    };
    assert_eq!(got, want);
}

#[test]
fn range_bounds_match_model() {
    check_cases(CASES, |rng| {
        let entries = gen_entries(rng);
        let (start, end) = (gen_key(rng), gen_key(rng));
        check_range(&entries, &start, &end, rng.next_u64());
    });
}

/// A past property failure, kept as a fixed case: an inverted range over
/// a store holding one key below both bounds.
#[test]
fn inverted_range_is_empty() {
    let entries = BTreeMap::from([(b"a".to_vec(), Vec::new())]);
    check_range(&entries, b"b", b"a", 0);
}

/// Keys strictly below and strictly above `key`, for tombstones that
/// straddle a range bound.
fn neighbours(key: &[u8]) -> [Vec<u8>; 2] {
    let below = match key.split_last() {
        Some((_, rest)) if !rest.is_empty() => rest.to_vec(),
        Some((last, _)) => vec![last.saturating_sub(1)],
        None => Vec::new(),
    };
    let mut above = key.to_vec();
    above.push(0);
    [below, above]
}

fn within(key: &[u8], start: Bound<&[u8]>, end: Bound<&[u8]>) -> bool {
    let after_start = match start {
        Bound::Included(s) => key >= s,
        Bound::Excluded(s) => key > s,
        Bound::Unbounded => true,
    };
    let before_end = match end {
        Bound::Included(e) => key <= e,
        Bound::Excluded(e) => key < e,
        Bound::Unbounded => true,
    };
    after_start && before_end
}

/// Every bound pair (Included / Excluded / Unbounded on each end) over a
/// store whose writes and deletes are spread across two flushed tables and
/// the live memtable, with tombstones on both sides of each bound key. The
/// scan must return exactly the model's live keys in range, and the
/// store's range counters must charge exactly what the scan returned.
#[test]
fn range_bounds_across_tables_and_memtable_match_model() {
    check_cases(CASES, |rng| {
        let (s, e) = (gen_key(rng), gen_key(rng));
        let seed = rng.next_u64();
        let dir = TempDir::new(seed.wrapping_add(4_000_000));
        // A large memtable and no automatic compaction: the layout is
        // exactly the two flushes below plus the live memtable.
        let options = Options {
            memtable_max_bytes: 1 << 20,
            compaction_trigger: 0,
            ..Options::small_for_tests()
        };
        let db = KvStore::open(&dir.0, options).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        // Bound keys and their neighbours, each put, deleted or left alone
        // in every source, so a bound key can be a table's first or last
        // key, live or shadowed by a newer tombstone.
        let edges: Vec<Vec<u8>> = [s.clone(), e.clone()]
            .iter()
            .flat_map(|k| {
                let [below, above] = neighbours(k);
                [below, k.clone(), above]
            })
            .collect();
        for phase in 0..3 {
            for _ in 0..rng.gen_range(0..12usize) {
                let k = gen_key(rng);
                if rng.gen_range(0..4u32) == 0 {
                    db.delete(k.clone()).unwrap();
                    model.remove(&k);
                } else {
                    let v = gen_value(rng);
                    db.put(k.clone(), v.clone()).unwrap();
                    model.insert(k, v);
                }
            }
            for k in &edges {
                match rng.gen_range(0..3u32) {
                    0 => {
                        let v = gen_value(rng);
                        db.put(k.clone(), v.clone()).unwrap();
                        model.insert(k.clone(), v);
                    }
                    1 => {
                        db.delete(k.clone()).unwrap();
                        model.remove(k);
                    }
                    _ => {}
                }
            }
            if phase < 2 {
                db.flush().unwrap();
            }
        }
        assert_eq!(db.table_count(), 2);
        let kinds = |k: &[u8]| {
            let k = k.to_vec();
            [
                Bound::Included(k.clone()),
                Bound::Excluded(k),
                Bound::Unbounded,
            ]
        };
        for start in kinds(&s) {
            for end in kinds(&e) {
                let (start, end) = (start.as_ref().map(|k| &k[..]), end.as_ref().map(|k| &k[..]));
                let before = db.metrics();
                let got: Vec<(Vec<u8>, Vec<u8>)> = db
                    .range(start, end)
                    .unwrap()
                    .collect_all()
                    .unwrap()
                    .into_iter()
                    .map(|(k, v)| (k.to_vec(), v.to_vec()))
                    .collect();
                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                    .iter()
                    .filter(|(k, _)| within(k, start, end))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                assert_eq!(got, want, "range {start:?}..{end:?}");
                let work = db.metrics().diff(&before);
                assert_eq!(work.range_entries_returned, got.len() as u64);
                assert!(work.range_entries_visited >= work.range_entries_returned);
            }
        }
    });
}

#[test]
fn prefix_scan_matches_model() {
    check_cases(CASES, |rng| {
        let entries = gen_entries(rng);
        let prefix = gen_key(rng);
        let seed = rng.next_u64();
        let dir = TempDir::new(seed.wrapping_add(2_000_000));
        let db = KvStore::open(&dir.0, Options::small_for_tests()).unwrap();
        for (k, v) in &entries {
            db.put(k.clone(), v.clone()).unwrap();
        }
        let got = db.prefix(&prefix).unwrap().collect_all().unwrap();
        let got: Vec<Vec<u8>> = got.into_iter().map(|(k, _)| k.to_vec()).collect();
        let want: Vec<Vec<u8>> = entries
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect();
        assert_eq!(got, want);
    });
}

#[test]
fn log_store_matches_sorted_map_model() {
    check_cases(CASES, |rng| {
        let ops = gen_ops(rng);
        let seed = rng.next_u64();
        // Same model test against the value-log engine, whose tiny
        // small_for_tests file/compaction thresholds force frequent
        // rotations and automatic merges: compaction and reopen must
        // never lose a live key or resurrect a deleted one.
        let dir = TempDir::new(seed.wrapping_add(3_000_000));
        let mut db = LogStore::open(&dir.0, Options::small_for_tests()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    db.put(k.clone(), v.clone()).unwrap();
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    db.delete(k.clone()).unwrap();
                    model.remove(&k);
                }
                Op::Batch(entries) => {
                    let mut batch = WriteBatch::new();
                    for (k, v) in &entries {
                        match v {
                            Some(v) => {
                                batch.put(k.clone(), v.clone());
                            }
                            None => {
                                batch.delete(k.clone());
                            }
                        }
                    }
                    db.write(batch).unwrap();
                    for (k, v) in entries {
                        match v {
                            Some(v) => {
                                model.insert(k, v);
                            }
                            None => {
                                model.remove(&k);
                            }
                        }
                    }
                }
                Op::Flush => db.flush().unwrap(),
                Op::Compact => db.compact().unwrap(),
                Op::Reopen => {
                    drop(db);
                    db = LogStore::open(&dir.0, Options::small_for_tests()).unwrap();
                }
            }
            for (k, v) in model.iter().take(4) {
                let got = db.get(k).unwrap();
                assert_eq!(got.as_deref(), Some(v.as_slice()));
            }
        }
        let scan = |db: &LogStore| -> Vec<(Vec<u8>, Vec<u8>)> {
            db.range(Bound::Unbounded, Bound::Unbounded)
                .unwrap()
                .collect_all()
                .unwrap()
                .into_iter()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect()
        };
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(scan(&db), expected.clone(), "full scan diverged from model");
        // A forced merge plus one reopen must be invisible too.
        db.compact().unwrap();
        assert_eq!(
            scan(&db),
            expected.clone(),
            "scan diverged after compaction"
        );
        drop(db);
        let db = LogStore::open(&dir.0, Options::small_for_tests()).unwrap();
        assert_eq!(scan(&db), expected, "scan diverged after reopen");
    });
}

#[test]
fn log_torn_tail_recovers_to_last_whole_record() {
    check_cases(CASES, |rng| {
        let ops: Vec<(Vec<u8>, Vec<u8>)> = (0..rng.gen_range(1..30usize))
            .map(|_| (gen_key(rng), gen_value(rng)))
            .collect();
        let chop = rng.gen_range(1..48usize);
        let seed = rng.next_u64();
        // Write every op as one record into a single data file, tear an
        // arbitrary number of bytes off its tail, and reopen: recovery
        // must keep exactly the records whose frames survive whole —
        // the store equals the model of that operation prefix.
        let dir = TempDir::new(seed.wrapping_add(4_000_000));
        let mut opts = Options::small_for_tests();
        opts.log_file_max_bytes = u64::MAX; // one data file
        opts.log_compaction_bytes = u64::MAX; // no merges: frames = ops
        {
            let db = LogStore::open(&dir.0, opts.clone()).unwrap();
            for (k, v) in &ops {
                db.put(k.clone(), v.clone()).unwrap();
            }
        }
        let vlog = std::fs::read_dir(&dir.0)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "vlog"))
            .max()
            .expect("data file exists");
        let data = std::fs::read(&vlog).unwrap();
        // Walk the CRC framing to find each record's end offset.
        let mut ends = Vec::new();
        let mut off = 0usize;
        while off + 8 <= data.len() {
            let len = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap()) as usize;
            if off + 8 + len > data.len() {
                break;
            }
            off += 8 + len;
            ends.push(off);
        }
        assert_eq!(ends.len(), ops.len(), "one record per put");
        let keep = data.len() - chop.min(data.len());
        std::fs::write(&vlog, &data[..keep]).unwrap();
        let survivors = ends.iter().filter(|&&e| e <= keep).count();
        let db = LogStore::open(&dir.0, opts).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (k, v) in &ops[..survivors] {
            model.insert(k.clone(), v.clone());
        }
        let got: Vec<(Vec<u8>, Vec<u8>)> = db
            .range(Bound::Unbounded, Bound::Unbounded)
            .unwrap()
            .collect_all()
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        assert_eq!(got, want, "recovered to a different prefix");
    });
}
