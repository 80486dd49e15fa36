//! Assert the paper's *qualitative* claims as executable tests, at reduced
//! scale. These are the claims EXPERIMENTS.md reports at full scale; here
//! they gate CI.

use fabric_ledger::{Ledger, LedgerConfig};
use fabric_workload::dataset::{generate_scaled, params_scaled, DatasetId};
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use fabric_workload::{EntityId, Event, EventKind};
use temporal_core::interval::Interval;
use temporal_core::join::ferry_query;
use temporal_core::m1::{M1Engine, M1Indexer};
use temporal_core::m2::{M2Encoder, M2Engine};
use temporal_core::partition::FixedLength;
use temporal_core::tqf::TqfEngine;
use temporal_core::{drain, AccessPath, AutoEngine, TemporalEngine};

struct TempDir(std::path::PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "shapes-test-{}-{tag}-{:?}",
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

const SCALE: u32 = 150;

fn ds1() -> fabric_workload::GeneratedWorkload {
    generate_scaled(DatasetId::Ds1, SCALE)
}

/// The benchmark's dataset, DS1 at scale 20 with the default seed, keeps
/// its fingerprint: the shape follows from the parameters, and the ME
/// block count from every draw of the generator.
#[test]
fn ds1_scale20_fingerprint_is_pinned() {
    let workload = generate_scaled(DatasetId::Ds1, 20);
    assert_eq!(workload.events.len(), 49_506);
    assert_eq!(workload.keys().len(), 111);
    assert_eq!(workload.params.t_max, 33_541);
    let dir = TempDir::new("ds1-fingerprint");
    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    let report = ingest(
        &ledger,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )
    .unwrap();
    assert_eq!(report.blocks, 382);
}

/// One GHFK call on an unflushed ledger and the history-index range work it
/// caused: `(entries returned, entries visited − entries returned, sources)`
/// where sources is the memtable plus every index SSTable.
fn ghfk_scan_work(ledger: &Ledger, key: &[u8]) -> (i64, i64, i64) {
    let gauges = |ledger: &Ledger| {
        ledger.publish_gauges();
        let snap = ledger.telemetry().snapshot();
        let g = |name: &str| snap.gauge(name).expect(name);
        (
            g("indexdb.range_entries_visited"),
            g("indexdb.range_entries_returned"),
            g("indexdb.sstables"),
        )
    };
    let (visited0, returned0, _) = gauges(ledger);
    let mut history = ledger.get_history_for_key(key).unwrap();
    let mut states = 0;
    while history.next().unwrap().is_some() {
        states += 1;
    }
    drop(history);
    let (visited1, returned1, sstables) = gauges(ledger);
    let returned = returned1 - returned0;
    assert_eq!(returned, states, "one index entry per historical state");
    (returned, visited1 - visited0 - returned, 1 + sstables)
}

/// The history index scan behind GHFK costs what it returns: beyond its
/// own entries it decodes at most `sources × sparse_index_interval +
/// sources` entries (the kvstore's scan cost contract), and 10,000 larger,
/// unrelated keys in the index memtable add nothing to that.
#[test]
fn ghfk_index_scan_work_is_bounded_by_its_range() {
    let workload = ds1();
    let dir = TempDir::new("scan-work");
    let mut config = LedgerConfig::default();
    // Big enough that neither ingest below flushes the index memtable.
    config.index_db.memtable_max_bytes = 64 << 20;
    let interval = config.index_db.sparse_index_interval as i64;
    let ledger = Ledger::open(&dir.0, config).unwrap();
    ingest(
        &ledger,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )
    .unwrap();
    // The smallest key: every other history key sorts after its prefix.
    let key = workload.keys().into_iter().min().unwrap().key();
    let (returned, gap, sources) = ghfk_scan_work(&ledger, &key);
    assert!(returned > 0);
    assert_eq!(sources, 1, "the ledger is unflushed");
    assert!(
        gap <= sources * interval + sources,
        "visited − returned = {gap} over {sources} source(s)"
    );
    // 10,000 shipments no dataset key uses, all sorting after `key`.
    let unrelated: Vec<Event> = (0..10_000u32)
        .map(|i| Event {
            subject: EntityId::shipment(90_000 + i),
            target: EntityId::container(0),
            time: workload.params.t_max + 1 + u64::from(i),
            kind: EventKind::Load,
        })
        .collect();
    ingest(
        &ledger,
        &unrelated,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )
    .unwrap();
    let (returned_after, gap_after, sources_after) = ghfk_scan_work(&ledger, &key);
    assert_eq!((returned_after, sources_after), (returned, 1));
    assert!(
        gap_after <= gap,
        "unrelated memtable keys grew the scan's waste from {gap} to {gap_after}"
    );
}

/// The auto planner's index work is what its plan reads plus the decision:
/// on a late window, where M1 wins, one `AutoEngine` cursor returns at most
/// as many history-index entries as the M1 engine's cursor plus the key's
/// entries in its first `occupied + 1` blocks. The planner reads the key's
/// profile only until TQF's worst case exceeds M1's cost, and the M1 cursor
/// reuses the θ cells the probes resolved instead of scanning them again.
#[test]
fn auto_planner_index_work_is_bounded_by_its_decision() {
    let workload = ds1();
    let t_max = workload.params.t_max;
    let dir = TempDir::new("auto-scan-work");
    let mut config = LedgerConfig::default();
    // Big enough that neither ingest nor the index build flushes.
    config.index_db.memtable_max_bytes = 64 << 20;
    let ledger = Ledger::open(&dir.0, config).unwrap();
    ingest(
        &ledger,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )
    .unwrap();
    M1Indexer::fixed(&FixedLength { u: t_max / 75 })
        .run_epoch(&ledger, &workload.keys(), Interval::new(0, t_max))
        .unwrap();
    let returned = |ledger: &Ledger| {
        ledger.publish_gauges();
        let snap = ledger.telemetry().snapshot();
        snap.gauge("indexdb.range_entries_returned")
            .expect("indexdb.range_entries_returned")
    };
    let key = workload.keys().into_iter().min().unwrap();
    let tau = *sweep(t_max).last().unwrap();
    let choice = AutoEngine::default().choose(&ledger, key, tau).unwrap();
    assert_eq!(choice.path, AccessPath::M1 { residual: None });
    let occupied = choice.m1_blocks.unwrap().0;
    // The profile prefix the decision needs: the entries of the key's
    // first `occupied + 1` blocks (a block can hold several of them).
    let profile = ledger.history_profile(&key.key()).unwrap();
    let mut blocks = Vec::new();
    let decision_entries = profile
        .iter()
        .take_while(|e| {
            if blocks.last() != Some(&e.location.block_num) {
                blocks.push(e.location.block_num);
            }
            blocks.len() as u64 <= occupied + 1
        })
        .count() as i64;
    assert!(
        profile.len() as i64 > 10 * decision_entries,
        "the key's history ({} entries) must dwarf the bound ({decision_entries})",
        profile.len()
    );

    let work = |engine: &dyn TemporalEngine| {
        let before = returned(&ledger);
        let events = drain(engine.events_cursor(&ledger, key, tau).unwrap().as_mut()).unwrap();
        (returned(&ledger) - before, events)
    };
    let (m1_work, m1_events) = work(&M1Engine::default());
    let (auto_work, auto_events) = work(&AutoEngine::default());
    assert_eq!(auto_events, m1_events);
    assert!(
        auto_work <= m1_work + decision_entries,
        "auto returned {auto_work} index entries, M1 {m1_work}, decision prefix {decision_entries}"
    );
}

/// Nine Table-I style windows.
fn sweep(t_max: u64) -> Vec<Interval> {
    let w = t_max / 15;
    [0u64, 1, 2, 6, 7, 8, 12, 13, 14]
        .iter()
        .map(|&i| Interval::new(i * w, (i + 1) * w))
        .collect()
}

#[test]
fn tqf_cost_grows_rightward_m1_flat_m2_flat() {
    let workload = ds1();
    let t_max = workload.params.t_max;
    let u = t_max / 75; // paper's u=2K out of 150K
    let dir = TempDir::new("sweep");

    let base = Ledger::open(dir.0.join("base"), LedgerConfig::default()).unwrap();
    ingest(
        &base,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )
    .unwrap();
    let strategy = FixedLength { u };
    M1Indexer::fixed(&strategy)
        .run_epoch(&base, &workload.keys(), Interval::new(0, t_max))
        .unwrap();
    let m2_ledger = Ledger::open(dir.0.join("m2"), LedgerConfig::default()).unwrap();
    ingest(
        &m2_ledger,
        &workload.events,
        IngestMode::MultiEvent,
        &M2Encoder { u },
    )
    .unwrap();

    let mut tqf_blocks = Vec::new();
    let mut m1_blocks = Vec::new();
    let mut m2_blocks = Vec::new();
    for tau in sweep(t_max) {
        tqf_blocks.push(
            ferry_query(&TqfEngine, &base, tau)
                .unwrap()
                .stats
                .blocks_deserialized(),
        );
        m1_blocks.push(
            ferry_query(&M1Engine::default(), &base, tau)
                .unwrap()
                .stats
                .blocks_deserialized(),
        );
        m2_blocks.push(
            ferry_query(&M2Engine { u }, &m2_ledger, tau)
                .unwrap()
                .stats
                .blocks_deserialized(),
        );
    }
    // Paper claim 1: TQF cost grows as the window moves right —
    // monotonically across the sweep, and the last window costs several
    // times the first.
    assert!(
        tqf_blocks.windows(2).all(|w| w[0] <= w[1]),
        "TQF blocks not monotone: {tqf_blocks:?}"
    );
    assert!(
        *tqf_blocks.last().unwrap() >= tqf_blocks[0] * 5,
        "TQF rightmost should cost ≥5x leftmost: {tqf_blocks:?}"
    );
    // Paper claim 2: M1 cost is ~flat (uniform data): max ≤ 2x min.
    let (m1_min, m1_max) = (
        *m1_blocks.iter().min().unwrap(),
        *m1_blocks.iter().max().unwrap(),
    );
    assert!(m1_max <= m1_min * 2, "M1 not flat: {m1_blocks:?}");
    // Paper claim 3: M2 cost is ~flat too, but above M1 (events scattered).
    let (m2_min, m2_max) = (
        *m2_blocks.iter().min().unwrap(),
        *m2_blocks.iter().max().unwrap(),
    );
    assert!(m2_max <= m2_min * 2, "M2 not flat: {m2_blocks:?}");
    for i in 0..m1_blocks.len() {
        assert!(
            m1_blocks[i] <= m2_blocks[i],
            "M1 must not exceed M2 at window {i}: {} vs {}",
            m1_blocks[i],
            m2_blocks[i]
        );
    }
    // Paper claim 4: by the right edge, both models beat TQF decisively.
    assert!(*tqf_blocks.last().unwrap() > 3 * *m2_blocks.last().unwrap());
    assert!(*tqf_blocks.last().unwrap() > 10 * *m1_blocks.last().unwrap());
}

#[test]
fn m1_ghfk_calls_match_arithmetic() {
    // Paper: for a window of length L and interval u, M1 issues
    // keys × ceil(L/u) GHFK calls (2500 = 500 × 5 in Table I).
    let workload = ds1();
    let t_max = workload.params.t_max;
    let u = t_max / 75;
    let dir = TempDir::new("calls");
    let base = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    ingest(
        &base,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )
    .unwrap();
    let strategy = FixedLength { u };
    M1Indexer::fixed(&strategy)
        .run_epoch(&base, &workload.keys(), Interval::new(0, t_max))
        .unwrap();

    let keys = workload.params.total_keys() as u64;
    let tau = Interval::new(0, 5 * u); // aligned window of 5 intervals
    let outcome = ferry_query(&M1Engine::default(), &base, tau).unwrap();
    assert_eq!(outcome.stats.ghfk_calls(), keys * 5);
    // And one block per non-empty interval at most.
    assert!(outcome.stats.blocks_deserialized() <= keys * 5);
}

#[test]
fn tqf_ghfk_calls_equal_key_count() {
    let workload = ds1();
    let dir = TempDir::new("tqf-calls");
    let base = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    ingest(
        &base,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )
    .unwrap();
    let tau = Interval::new(0, workload.params.t_max / 15);
    let outcome = ferry_query(&TqfEngine, &base, tau).unwrap();
    assert_eq!(
        outcome.stats.ghfk_calls(),
        u64::from(workload.params.total_keys()),
        "TQF issues exactly one GHFK per key (paper: 500)"
    );
}

#[test]
fn larger_u_means_fewer_m1_calls_and_blocks() {
    // Paper Table II: u ∈ {2K, 10K, 50K} — join cost drops as u grows.
    let workload = ds1();
    let t_max = workload.params.t_max;
    let tau = Interval::new(t_max * 2 / 15, t_max * 9 / 15);
    let mut previous_blocks = u64::MAX;
    for divisor in [75u64, 15, 3] {
        let u = t_max / divisor;
        let dir = TempDir::new(&format!("table2-{divisor}"));
        let base = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
        ingest(
            &base,
            &workload.events,
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();
        let strategy = FixedLength { u };
        M1Indexer::fixed(&strategy)
            .run_epoch(&base, &workload.keys(), Interval::new(0, t_max))
            .unwrap();
        let outcome = ferry_query(&M1Engine::default(), &base, tau).unwrap();
        let blocks = outcome.stats.blocks_deserialized();
        assert!(
            blocks < previous_blocks,
            "u={u}: expected fewer blocks than {previous_blocks}, got {blocks}"
        );
        previous_blocks = blocks;
    }
}

#[test]
fn zipf_m1_and_m2_costs_decrease_rightward() {
    // Paper: on DS2 the events thin out to the right, so M1/M2 join costs
    // decrease while TQF's still grows.
    let workload = generate_scaled(DatasetId::Ds2, SCALE);
    let t_max = workload.params.t_max;
    let u = t_max / 75;
    let dir = TempDir::new("zipf");
    let base = Ledger::open(dir.0.join("base"), LedgerConfig::default()).unwrap();
    ingest(
        &base,
        &workload.events,
        IngestMode::MultiEvent,
        &IdentityEncoder,
    )
    .unwrap();
    let m2_ledger = Ledger::open(dir.0.join("m2"), LedgerConfig::default()).unwrap();
    ingest(
        &m2_ledger,
        &workload.events,
        IngestMode::MultiEvent,
        &M2Encoder { u },
    )
    .unwrap();

    let w = t_max / 15;
    let early = Interval::new(w, 2 * w);
    let late = Interval::new(13 * w, 14 * w);
    let m2_early = ferry_query(&M2Engine { u }, &m2_ledger, early).unwrap();
    let m2_late = ferry_query(&M2Engine { u }, &m2_ledger, late).unwrap();
    assert!(
        m2_late.stats.blocks_deserialized() < m2_early.stats.blocks_deserialized(),
        "zipf: late window should be cheaper for M2 ({} vs {})",
        m2_late.stats.blocks_deserialized(),
        m2_early.stats.blocks_deserialized()
    );
    let tqf_early = ferry_query(&TqfEngine, &base, early).unwrap();
    let tqf_late = ferry_query(&TqfEngine, &base, late).unwrap();
    assert!(
        tqf_late.stats.blocks_deserialized() > tqf_early.stats.blocks_deserialized(),
        "zipf: TQF must still grow rightward"
    );
}

#[test]
fn m2_state_db_grows_with_interval_count() {
    // Paper §VII-B: n intervals per key ⇒ n−1 extra states in state-db.
    let p = params_scaled(DatasetId::Ds3, 40);
    let workload = fabric_workload::GeneratedWorkload::generate(p);
    let t_max = p.t_max;
    let dir = TempDir::new("m2-statedb");
    let mut counts = Vec::new();
    for (i, divisor) in [1u64, 5, 25].iter().enumerate() {
        let u = t_max / divisor;
        let sub = dir.0.join(format!("u{i}"));
        let ledger = Ledger::open(&sub, LedgerConfig::default()).unwrap();
        ingest(
            &ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &M2Encoder { u },
        )
        .unwrap();
        counts.push(ledger.state_db().key_count().unwrap());
    }
    assert!(
        counts[0] < counts[1] && counts[1] < counts[2],
        "state-db must grow as u shrinks: {counts:?}"
    );
    // With one interval covering everything, exactly one state per key.
    assert_eq!(counts[0], workload.params.total_keys() as usize);
}

#[test]
fn periodic_indexing_invocations_get_costlier() {
    // Paper Table III: each invocation re-scans all ingested data.
    let workload = generate_scaled(DatasetId::Ds1, 400);
    let t_max = workload.params.t_max;
    let u = t_max / 75;
    let dir = TempDir::new("periodic-cost");
    let ledger = Ledger::open(&dir.0, LedgerConfig::default()).unwrap();
    let strategy = FixedLength { u };
    let indexer = M1Indexer::fixed(&strategy);
    let epochs = 6u64;
    let mut cursor = 0usize;
    let mut blocks_per_epoch = Vec::new();
    for e in 1..=epochs {
        let epoch = Interval::new(t_max * (e - 1) / epochs, t_max * e / epochs);
        let end = workload.events[cursor..]
            .iter()
            .position(|ev| ev.time > epoch.end)
            .map(|x| cursor + x)
            .unwrap_or(workload.events.len());
        ingest(
            &ledger,
            &workload.events[cursor..end],
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();
        cursor = end;
        let report = indexer.run_epoch(&ledger, &workload.keys(), epoch).unwrap();
        blocks_per_epoch.push(report.stats.blocks_deserialized());
    }
    assert!(
        blocks_per_epoch.windows(2).all(|w| w[0] <= w[1]),
        "index-build cost must be non-decreasing: {blocks_per_epoch:?}"
    );
    assert!(
        *blocks_per_epoch.last().unwrap() > blocks_per_epoch[0] * 2,
        "last invocation must cost well over the first: {blocks_per_epoch:?}"
    );
}

#[test]
fn get_state_base_probe_count_drops_with_u() {
    // Paper Table IV: 329K probes (u=2K) → 100K (u=50K) for 100K calls.
    use temporal_core::base_api::M2BaseApi;
    let workload = generate_scaled(DatasetId::Ds1, 300);
    let t_max = workload.params.t_max;
    let keys = workload.keys();
    // Probe from well past the last event: the walk must cross every
    // trailing empty interval, so the probe count is ∝ 1/u — the exact
    // mechanism behind Table IV's 329K → 100K drop.
    let now = 2 * t_max;
    let dir = TempDir::new("table4");
    let mut probe_totals = Vec::new();
    for (i, divisor) in [75u64, 15, 3].iter().enumerate() {
        let u = t_max / divisor;
        let ledger = Ledger::open(dir.0.join(format!("u{i}")), LedgerConfig::default()).unwrap();
        ingest(
            &ledger,
            &workload.events,
            IngestMode::MultiEvent,
            &M2Encoder { u },
        )
        .unwrap();
        let api = M2BaseApi::new(u, now);
        let mut probes = 0;
        for &key in &keys {
            let r = api.get_state_base(&ledger, key).unwrap();
            assert!(r.state.is_some(), "every key has a current state");
            probes += r.probes;
        }
        probe_totals.push(probes);
    }
    assert!(
        probe_totals[0] > probe_totals[1] && probe_totals[1] > probe_totals[2],
        "probes must drop as u grows: {probe_totals:?}"
    );
    // u = t_max/3 with now = 2·t_max: at most a handful of probes per key.
    assert!(
        probe_totals[2] <= 5 * keys.len() as u64,
        "expected few probes per key, got {} for {} keys",
        probe_totals[2],
        keys.len()
    );
}
