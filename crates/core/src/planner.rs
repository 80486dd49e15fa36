//! Cost-based access-path planning: pick TQF vs M1 vs M2 per `(key, τ)`.
//!
//! The three engines answer the same question at wildly different block
//! costs, and the cheapest one depends on the query interval's shape —
//! exactly the leverage range/interval-aware planners exploit. This
//! planner derives **certified block bounds** for each candidate path from
//! the history index's per-entry transaction timestamps
//! ([`Ledger::scan_history_profile`]) without deserializing a single block:
//!
//! * ingestion writes events globally sorted by time, so an entry's events
//!   are ≤ its recorded timestamp and ≥ the previous entry's timestamp;
//! * a TQF scan for `(ts, te]` therefore consumes a *prefix* of the
//!   profile, whose length — and distinct-block count — can be bracketed
//!   between a certain lower and a worst-case upper bound;
//! * an M1 scan costs exactly one block per *occupied* overlapping index
//!   interval — the indexer writes `(k,θ)` only when `EV(k,θ)` is
//!   non-empty, so probing the composite key's history profile (an index
//!   read, not a block read) counts occupied intervals precisely — plus
//!   the bounded residual scan for any fringe past the indexed horizon
//!   (the hybrid plan).
//!
//! [`AutoEngine`] picks TQF only when its *worst case* is no worse than
//! M1's *best case* — so the chosen path never deserializes more blocks
//! than the indexed path would, by construction. On fully timestamped
//! profiles the TQF bracket is at most one block wide and the M1 cost is
//! exact, so in that regime the choice is *optimal*, not merely safe.
//!
//! Planning reads index rows only up to the decision: the M1 side is
//! priced first, then the key's profile is streamed and the scan stops as
//! soon as the rest of it cannot change the choice (see `ProfileScan`).
//! The occupancy probes resolve each `(k,θ)` composite key's history
//! locations, and an M1 plan's cursor reads exactly those cells instead of
//! scanning the index again.
//!
//! On ledgers without M1 metadata the layout itself decides: composite
//! `(k,θ)` rows mean M2, otherwise TQF is the only option. Decisions are exported as
//! `planner.pick.*` telemetry counters and rendered by `tfq plan`.

use std::collections::HashMap;
use std::sync::Arc;

use fabric_ledger::index::HistoryLocation;
use fabric_ledger::{HistoryEntryMeta, Ledger, Result};
use fabric_workload::{EntityId, Event};
use std::sync::Mutex;

use crate::cursor::{drain, EventCursor, M1Cursor, M2Cursor, TqfCursor};
use crate::engine::TemporalEngine;
use crate::explain::{ExplainQuery, QueryPlan};
use crate::interval::Interval;
use crate::m1::{self, M1Engine, ThetaCell};
use crate::m2::M2Engine;
use crate::tqf::TqfEngine;

/// The access path the planner settled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Full-history GHFK scan (no index helps, or TQF is certified cheapest).
    Tqf,
    /// M1 EV-sets for the indexed intervals; `residual` is the fringe
    /// window past the indexed horizon served by a bounded base-data scan
    /// (`Some` ⇒ the hybrid plan).
    M1 {
        /// Fringe window scanned from base data, if any.
        residual: Option<Interval>,
    },
    /// Interval-tagged composite keys (the ledger was ingested with M2).
    M2,
}

/// A planning decision with the evidence that produced it.
#[derive(Debug, Clone)]
pub struct PlanChoice {
    /// Key being queried.
    pub key: EntityId,
    /// Query window.
    pub tau: Interval,
    /// Chosen path.
    pub path: AccessPath,
    /// One-line justification.
    pub reason: String,
    /// `(certain, worst_case)` blocks for a TQF scan of this query. Exact
    /// unless [`PlanChoice::tqf_partial`] is set.
    pub tqf_blocks: (u64, u64),
    /// The profile scan stopped once M1 was certain to win, before TQF's
    /// terminator entry: both TQF bounds are then lower bounds on the
    /// full-profile values ("TQF costs at least this much in the worst
    /// case"). Never set when TQF is chosen.
    pub tqf_partial: bool,
    /// `(certain, worst_case)` blocks for the M1(+residual) path, when M1
    /// metadata exists.
    pub m1_blocks: Option<(u64, u64)>,
    /// The chosen engine's executable plan.
    pub plan: QueryPlan,
}

impl PlanChoice {
    /// Short label for the chosen path ("TQF", "M1", "hybrid", "M2").
    pub fn path_label(&self) -> &'static str {
        match self.path {
            AccessPath::Tqf => "TQF",
            AccessPath::M1 { residual: None } => "M1",
            AccessPath::M1 { residual: Some(_) } => "hybrid",
            AccessPath::M2 => "M2",
        }
    }

    /// Telemetry counter name for this decision.
    fn counter_name(&self) -> &'static str {
        match self.path {
            AccessPath::Tqf => "planner.pick.tqf",
            AccessPath::M1 { residual: None } => "planner.pick.m1",
            AccessPath::M1 { residual: Some(_) } => "planner.pick.hybrid",
            AccessPath::M2 => "planner.pick.m2",
        }
    }

    /// Render the decision and the chosen plan as indented text.
    pub fn render(&self) -> String {
        let tqf = if self.tqf_partial {
            format!(
                "≥ {} block(s) (profile read stopped once M1 was certain)",
                self.tqf_blocks.1
            )
        } else {
            format!("{}..={} block(s)", self.tqf_blocks.0, self.tqf_blocks.1)
        };
        let mut out = format!(
            "planner choice for {} over {}: {}\n  reason: {}\n  TQF bound: {tqf}\n",
            self.key,
            self.tau,
            self.path_label(),
            self.reason,
        );
        if let Some((lo, hi)) = self.m1_blocks {
            out.push_str(&format!("  M1 bound: {lo}..={hi} block(s)\n"));
        }
        out.push_str(&self.plan.render());
        out
    }
}

/// `(certain, worst_case)` distinct blocks a bounded TQF scan for
/// `(·, te]` deserializes, computed incrementally over the key's history
/// profile (entries in commit order). The scan consumes a prefix of the
/// profile: at most up to the first entry whose *predecessors'* latest
/// known timestamp exceeds `te` — the terminator, whose events are
/// certainly past `te` — and certainly every entry within that prefix
/// whose recorded timestamp is ≤ `te`, plus the entry after the last such
/// one (consumed as a hit or terminator). Entries after the terminator
/// cannot move either bound, so [`ScanBounds::done`] tells a streaming
/// caller it may stop reading.
#[derive(Debug, Clone, Copy)]
struct ScanBounds {
    te: u64,
    /// Distinct blocks among the consumed entries: the worst case.
    blocks: u64,
    last_block: Option<u64>,
    /// Latest recorded timestamp consumed so far.
    last_known: u64,
    /// Distinct blocks the scan certainly reads, given the entries so far.
    certain: u64,
    /// The next entry is certainly read (the first entry, or the one after
    /// an entry stamped ≤ `te`).
    next_certain: bool,
    /// The terminator has been consumed.
    done: bool,
}

impl ScanBounds {
    fn new(te: u64) -> Self {
        ScanBounds {
            te,
            blocks: 0,
            last_block: None,
            last_known: 0,
            certain: 0,
            next_certain: true,
            done: false,
        }
    }

    /// Consume the next profile entry (ignored once `done`).
    fn push(&mut self, e: &HistoryEntryMeta) {
        if self.done {
            return;
        }
        // Entry's events are ≥ last_known > te: the scan terminates at or
        // before consuming it.
        self.done = self.last_known > self.te;
        if self.last_block != Some(e.location.block_num) {
            self.blocks += 1;
            self.last_block = Some(e.location.block_num);
        }
        let hit = matches!(e.timestamp, Some(ts) if ts <= self.te);
        if hit || self.next_certain {
            self.certain = self.blocks;
        }
        self.next_certain = hit;
        if let Some(ts) = e.timestamp {
            self.last_known = ts;
        }
    }

    fn bounds(&self) -> (u64, u64) {
        (self.certain, self.blocks)
    }
}

/// The planner's read of a key's history profile, fed one entry at a time
/// by [`Ledger::scan_history_profile`] until [`ProfileScan::push`] says
/// the rest cannot change the decision:
///
/// * after TQF's terminator (and, with a residual window, the fringe's
///   terminator as well: when timestamps are not monotone the fringe
///   bound can need entries past the full profile's terminator);
/// * without a residual window, as soon as the blocks read exceed M1's
///   exact cost — TQF's worst case then already exceeds M1's best case,
///   so M1 wins and the TQF bound is left partial.
///
/// Whenever TQF is chosen the bounds equal those of a full-profile read.
#[derive(Debug, Clone, Copy)]
struct ProfileScan {
    tqf: ScanBounds,
    /// Residual window start and the bounds of the residual scan, which
    /// sees only entries stamped after it (or unstamped).
    fringe: Option<(u64, ScanBounds)>,
    /// M1's exact block cost when it has no residual window.
    m1_cap: Option<u64>,
    /// Profile entries read.
    entries: u64,
    /// Stopped on `m1_cap` before TQF's terminator.
    partial: bool,
}

impl ProfileScan {
    fn new(te: u64, fringe_start: Option<u64>, m1_cap: Option<u64>) -> Self {
        ProfileScan {
            tqf: ScanBounds::new(te),
            fringe: fringe_start.map(|start| (start, ScanBounds::new(te))),
            m1_cap,
            entries: 0,
            partial: false,
        }
    }

    /// Consume one entry; `false` once reading further is pointless.
    fn push(&mut self, e: &HistoryEntryMeta) -> bool {
        self.entries += 1;
        self.tqf.push(e);
        if let Some((start, fringe)) = &mut self.fringe {
            match e.timestamp {
                Some(ts) if ts <= *start => {}
                _ => fringe.push(e),
            }
        }
        if matches!(self.m1_cap, Some(cap) if !self.tqf.done && self.tqf.blocks > cap) {
            self.partial = true;
            return false;
        }
        !self.tqf.done || self.fringe.is_some_and(|(_, f)| !f.done)
    }

    /// Stream `key`'s profile from `ledger` through this scan.
    fn run(mut self, ledger: &Ledger, key: EntityId) -> Result<Self> {
        ledger.scan_history_profile(&key.key(), |e| self.push(e))?;
        Ok(self)
    }
}

/// Index state the occupancy cache is valid under: `(interval regime,
/// indexed horizon, epoch count)`. Any indexer progress — a batch epoch
/// or the daemon's watermark bump — changes at least one component.
type ProbeStamp = (u64, u64, u64);

/// Cached `(key, θ)` probes for one open ledger: each composite key's
/// history locations, empty when the cell is unoccupied. A θ cell is
/// immutable once its epoch commits (the indexer only ever appends new
/// cells past the horizon), so entries never go stale within a stamp; the
/// stamp mismatch on indexer progress clears the map, which also bounds
/// its memory to one index generation's working set. Since an M1 plan's
/// cursor reads exactly the cached locations, the cache is keyed by
/// [`Ledger::instance_id`]: another ledger never sees these rows.
#[derive(Debug, Default)]
struct LedgerProbes {
    stamp: ProbeStamp,
    map: HashMap<fabric_kvstore::Bytes, Vec<HistoryLocation>>,
}

/// The cost-based planning engine, exposed on the CLI as `--engine auto`.
///
/// Implements [`TemporalEngine`] (and [`ExplainQuery`]) by choosing an
/// access path per `(key, τ)` call and delegating to the corresponding
/// cursor. Results are bit-identical to every fixed engine on the same
/// ledger; block cost never exceeds the M1 path's.
///
/// Every cursor it hands out is wrapped in a
/// [`crate::calibrate::CalibratedCursor`]: when the cursor drops, the
/// measured I/O is compared against the certified bounds and fed to the
/// `planner.regret.*` counters, the `planner.calibration.ratio_pct`
/// histogram, and — when [`AutoEngine::log`] is set — a JSONL calibration
/// log for `tfq planner-report`.
#[derive(Debug, Clone, Default)]
pub struct AutoEngine {
    /// Optional calibration sink shared across queries.
    pub log: Option<std::sync::Arc<crate::calibrate::PlannerLog>>,
    /// Probe cache per open ledger (keyed by [`Ledger::instance_id`], so
    /// each shard of a sharded ledger has its own). Shared across clones
    /// so every worker thread planning on the same engine reuses — and
    /// invalidates — one cache.
    probes: Arc<Mutex<HashMap<u64, LedgerProbes>>>,
}

/// A decision plus what planning already resolved for the cursor.
struct Plan {
    choice: PlanChoice,
    /// The overlapping M1 cells with their locations (M1 metadata only).
    cells: Vec<ThetaCell>,
    /// Profile entries read to reach the decision.
    profile_entries: u64,
}

impl AutoEngine {
    /// An engine that writes every decision + measured outcome to `log`.
    pub fn with_log(log: std::sync::Arc<crate::calibrate::PlannerLog>) -> AutoEngine {
        AutoEngine {
            log: Some(log),
            ..AutoEngine::default()
        }
    }

    /// Resolve the M1 cells of `thetas`. Exact blocks for reading them are
    /// the occupied ones: the indexer writes `(k,θ)` pairs only for
    /// non-empty `EV(k,θ)`, and the query path lazily reads one block per
    /// existing pair (first historical state). Each cell is resolved by
    /// the same index read the M1 engine uses ([`m1::probe_cell`]; no
    /// block is deserialized) and cached across queries until `stamp`
    /// moves (`planner.probe.hit` / `planner.probe.miss`).
    fn probe_cells(
        &self,
        ledger: &Ledger,
        key: EntityId,
        thetas: Vec<Interval>,
        stamp: ProbeStamp,
    ) -> Result<Vec<ThetaCell>> {
        let tel = ledger.telemetry();
        let mut probes = self.probes.lock().expect("lock poisoned");
        let entry = probes.entry(ledger.instance_id()).or_default();
        if entry.stamp != stamp {
            entry.map.clear();
            entry.stamp = stamp;
        }
        let mut cells = Vec::with_capacity(thetas.len());
        for theta in thetas {
            let composite = theta.composite_key(&key.key());
            let locations = match entry.map.get(&composite) {
                Some(cached) => {
                    tel.count("planner.probe.hit", 1);
                    cached.clone()
                }
                None => {
                    tel.count("planner.probe.miss", 1);
                    let locations = m1::probe_cell(ledger, key, theta)?;
                    entry.map.insert(composite, locations.clone());
                    locations
                }
            };
            cells.push(ThetaCell { theta, locations });
        }
        Ok(cells)
    }
}

impl AutoEngine {
    /// Plan `(key, tau)` against a [`fabric_ledger::ShardedLedger`]: route
    /// to the shard owning `key` and plan there. The per-shard ledger's
    /// block geometry is exactly what a cursor will traverse, so the
    /// bounds are as tight as on a single-shard ledger.
    pub fn choose_sharded(
        &self,
        ledger: &fabric_ledger::ShardedLedger,
        key: EntityId,
        tau: Interval,
    ) -> Result<PlanChoice> {
        self.choose(ledger.shard_for_key(&key.key()), key, tau)
    }

    /// Plan `(key, tau)` without executing: derive block bounds for the
    /// candidate paths and pick one. Cheap — metadata and index reads
    /// only, no block is deserialized.
    pub fn choose(&self, ledger: &Ledger, key: EntityId, tau: Interval) -> Result<PlanChoice> {
        Ok(self.plan(ledger, key, tau)?.choice)
    }

    /// [`AutoEngine::choose`], keeping the resolved M1 cells for the
    /// cursor. The M1 side is priced first, so the profile scan can stop
    /// as soon as M1 is certain to win.
    fn plan(&self, ledger: &Ledger, key: EntityId, tau: Interval) -> Result<Plan> {
        let meta = m1::read_meta(ledger)?;
        let mut cells = Vec::new();
        let (path, reason, scan, m1_blocks) = if let Some(meta) = &meta {
            let thetas = m1::overlapping_thetas(ledger, key, tau, meta)?;
            let stamp = (meta.u, meta.indexed_to(), meta.epochs.len() as u64);
            cells = self.probe_cells(ledger, key, thetas, stamp)?;
            let occupied = cells.iter().filter(|c| !c.locations.is_empty()).count() as u64;
            let residual = m1::residual_window(tau, meta.indexed_to());
            // The residual scan sees only entries stamped after the window
            // start; it is bounded on that sub-profile.
            let scan = ProfileScan::new(
                tau.end,
                residual.map(|w| w.start),
                residual.is_none().then_some(occupied),
            )
            .run(ledger, key)?;
            let (lo, hi) = scan.fringe.map_or((0, 0), |(_, f)| f.bounds());
            let (m1_lo, m1_hi) = (occupied + lo, occupied + hi);
            let tqf_hi = scan.tqf.blocks;
            if tqf_hi <= m1_lo {
                (
                    AccessPath::Tqf,
                    format!("TQF worst case ({tqf_hi}) ≤ M1 best case ({m1_lo})"),
                    scan,
                    Some((m1_lo, m1_hi)),
                )
            } else {
                let reason = match residual {
                    Some(window) => format!(
                        "M1 EV-sets over {occupied} occupied interval(s) + bounded residual scan of {window}"
                    ),
                    None if scan.partial => format!(
                        "M1 reads exactly {occupied} occupied interval block(s); TQF may cost ≥ {tqf_hi}"
                    ),
                    None => format!(
                        "M1 reads exactly {occupied} occupied interval block(s); TQF may cost {tqf_hi}"
                    ),
                };
                (
                    AccessPath::M1 { residual },
                    reason,
                    scan,
                    Some((m1_lo, m1_hi)),
                )
            }
        } else {
            // No M1 metadata: the ledger layout decides. Composite (k,θ)
            // rows in the state-db mean interval-tagged ingestion.
            let prefix = Interval::key_prefix(&key.key());
            let end = fabric_kvstore::prefix_end(&prefix);
            let rows = ledger.get_state_by_range(Some(&prefix), end.as_deref())?;
            let tagged = rows
                .iter()
                .any(|(k, _)| Interval::split_composite_key(k).is_some());
            let scan = ProfileScan::new(tau.end, None, None).run(ledger, key)?;
            if tagged {
                (
                    AccessPath::M2,
                    "state-db holds interval-tagged composite keys".to_string(),
                    scan,
                    None,
                )
            } else {
                (
                    AccessPath::Tqf,
                    "no M1 metadata and no composite keys: full scan is the only path".to_string(),
                    scan,
                    None,
                )
            }
        };
        let plan = match path {
            AccessPath::Tqf => relabel(TqfEngine.explain(ledger, key, tau)?, "TQF"),
            AccessPath::M1 { residual } => relabel(
                M1Engine::default().explain(ledger, key, tau)?,
                if residual.is_some() {
                    "M1+residual"
                } else {
                    "M1"
                },
            ),
            AccessPath::M2 => relabel(M2Engine { u: 0 }.explain(ledger, key, tau)?, "M2"),
        };
        Ok(Plan {
            choice: PlanChoice {
                key,
                tau,
                path,
                reason,
                tqf_blocks: scan.tqf.bounds(),
                tqf_partial: scan.partial,
                m1_blocks,
                plan,
            },
            cells,
            profile_entries: scan.entries,
        })
    }
}

fn relabel(mut plan: QueryPlan, label: &str) -> QueryPlan {
    plan.engine = format!("Auto→{label}");
    plan
}

impl TemporalEngine for AutoEngine {
    fn name(&self) -> String {
        "Auto".to_string()
    }

    fn events_for_key(&self, ledger: &Ledger, key: EntityId, tau: Interval) -> Result<Vec<Event>> {
        drain(self.events_cursor(ledger, key, tau)?.as_mut())
    }

    fn events_cursor<'l>(
        &self,
        ledger: &'l Ledger,
        key: EntityId,
        tau: Interval,
    ) -> Result<Box<dyn EventCursor + 'l>> {
        let tel = ledger.telemetry();
        // Decision span: opened before planning so the probe and profile
        // reads land in it, labelled once the choice is known. It nests
        // under whatever query span is open on this thread, so the
        // slow-query log can hoist the chosen engine and the certified
        // bounds into its summary.
        let mut span = tel.span("planner.choice");
        let Plan {
            choice,
            cells,
            profile_entries,
        } = match self.plan(ledger, key, tau) {
            Ok(plan) => plan,
            Err(e) => {
                span.cancel(); // a failed plan is not a decision
                return Err(e);
            }
        };
        tel.count(choice.counter_name(), 1);
        span = span.with_label(choice.plan.engine.clone());
        span.record("probes", cells.len() as u64);
        span.record("profile_entries", profile_entries);
        span.record("tqf_blocks_lo", choice.tqf_blocks.0);
        span.record("tqf_blocks_hi", choice.tqf_blocks.1);
        if choice.tqf_partial {
            span.record("tqf_partial", 1);
        }
        if let Some((lo, hi)) = choice.m1_blocks {
            span.record("m1_blocks_lo", lo);
            span.record("m1_blocks_hi", hi);
        }
        drop(span);
        let inner: Box<dyn EventCursor + 'l> = match choice.path {
            AccessPath::Tqf => Box::new(TqfCursor::new(ledger, key, tau)?),
            AccessPath::M1 { residual } => {
                // The cells the probes resolved are exactly the M1
                // engine's; only the operator span is opened here.
                let span = tel.span("m1.key").with_label(key.to_string());
                Box::new(M1Cursor::new(ledger, key, tau, cells, residual, span))
            }
            AccessPath::M2 => Box::new(M2Cursor::new(ledger, key, tau)?),
        };
        Ok(Box::new(crate::calibrate::CalibratedCursor::new(
            inner,
            ledger,
            &choice,
            self.log.clone(),
        )))
    }
}

impl ExplainQuery for AutoEngine {
    fn explain(&self, ledger: &Ledger, key: EntityId, tau: Interval) -> Result<QueryPlan> {
        Ok(self.choose(ledger, key, tau)?.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_telemetry::rng::{check_cases, StdRng};

    /// Reference bounds from the whole profile, two passes: the upper
    /// bound's prefix ends at the terminator, the first entry whose
    /// predecessors' latest known timestamp exceeds `te`; the lower bound
    /// counts, within that prefix, every entry up to the last one stamped
    /// ≤ `te` plus the entry after it.
    fn scan_block_bounds(profile: &[HistoryEntryMeta], te: u64) -> (u64, u64) {
        let mut upper_entries = profile.len();
        let mut last_known = 0u64;
        for (i, e) in profile.iter().enumerate() {
            if last_known > te {
                upper_entries = i + 1;
                break;
            }
            if let Some(ts) = e.timestamp {
                last_known = ts;
            }
        }
        let prefix = &profile[..upper_entries];
        let mut lower_entries = 0usize;
        for (i, e) in prefix.iter().enumerate() {
            if matches!(e.timestamp, Some(ts) if ts <= te) {
                lower_entries = i + 1;
            }
        }
        if lower_entries < prefix.len() {
            lower_entries += 1; // next entry is consumed as a hit or terminator
        }
        (
            distinct_blocks(profile, lower_entries),
            distinct_blocks(profile, upper_entries),
        )
    }

    /// Distinct blocks among the first `entries` profile entries (the
    /// profile is ordered by block, so runs are consecutive).
    fn distinct_blocks(profile: &[HistoryEntryMeta], entries: usize) -> u64 {
        let mut blocks = 0u64;
        let mut prev = None;
        for e in profile.iter().take(entries) {
            if prev != Some(e.location.block_num) {
                blocks += 1;
                prev = Some(e.location.block_num);
            }
        }
        blocks
    }

    fn entry(block: u64, ts: Option<u64>) -> HistoryEntryMeta {
        HistoryEntryMeta {
            location: HistoryLocation {
                block_num: block,
                tx_num: 0,
            },
            timestamp: ts,
        }
    }

    #[test]
    fn scan_bounds_exact_on_fully_stamped_profile() {
        // One entry per block, ts = 10,20,…,100.
        let profile: Vec<_> = (1..=10).map(|i| entry(i, Some(i * 10))).collect();
        // te=55: entries 1..=5 are hits, entry 6 is read at the latest as a
        // terminator; entry 7 is certainly past (prev ts 60 > 55).
        let (lo, hi) = scan_block_bounds(&profile, 55);
        assert_eq!(lo, 6);
        assert!(hi <= 7, "upper bound {hi} too loose");
        assert!(hi >= lo);
        // te past everything: the whole profile.
        assert_eq!(scan_block_bounds(&profile, 1000), (10, 10));
        // te before everything: at most the first entry (terminator).
        let (lo, hi) = scan_block_bounds(&profile, 5);
        assert_eq!(lo, 1);
        assert!(hi <= 2);
    }

    #[test]
    fn scan_bounds_degrade_gracefully_without_timestamps() {
        // Legacy profile: no timestamps anywhere → no early certainty, the
        // upper bound is the full history.
        let profile: Vec<_> = (1..=10).map(|i| entry(i, None)).collect();
        let (lo, hi) = scan_block_bounds(&profile, 55);
        assert_eq!(hi, 10, "unknown timestamps cannot bound the scan");
        assert!(lo <= hi);
    }

    #[test]
    fn empty_profile_costs_nothing() {
        assert_eq!(scan_block_bounds(&[], 100), (0, 0));
    }

    /// Feed `profile` through a [`ProfileScan`] until it asks to stop.
    fn stream(
        profile: &[HistoryEntryMeta],
        te: u64,
        fringe_start: Option<u64>,
        m1_cap: Option<u64>,
    ) -> ProfileScan {
        let mut scan = ProfileScan::new(te, fringe_start, m1_cap);
        for e in profile {
            if !scan.push(e) {
                break;
            }
        }
        scan
    }

    /// A random profile in block order: monotone, non-monotone, partly
    /// unstamped, empty, or all in a single block.
    fn random_profile(rng: &mut StdRng) -> Vec<HistoryEntryMeta> {
        let shape = rng.gen_range(0..5u32);
        let len = match shape {
            3 => 0,
            _ => rng.gen_range(1..40usize),
        };
        let mut block = rng.gen_range(0..5u64);
        let mut ts = 0u64;
        (0..len)
            .map(|_| {
                if shape != 4 && rng.gen_bool() {
                    block += rng.gen_range(1..3u64);
                }
                ts += rng.gen_range(0..12u64);
                let stamp = match shape {
                    1 => Some(rng.gen_range(0..200u64)),
                    2 if rng.gen_range(0..3u32) == 0 => None,
                    _ => Some(ts),
                };
                entry(block, stamp)
            })
            .collect()
    }

    #[test]
    fn streamed_decision_and_bounds_match_full_profile() {
        check_cases(256, |rng| {
            let profile = random_profile(rng);
            let te = rng.gen_range(0..220u64);
            let occupied = rng.gen_range(0..10u64);
            let fringe_start = rng.gen_bool().then(|| rng.gen_range(0..te.max(1)));
            let scan = stream(
                &profile,
                te,
                fringe_start,
                fringe_start.is_none().then_some(occupied),
            );

            let full = scan_block_bounds(&profile, te);
            let fringe_full = fringe_start.map(|start| {
                let fringe: Vec<_> = profile
                    .iter()
                    .filter(|e| !matches!(e.timestamp, Some(ts) if ts <= start))
                    .copied()
                    .collect();
                scan_block_bounds(&fringe, te)
            });
            let m1_lo = occupied + fringe_full.map_or(0, |b| b.0);
            let streamed_m1_lo = occupied + scan.fringe.map_or(0, |(_, f)| f.bounds().0);
            let ctx = format!("te {te} occupied {occupied} fringe {fringe_start:?} {profile:?}");

            assert_eq!(
                scan.tqf.blocks <= streamed_m1_lo,
                full.1 <= m1_lo,
                "decision differs: {ctx}"
            );
            assert_eq!(
                scan.fringe.map(|(_, f)| f.bounds()),
                fringe_full,
                "fringe bounds differ: {ctx}"
            );
            if full.1 <= m1_lo {
                assert!(!scan.partial, "TQF chosen on a partial read: {ctx}");
            }
            if scan.partial {
                let (lo, hi) = scan.tqf.bounds();
                assert!(hi > occupied && hi <= full.1 && lo <= full.0, "{ctx}");
            } else {
                assert_eq!(scan.tqf.bounds(), full, "bounds differ: {ctx}");
            }
            assert!(scan.entries as usize <= profile.len());
        });
    }

    #[test]
    fn profile_scan_stops_at_the_decision() {
        // One entry per block, ts = 10,20,…,100.
        let profile: Vec<_> = (1..=10).map(|i| entry(i, Some(i * 10))).collect();
        // te=25: terminator is entry 4 (its predecessor is stamped 30).
        let scan = stream(&profile, 25, None, None);
        assert_eq!((scan.entries, scan.partial), (4, false));
        assert_eq!(scan.tqf.bounds(), scan_block_bounds(&profile, 25));
        // M1 costs 2: the scan stops once 3 blocks are read.
        let scan = stream(&profile, 95, None, Some(2));
        assert_eq!((scan.entries, scan.partial), (3, true));
        assert_eq!(scan.tqf.blocks, 3);
    }

    #[test]
    fn occupancy_probes_cached_until_index_progress() {
        use crate::m1::M1Indexer;
        use crate::partition::FixedLength;
        use fabric_ledger::LedgerConfig;
        use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
        use fabric_workload::{Event, EventKind};

        let dir = std::env::temp_dir().join(format!(
            "planner-probe-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ledger = Ledger::open(&dir, LedgerConfig::small_for_tests()).unwrap();
        ledger.telemetry().enable();
        let events: Vec<Event> = (1..=40)
            .map(|i| Event {
                subject: EntityId::shipment(0),
                target: EntityId::container(0),
                time: i * 10,
                kind: EventKind::Load,
            })
            .collect();
        ingest(&ledger, &events, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
        let strategy = FixedLength { u: 100 };
        let indexer = M1Indexer::fixed(&strategy);
        indexer
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(0, 200))
            .unwrap();

        let auto = AutoEngine::default();
        let key = EntityId::shipment(0);
        let tau = Interval::new(0, 200);
        auto.choose(&ledger, key, tau).unwrap();
        let counters = |name: &str| ledger.telemetry().registry().snapshot().counter(name);
        let first_misses = counters("planner.probe.miss");
        assert!(first_misses > 0, "first plan must probe the state-db");
        assert_eq!(counters("planner.probe.hit"), 0);

        auto.choose(&ledger, key, tau).unwrap();
        assert_eq!(
            counters("planner.probe.miss"),
            first_misses,
            "re-planning the same window must not re-probe"
        );
        assert_eq!(counters("planner.probe.hit"), first_misses);

        // Indexer progress (new epoch ⇒ new horizon) invalidates the cache.
        indexer
            .run_epoch(&ledger, &[EntityId::shipment(0)], Interval::new(200, 400))
            .unwrap();
        auto.choose(&ledger, key, Interval::new(0, 400)).unwrap();
        assert!(
            counters("planner.probe.miss") > first_misses,
            "watermark bump must clear cached probes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_engine_keeps_each_ledgers_cells_apart() {
        use crate::m1::M1Indexer;
        use crate::partition::FixedLength;
        use fabric_ledger::LedgerConfig;
        use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
        use fabric_workload::{Event, EventKind};

        // Two ledgers whose M1 indexes carry the same stamp but sit at
        // different block positions: the second chain starts with
        // unrelated blocks, so the first one's cell locations are wrong
        // there.
        let key = EntityId::shipment(0);
        let ev = |subject, time| Event {
            subject,
            target: EntityId::container(0),
            time,
            kind: EventKind::Load,
        };
        let build = |tag: &str, lead: u64| {
            let dir = std::env::temp_dir().join(format!(
                "planner-two-ledgers-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let ledger = Ledger::open(&dir, LedgerConfig::small_for_tests()).unwrap();
            let mut events: Vec<Event> = (1..=lead).map(|i| ev(EntityId::shipment(1), i)).collect();
            events.extend((1..=40).map(|i| ev(key, 100 + i * 10)));
            ingest(&ledger, &events, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
            M1Indexer::fixed(&FixedLength { u: 100 })
                .run_epoch(&ledger, &[key], Interval::new(0, 600))
                .unwrap();
            (dir, ledger)
        };
        let (dir_a, a) = build("a", 0);
        let (dir_b, b) = build("b", 30);
        let tau = Interval::new(400, 500);
        let auto = AutoEngine::default();
        for ledger in [&a, &b, &a] {
            let choice = auto.choose(ledger, key, tau).unwrap();
            assert_eq!(choice.path, AccessPath::M1 { residual: None });
            assert_eq!(
                auto.events_for_key(ledger, key, tau).unwrap(),
                TqfEngine.events_for_key(ledger, key, tau).unwrap()
            );
        }
        drop((a, b));
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}
