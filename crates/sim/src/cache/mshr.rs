//! Miss Status Holding Registers.
//!
//! The L1 tracks outstanding misses in an MSHR file with a bounded
//! number of entries and a bounded merge capability per entry
//! (Table 1: 512 entries, 8 merges on the V100). Exhaustion of either
//! produces reservation fails, one of the paper's motivation points.
//!
//! Storage grows with the number of live misses, never with the
//! configured capacity: entries sit densely in one `Vec`, each with a
//! fixed block of `merge` waiter slots in a parallel `Vec`, and a line
//! index finds them.
//! Completing a miss moves the last entry into the freed slot. All
//! three grow together, doubling, only when the number of live misses
//! passes a power of two it never reached before; otherwise
//! allocating, merging and completing misses touch no heap. The index
//! is a `HashMap` with a deterministic hash, reserved for twice the
//! entries' capacity: at most half full, it reuses deleted buckets in
//! place instead of growing.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::json::Value;
use crate::obs::{SimEvent, TraceEvent};
use crate::snapshot::{self, SnapshotError};
use crate::types::{Cycle, LineAddr, SmId, WarpId};

/// The origin of an outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissOrigin {
    /// Allocated by a demand load.
    Demand,
    /// Allocated by a prefetch (no warp waits unless one merges later).
    Prefetch,
}

/// One outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrEntry {
    /// Missing line.
    pub line: LineAddr,
    /// How the miss was created.
    pub origin: MissOrigin,
    /// Number of warps waiting on this line (0 for un-merged
    /// prefetches); the file stores their ids.
    pub waiters: u32,
    /// Whether a demand request has merged into a prefetch-origin
    /// entry (a *late* prefetch in the §4 metrics).
    pub demand_merged: bool,
    /// Total requests merged into this entry, including the allocator.
    pub requests: u32,
    /// Allocation cycle.
    pub alloc_cycle: Cycle,
    /// Cycle the miss was last sent down the hierarchy (allocation, or
    /// the most recent timeout-recovery reissue).
    pub last_issue: Cycle,
    /// Timeout-recovery reissues consumed.
    pub retries: u32,
}

/// Result of attempting to merge into an existing entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeResult {
    /// Merged into the outstanding entry.
    Merged {
        /// The entry was allocated by a prefetch: the merging demand's
        /// address was correctly predicted (late prefetch coverage).
        was_prefetch: bool,
        /// This is the first demand to merge into the entry (counts
        /// the prefetch as late exactly once).
        first_demand: bool,
    },
    /// The entry's merge capacity is exhausted.
    Full,
}

/// Fibonacci hashing of a line: one multiply by the 64-bit golden
/// ratio, its high half folded into the low half so the table's bucket
/// index (low bits) and tag (top bits) both depend on every line bit.
/// Deterministic: no per-process seed.
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// The MSHR file.
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// Outstanding entries, densely packed in no particular order.
    entries: Vec<MshrEntry>,
    /// `merge_capacity` waiter slots per entry, parallel to `entries`:
    /// entry `i`'s waiters are the first `entries[i].waiters` slots of
    /// block `i`.
    waiters: Vec<WarpId>,
    /// Line → index into `entries`, reserved for twice
    /// `entries.capacity()` lines.
    index: HashMap<LineAddr, u32, BuildHasherDefault<LineHasher>>,
    /// Waiters of the most recently completed entry.
    completed: Vec<WarpId>,
    capacity: usize,
    merge_capacity: usize,
    /// Allocation events buffered while tracing is enabled; the owning
    /// L1 drains them each cycle. `None` (the default) keeps the hot
    /// path to a single branch.
    trace: Option<(SmId, Vec<TraceEvent>)>,
}

impl MshrFile {
    /// Creates a file with `entries` slots and `merge` requesters per
    /// slot (the allocating request counts as one). Nothing is
    /// allocated until misses are.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(entries: u32, merge: u32) -> Self {
        assert!(entries > 0 && merge > 0);
        MshrFile {
            entries: Vec::new(),
            waiters: Vec::new(),
            index: HashMap::default(),
            completed: Vec::new(),
            capacity: entries as usize,
            merge_capacity: merge as usize,
            trace: None,
        }
    }

    /// Starts buffering [`SimEvent::MshrAllocate`] events on behalf of
    /// the SM that owns this file.
    pub fn enable_trace(&mut self, sm: SmId) {
        self.trace = Some((sm, Vec::new()));
    }

    /// Moves buffered trace events into `out` (in allocation order).
    pub fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        if let Some((_, buf)) = self.trace.as_mut() {
            out.append(buf);
        }
    }

    /// Outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a new entry can be allocated.
    pub fn has_free_entry(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Index into `entries` of `line`'s entry.
    fn slot(&self, line: LineAddr) -> Option<usize> {
        self.index.get(&line).map(|&i| i as usize)
    }

    /// Looks up an outstanding miss.
    pub fn get(&self, line: LineAddr) -> Option<&MshrEntry> {
        self.slot(line).map(|i| &self.entries[i])
    }

    /// The warps waiting on an outstanding miss, in merge order (empty
    /// when `line` has no entry).
    #[cfg(test)]
    fn waiters(&self, line: LineAddr) -> &[WarpId] {
        self.slot(line).map_or(&[], |i| self.block(i))
    }

    /// Entry `i`'s waiters.
    fn block(&self, i: usize) -> &[WarpId] {
        let start = i * self.merge_capacity;
        &self.waiters[start..start + self.entries[i].waiters as usize]
    }

    /// Allocates a new entry.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line already has an entry or the file is
    /// full — callers must check [`MshrFile::has_free_entry`] and
    /// [`MshrFile::get`] first.
    pub fn allocate(
        &mut self,
        line: LineAddr,
        origin: MissOrigin,
        waiter: Option<WarpId>,
        now: Cycle,
    ) {
        debug_assert!(self.has_free_entry());
        debug_assert!(self.slot(line).is_none());
        if let Some((sm, buf)) = self.trace.as_mut() {
            buf.push(TraceEvent {
                cycle: now,
                data: SimEvent::MshrAllocate {
                    sm: *sm,
                    line,
                    prefetch: origin == MissOrigin::Prefetch,
                },
            });
        }
        let i = self.entries.len();
        let m = self.merge_capacity;
        if i == self.entries.capacity() {
            // A new peak of live misses: grow all three together.
            self.entries.reserve(1);
            self.waiters
                .reserve_exact(self.entries.capacity() * m - self.waiters.len());
            self.index
                .reserve(2 * self.entries.capacity() - self.index.len());
        }
        self.index.insert(line, i as u32);
        self.entries.push(MshrEntry {
            line,
            origin,
            waiters: u32::from(waiter.is_some()),
            demand_merged: false,
            requests: 1,
            alloc_cycle: now,
            last_issue: now,
            retries: 0,
        });
        self.waiters.resize((i + 1) * m, WarpId(0));
        if let Some(w) = waiter {
            self.waiters[i * m] = w;
        }
    }

    /// Merges a demand request into an existing entry.
    pub fn merge_demand(&mut self, line: LineAddr, waiter: WarpId) -> MergeResult {
        let i = self.slot(line).expect("merge target must exist");
        let entry = &mut self.entries[i];
        // The allocating request occupies one merge slot.
        if entry.requests as usize >= self.merge_capacity {
            return MergeResult::Full;
        }
        entry.requests += 1;
        // Waiters never outnumber requests, so the block has room.
        self.waiters[i * self.merge_capacity + entry.waiters as usize] = waiter;
        entry.waiters += 1;
        let was_prefetch = entry.origin == MissOrigin::Prefetch;
        let first_demand = was_prefetch && !entry.demand_merged;
        if was_prefetch {
            entry.demand_merged = true;
        }
        MergeResult::Merged {
            was_prefetch,
            first_demand,
        }
    }

    /// Completes a miss, removing and returning its entry; its waiters
    /// are then [`MshrFile::completed_waiters`].
    ///
    /// # Panics
    ///
    /// Panics if no entry exists for `line`.
    pub fn complete(&mut self, line: LineAddr) -> MshrEntry {
        self.try_complete(line)
            .expect("completed line must have an MSHR entry")
    }

    /// Completes a miss if an entry exists. Fault injection can deliver
    /// a fill twice (or a recovered fill after the original straggles
    /// in); the second arrival finds no entry and must not panic.
    pub fn try_complete(&mut self, line: LineAddr) -> Option<MshrEntry> {
        let i = self.index.remove(&line)? as usize;
        let m = self.merge_capacity;
        let start = i * m;
        self.completed.clear();
        self.completed
            .extend_from_slice(&self.waiters[start..start + self.entries[i].waiters as usize]);
        let last = self.entries.len() - 1;
        if i < last {
            // The last entry moves into slot `i`: repoint its line and
            // move its waiter block along.
            let moved = self
                .index
                .get_mut(&self.entries[last].line)
                .expect("every entry is indexed");
            *moved = i as u32;
            self.waiters.copy_within(last * m..(last + 1) * m, start);
        }
        self.waiters.truncate(last * m);
        Some(self.entries.swap_remove(i))
    }

    /// The waiters of the entry most recently removed by
    /// [`MshrFile::try_complete`], in merge order.
    pub fn completed_waiters(&self) -> &[WarpId] {
        &self.completed
    }

    /// Configured entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over all outstanding entries, in no particular order
    /// (auditing, timeout recovery).
    pub fn iter(&self) -> impl Iterator<Item = &MshrEntry> {
        self.entries.iter()
    }

    /// Records a timeout-recovery reissue of `line`'s miss at `now`,
    /// consuming one retry. Returns `false` when `line` has no entry.
    /// (Entries are only ever changed through the file: their line and
    /// waiter count locate them in its storage.)
    pub fn reissue(&mut self, line: LineAddr, now: Cycle) -> bool {
        let Some(i) = self.slot(line) else {
            return false;
        };
        let entry = &mut self.entries[i];
        entry.retries += 1;
        entry.last_issue = now;
        true
    }

    /// Serializes every outstanding entry for a checkpoint. Entries
    /// are written in ascending line order so the encoding is
    /// independent of where each entry sits in storage — the
    /// byte-stability the kill-anywhere guarantee needs.
    pub fn save_state(&self) -> Value {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by_key(|&i| self.entries[i].line);
        let entries = order
            .into_iter()
            .map(|i| {
                let e = &self.entries[i];
                Value::obj(vec![
                    ("line".into(), Value::u64(e.line.0)),
                    (
                        "origin".into(),
                        Value::u64(match e.origin {
                            MissOrigin::Demand => 0,
                            MissOrigin::Prefetch => 1,
                        }),
                    ),
                    (
                        "waiters".into(),
                        Value::Arr(
                            self.block(i)
                                .iter()
                                .map(|w| Value::u64(u64::from(w.0)))
                                .collect(),
                        ),
                    ),
                    ("demand_merged".into(), Value::Bool(e.demand_merged)),
                    ("requests".into(), Value::u64(u64::from(e.requests))),
                    ("alloc_cycle".into(), Value::u64(e.alloc_cycle.0)),
                    ("last_issue".into(), Value::u64(e.last_issue.0)),
                    ("retries".into(), Value::u64(u64::from(e.retries))),
                ])
            })
            .collect();
        Value::obj(vec![("entries".into(), Value::Arr(entries))])
    }

    /// Restores the outstanding entries from [`save_state`]
    /// (capacities are config-derived and kept). Storage is sized by
    /// the restored entries, not by the capacity.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a mistyped entry, more entries
    /// than this file's capacity, more requests than its merge
    /// capacity, more waiters than requests, or entries out of
    /// ascending line order.
    ///
    /// [`save_state`]: MshrFile::save_state
    pub fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        let saved = snapshot::arr_field(v, "entries")?;
        if saved.len() > self.capacity {
            return Err(SnapshotError::malformed(format!(
                "checkpoint has {} MSHR entries, capacity is {}",
                saved.len(),
                self.capacity
            )));
        }
        let m = self.merge_capacity;
        let mut entries: Vec<MshrEntry> = Vec::with_capacity(saved.len());
        let mut waiters = Vec::with_capacity(saved.len() * m);
        for e in saved {
            let line = LineAddr(snapshot::u64_field(e, "line")?);
            let origin = match snapshot::u64_field(e, "origin")? {
                0 => MissOrigin::Demand,
                1 => MissOrigin::Prefetch,
                _ => return Err(SnapshotError::malformed("bad MSHR origin")),
            };
            let requests = snapshot::u32_field(e, "requests")?;
            if requests as usize > m {
                return Err(SnapshotError::malformed(format!(
                    "MSHR entry has {requests} requests, merge capacity is {m}"
                )));
            }
            // Every waiter is one of the requests, so a block of `m`
            // slots always has room for the next merge.
            let listed = snapshot::arr_field(e, "waiters")?;
            if listed.len() > requests as usize {
                return Err(SnapshotError::malformed(format!(
                    "MSHR entry has {} waiters but {requests} requests",
                    listed.len()
                )));
            }
            for w in listed {
                waiters.push(
                    w.as_u32()
                        .map(WarpId)
                        .ok_or_else(|| SnapshotError::malformed("bad MSHR waiter"))?,
                );
            }
            waiters.resize((entries.len() + 1) * m, WarpId(0));
            if entries.last().is_some_and(|last| last.line >= line) {
                return Err(SnapshotError::malformed(
                    "MSHR entries are not in ascending line order",
                ));
            }
            entries.push(MshrEntry {
                line,
                origin,
                waiters: listed.len() as u32,
                demand_merged: snapshot::bool_field(e, "demand_merged")?,
                requests,
                alloc_cycle: Cycle(snapshot::u64_field(e, "alloc_cycle")?),
                last_issue: Cycle(snapshot::u64_field(e, "last_issue")?),
                retries: snapshot::u32_field(e, "retries")?,
            });
        }
        let mut index =
            HashMap::with_capacity_and_hasher(2 * entries.capacity(), Default::default());
        for (i, e) in entries.iter().enumerate() {
            index.insert(e.line, i as u32);
        }
        self.index = index;
        self.entries = entries;
        self.waiters = waiters;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_complete() {
        let mut m = MshrFile::new(2, 3);
        assert!(m.is_empty());
        m.allocate(LineAddr(1), MissOrigin::Demand, Some(WarpId(0)), Cycle(0));
        assert_eq!(m.len(), 1);
        assert!(m.get(LineAddr(1)).is_some());
        assert_eq!(
            m.merge_demand(LineAddr(1), WarpId(1)),
            MergeResult::Merged {
                was_prefetch: false,
                first_demand: false
            }
        );
        assert_eq!(
            m.merge_demand(LineAddr(1), WarpId(2)),
            MergeResult::Merged {
                was_prefetch: false,
                first_demand: false
            }
        );
        // merge capacity 3 = allocator + 2 merges.
        assert_eq!(m.merge_demand(LineAddr(1), WarpId(3)), MergeResult::Full);
        assert_eq!(m.waiters(LineAddr(1)), [WarpId(0), WarpId(1), WarpId(2)]);
        let e = m.complete(LineAddr(1));
        assert_eq!(e.waiters, 3);
        assert_eq!(m.completed_waiters(), [WarpId(0), WarpId(1), WarpId(2)]);
        assert!(m.is_empty());
    }

    #[test]
    fn entry_capacity() {
        let mut m = MshrFile::new(1, 8);
        m.allocate(LineAddr(1), MissOrigin::Demand, Some(WarpId(0)), Cycle(0));
        assert!(!m.has_free_entry());
        assert_eq!(m.capacity(), 1);
    }

    #[test]
    fn try_complete_tolerates_missing_entry() {
        let mut m = MshrFile::new(2, 8);
        assert!(m.try_complete(LineAddr(1)).is_none());
        m.allocate(LineAddr(1), MissOrigin::Demand, Some(WarpId(0)), Cycle(0));
        assert!(m.try_complete(LineAddr(1)).is_some());
        assert!(m.try_complete(LineAddr(1)).is_none(), "duplicate fill");
    }

    #[test]
    fn retry_bookkeeping_starts_at_allocation() {
        let mut m = MshrFile::new(1, 8);
        m.allocate(LineAddr(3), MissOrigin::Demand, Some(WarpId(0)), Cycle(17));
        let e = m.get(LineAddr(3)).unwrap();
        assert_eq!(e.last_issue, Cycle(17));
        assert_eq!(e.retries, 0);
        assert!(m.reissue(LineAddr(3), Cycle(40)));
        assert!(!m.reissue(LineAddr(4), Cycle(40)));
        assert_eq!(m.iter().count(), 1);
        let e = m.get(LineAddr(3)).unwrap();
        assert_eq!((e.retries, e.last_issue), (1, Cycle(40)));
    }

    #[test]
    fn prefetch_merge_is_flagged_once() {
        let mut m = MshrFile::new(1, 8);
        m.allocate(LineAddr(7), MissOrigin::Prefetch, None, Cycle(0));
        assert_eq!(
            m.merge_demand(LineAddr(7), WarpId(4)),
            MergeResult::Merged {
                was_prefetch: true,
                first_demand: true
            }
        );
        // Later merges are still covered, but the prefetch is counted
        // late only once.
        assert_eq!(
            m.merge_demand(LineAddr(7), WarpId(5)),
            MergeResult::Merged {
                was_prefetch: true,
                first_demand: false
            }
        );
        let e = m.complete(LineAddr(7));
        assert!(e.demand_merged);
        assert_eq!(e.origin, MissOrigin::Prefetch);
    }

    #[test]
    fn slot_storage_matches_a_map_model() {
        use std::collections::BTreeMap;
        // Lines from a small, strided range so probe runs collide and
        // wrap; entries churn through growth, completion and restore.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut m = MshrFile::new(48, 3);
        let mut model: BTreeMap<LineAddr, Vec<WarpId>> = BTreeMap::new();
        for step in 0..20_000u64 {
            let line = LineAddr(next(64) << 7);
            let warp = WarpId(next(1000) as u32);
            match next(3) {
                0 | 1 if model.contains_key(&line) => {
                    let waiters = model.get_mut(&line).unwrap();
                    let full = waiters.len() >= 3;
                    let merged = m.merge_demand(line, warp) != MergeResult::Full;
                    assert_eq!(merged, !full, "step {step}");
                    if merged {
                        waiters.push(warp);
                    }
                }
                0 | 1 if m.has_free_entry() => {
                    m.allocate(line, MissOrigin::Demand, Some(warp), Cycle(step));
                    model.insert(line, vec![warp]);
                }
                _ => {
                    let done = m.try_complete(line);
                    assert_eq!(done.is_some(), model.contains_key(&line), "step {step}");
                    if let Some(waiters) = model.remove(&line) {
                        assert_eq!(m.completed_waiters(), waiters, "step {step}");
                    }
                }
            }
            if step % 997 == 0 {
                let mut restored = MshrFile::new(48, 3);
                restored.restore_state(&m.save_state()).unwrap();
                assert_eq!(restored.save_state(), m.save_state());
                m = restored;
            }
            assert_eq!(m.len(), model.len());
            for (&line, waiters) in &model {
                assert_eq!(m.waiters(line), waiters, "step {step}");
            }
        }
    }

    #[test]
    fn storage_grows_with_live_misses_not_capacity() {
        let mut m = MshrFile::new(512, 8);
        assert_eq!(m.entries.capacity() + m.waiters.capacity(), 0);
        assert_eq!(m.index.capacity(), 0);
        for i in 0..5 {
            m.allocate(LineAddr(i), MissOrigin::Demand, Some(WarpId(0)), Cycle(0));
        }
        assert!(m.entries.capacity() < 16);
        assert_eq!(m.waiters.capacity(), m.entries.capacity() * 8);
        // Churn through many distinct lines without passing that peak:
        // no storage grows, the index included.
        let caps = (
            m.entries.capacity(),
            m.waiters.capacity(),
            m.index.capacity(),
        );
        for i in 5..100_000 {
            m.complete(LineAddr(i - 5));
            m.allocate(LineAddr(i), MissOrigin::Demand, Some(WarpId(0)), Cycle(0));
        }
        assert_eq!(
            (
                m.entries.capacity(),
                m.waiters.capacity(),
                m.index.capacity()
            ),
            caps
        );
    }

    #[test]
    fn restore_rejects_unordered_or_overfull_entries() {
        let entry_with = |line: u64, waiters: &str, requests: u32| {
            format!(
                "{{\"line\":{line},\"origin\":0,\"waiters\":[{waiters}],\"demand_merged\":false,\
                 \"requests\":{requests},\"alloc_cycle\":0,\"last_issue\":0,\"retries\":0}}"
            )
        };
        let entry = |line: u64, waiters: &str| entry_with(line, waiters, 1);
        let restore = |entries: &[String]| {
            let doc = format!("{{\"entries\":[{}]}}", entries.join(","));
            MshrFile::new(4, 2).restore_state(&crate::json::parse(&doc).unwrap())
        };
        assert!(restore(&[entry(1, "0"), entry(2, "1")]).is_ok());
        assert!(
            restore(&[entry(2, "1"), entry(1, "0")]).is_err(),
            "out of order"
        );
        assert!(
            restore(&[entry(1, "0"), entry(1, "1")]).is_err(),
            "line twice"
        );
        assert!(
            restore(&[entry(1, "0,5,6")]).is_err(),
            "over merge capacity"
        );
        assert!(restore(&[entry_with(1, "0,5", 2)]).is_ok());
        assert!(
            restore(&[entry_with(1, "0,5", 1), entry(2, "1")]).is_err(),
            "more waiters than requests"
        );
        assert!(
            restore(&[entry_with(1, "0", 3)]).is_err(),
            "more requests than merge capacity"
        );
    }
}
