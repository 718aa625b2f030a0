//! Set-associative tag array with per-line state, LRU, and the
//! demand/prefetch side flag used by Snake's decoupled unified cache.

use std::borrow::Cow;

use crate::config::CacheGeometry;
use crate::json::Value;
use crate::snapshot::{self, SnapshotError};
use crate::types::{Cycle, LineAddr};

/// Allocation state of a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Empty.
    Invalid,
    /// Allocated for an in-flight miss; data not yet arrived.
    Reserved,
    /// Holds valid data.
    Valid,
}

/// Which logical partition of the unified SRAM a line belongs to.
///
/// The paper's decoupling is "not a physical movement but the
/// alteration of the corresponding flag" (§3.2) — exactly this flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Ordinary demand (L1) data.
    Demand,
    /// Prefetched data not yet consumed by a demand access.
    Prefetch,
}

/// One cache line's bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct Line {
    /// Line-granular address tag (full address; sets are recomputed).
    pub tag: LineAddr,
    /// Allocation state.
    pub state: LineState,
    /// Demand/prefetch side flag.
    pub side: Side,
    /// Last touch, for LRU.
    pub last_use: Cycle,
    /// Cycle the line's data arrived (fills) or was allocated.
    pub fill_cycle: Cycle,
    /// For prefetch-side lines: whether a demand access ever hit it.
    pub used: bool,
    /// Sticky: the line's data was brought in by a prefetch (survives
    /// the transfer to the demand side). Coverage accounting counts
    /// every demand hit on such lines as a correctly predicted address.
    pub origin_prefetch: bool,
}

impl Line {
    fn invalid() -> Self {
        Line {
            tag: LineAddr(0),
            state: LineState::Invalid,
            side: Side::Demand,
            last_use: Cycle::ZERO,
            fill_cycle: Cycle::ZERO,
            used: false,
            origin_prefetch: false,
        }
    }
}

/// Result of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Way(pub(crate) usize);

/// A set-associative tag array.
///
/// `L2` and the unified L1 share this structure; the L1 additionally
/// drives the [`Side`] flags and occupancy counters.
#[derive(Debug, Clone)]
pub struct TagArray {
    sets: u32,
    ways: u32,
    lines: Vec<Line>,
    valid: u32,
    valid_prefetch: u32,
    reserved: u32,
}

impl TagArray {
    /// Builds an empty array for `usable_lines` lines with the given
    /// associativity. The set count is `usable_lines / ways` and must
    /// be a power of two.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn new(usable_lines: u32, ways: u32) -> Self {
        assert!(ways > 0 && usable_lines >= ways);
        assert_eq!(usable_lines % ways, 0, "lines must divide into sets");
        let sets = usable_lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        TagArray {
            sets,
            ways,
            lines: vec![Line::invalid(); usable_lines as usize],
            valid: 0,
            valid_prefetch: 0,
            reserved: 0,
        }
    }

    /// Builds an array from a [`CacheGeometry`], reduced by a
    /// carve-out (bytes removed from the top, e.g. shared memory).
    pub fn from_geometry(geom: &CacheGeometry, carveout_bytes: u32) -> Self {
        let usable = (geom.capacity_bytes - carveout_bytes) / geom.line_bytes;
        // Shrink ways to keep the set count: carve-out removes ways,
        // matching how Volta's carve-out reduces associativity.
        let ways = (usable / geom.sets()).max(1);
        let usable = ways * geom.sets();
        TagArray::new(usable, ways)
    }

    /// Number of lines.
    pub fn capacity(&self) -> u32 {
        self.lines.len() as u32
    }

    /// Lines currently invalid.
    pub fn free_lines(&self) -> u32 {
        self.capacity() - self.valid - self.reserved
    }

    /// Valid lines on the prefetch side.
    pub fn prefetch_lines(&self) -> u32 {
        self.valid_prefetch
    }

    /// Valid lines on the demand side.
    pub fn demand_lines(&self) -> u32 {
        self.valid - self.valid_prefetch
    }

    /// Lines reserved for in-flight misses.
    pub fn reserved_lines(&self) -> u32 {
        self.reserved
    }

    fn set_of(&self, addr: LineAddr) -> usize {
        (addr.0 % u64::from(self.sets)) as usize
    }

    fn set_range(&self, addr: LineAddr) -> std::ops::Range<usize> {
        let s = self.set_of(addr) * self.ways as usize;
        s..s + self.ways as usize
    }

    /// Finds the way holding `addr`, if present (any state but Invalid).
    pub fn probe(&self, addr: LineAddr) -> Option<Way> {
        self.set_range(addr)
            .find(|&i| self.lines[i].state != LineState::Invalid && self.lines[i].tag == addr)
            .map(Way)
    }

    /// Immutable view of a line.
    pub fn line(&self, way: Way) -> &Line {
        &self.lines[way.0]
    }

    /// Touches a line for LRU and marks prefetch-side usage.
    pub fn touch(&mut self, way: Way, now: Cycle) {
        let l = &mut self.lines[way.0];
        l.last_use = now;
    }

    /// Flips a prefetch-side line to the demand side (the §3.2
    /// "transfer" on a demand hit) and marks it used.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line is not a valid prefetch-side line.
    pub fn transfer_to_demand(&mut self, way: Way, now: Cycle) {
        let l = &mut self.lines[way.0];
        debug_assert_eq!(l.state, LineState::Valid);
        debug_assert_eq!(l.side, Side::Prefetch);
        l.side = Side::Demand;
        l.used = true;
        l.last_use = now;
        self.valid_prefetch -= 1;
    }

    /// Selects a victim way in `addr`'s set: an invalid way if any,
    /// otherwise the LRU *valid* way passing `allow` (reserved ways are
    /// never victims). Returns `None` if nothing is evictable.
    pub fn find_victim<F>(&self, addr: LineAddr, allow: F) -> Option<Way>
    where
        F: Fn(&Line) -> bool,
    {
        let mut best: Option<(usize, Cycle)> = None;
        for i in self.set_range(addr) {
            match self.lines[i].state {
                LineState::Invalid => return Some(Way(i)),
                LineState::Reserved => continue,
                LineState::Valid => {
                    if allow(&self.lines[i]) {
                        let lu = self.lines[i].last_use;
                        if best.is_none_or(|(_, b)| lu < b) {
                            best = Some((i, lu));
                        }
                    }
                }
            }
        }
        best.map(|(i, _)| Way(i))
    }

    /// Like [`TagArray::find_victim`] but never returns an invalid way:
    /// used to *force* replacement within a partition (the decoupled
    /// L1's 50% demand cap must not expand into free space).
    pub fn find_lru_valid<F>(&self, addr: LineAddr, allow: F) -> Option<Way>
    where
        F: Fn(&Line) -> bool,
    {
        let mut best: Option<(usize, Cycle)> = None;
        for i in self.set_range(addr) {
            if self.lines[i].state == LineState::Valid && allow(&self.lines[i]) {
                let lu = self.lines[i].last_use;
                if best.is_none_or(|(_, b)| lu < b) {
                    best = Some((i, lu));
                }
            }
        }
        best.map(|(i, _)| Way(i))
    }

    /// Evicts (invalidates) a line, returning its bookkeeping for the
    /// caller's statistics.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line is reserved — in-flight lines cannot
    /// be evicted.
    pub fn evict(&mut self, way: Way) -> Line {
        let l = self.lines[way.0];
        debug_assert_ne!(l.state, LineState::Reserved);
        if l.state == LineState::Valid {
            self.valid -= 1;
            if l.side == Side::Prefetch {
                self.valid_prefetch -= 1;
            }
        }
        self.lines[way.0] = Line::invalid();
        l
    }

    /// Reserves a (previously invalid) way for an in-flight miss.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the way is not invalid.
    pub fn reserve(&mut self, way: Way, addr: LineAddr, side: Side, now: Cycle) {
        let l = &mut self.lines[way.0];
        debug_assert_eq!(l.state, LineState::Invalid);
        *l = Line {
            tag: addr,
            state: LineState::Reserved,
            side,
            last_use: now,
            fill_cycle: now,
            used: false,
            origin_prefetch: side == Side::Prefetch,
        };
        self.reserved += 1;
    }

    /// Changes the side of a reserved line (a demand merging into an
    /// in-flight prefetch promotes it to the demand side on arrival).
    pub fn set_reserved_side(&mut self, way: Way, side: Side) {
        debug_assert_eq!(self.lines[way.0].state, LineState::Reserved);
        self.lines[way.0].side = side;
    }

    /// Completes a reserved line's fill.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line is not reserved.
    pub fn fill(&mut self, way: Way, now: Cycle) {
        let l = &mut self.lines[way.0];
        debug_assert_eq!(l.state, LineState::Reserved);
        l.state = LineState::Valid;
        l.fill_cycle = now;
        l.last_use = now;
        self.reserved -= 1;
        self.valid += 1;
        if l.side == Side::Prefetch {
            self.valid_prefetch += 1;
        }
    }

    /// Bulk-evicts the LRU `count` valid lines of `side`, returning the
    /// evicted lines (the §3.2 "free 25% of the unified cache" rule).
    pub fn bulk_evict_lru(&mut self, side: Side, count: u32) -> Vec<Line> {
        let mut candidates: Vec<usize> = (0..self.lines.len())
            .filter(|&i| self.lines[i].state == LineState::Valid && self.lines[i].side == side)
            .collect();
        candidates.sort_by_key(|&i| self.lines[i].last_use);
        candidates.truncate(count as usize);
        candidates.into_iter().map(|i| self.evict(Way(i))).collect()
    }

    /// Iterates over all valid lines (testing/diagnostics).
    pub fn iter_valid(&self) -> impl Iterator<Item = &Line> {
        self.lines.iter().filter(|l| l.state == LineState::Valid)
    }

    /// Serializes every line for a checkpoint: `{"lines":[row,…]}`
    /// with one `[tag,state,side,last_use,fill_cycle,used,origin]` row
    /// per line, written straight into one [`Value::Raw`] fragment.
    /// The rows are most of a checkpoint's text, so they never become
    /// a tree: [`snapshot::thaw`] keeps every `"lines"` entry as a
    /// fragment too. The geometry and the occupancy counters are not
    /// captured: geometry comes from the config, counters are
    /// recomputed from the lines on restore.
    pub fn save_state(&self) -> Value {
        let mut rows = String::with_capacity(self.lines.len() * 24 + 2);
        rows.push('[');
        for (i, l) in self.lines.iter().enumerate() {
            if i > 0 {
                rows.push(',');
            }
            let state = match l.state {
                LineState::Invalid => 0,
                LineState::Reserved => 1,
                LineState::Valid => 2,
            };
            let side = match l.side {
                Side::Demand => 0,
                Side::Prefetch => 1,
            };
            rows.push('[');
            for n in [l.tag.0, state, side, l.last_use.0, l.fill_cycle.0] {
                push_u64(&mut rows, n);
                rows.push(',');
            }
            rows.push_str(if l.used { "true," } else { "false," });
            rows.push_str(if l.origin_prefetch { "true]" } else { "false]" });
        }
        rows.push(']');
        Value::obj(vec![(ROWS_KEY.into(), Value::Raw(rows.into()))])
    }

    /// Restores every line from [`save_state`] and recomputes the
    /// occupancy counters. The rows are scanned from the state's text:
    /// a fragment is read in place, a tree is rendered first.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when the line count does not match
    /// this array's geometry or a line entry is mistyped.
    ///
    /// [`save_state`]: TagArray::save_state
    pub fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        let rows = match snapshot::field(v, ROWS_KEY)? {
            Value::Raw(text) => Cow::Borrowed(&**text),
            tree => Cow::Owned(tree.to_string()),
        };
        let restored = scan_rows(&rows, self.lines.len())
            .ok_or_else(|| SnapshotError::malformed("bad tag-array line entry"))?;
        if restored.len() != self.lines.len() {
            return Err(SnapshotError::malformed(format!(
                "tag array has {} lines, checkpoint has {}",
                self.lines.len(),
                restored.len()
            )));
        }
        self.lines = restored;
        self.valid = self
            .lines
            .iter()
            .filter(|l| l.state == LineState::Valid)
            .count() as u32;
        self.valid_prefetch = self
            .lines
            .iter()
            .filter(|l| l.state == LineState::Valid && l.side == Side::Prefetch)
            .count() as u32;
        self.reserved = self
            .lines
            .iter()
            .filter(|l| l.state == LineState::Reserved)
            .count() as u32;
        Ok(())
    }
}

/// The key of a tag array's row array in its checkpoint state.
pub(crate) const ROWS_KEY: &str = "lines";

/// Appends `n` in decimal, as [`Value::u64`] renders it.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
}

/// Decodes the compact text of [`TagArray::save_state`]'s row array,
/// `None` on anything else. An integer field accepts what
/// [`Value::as_u64`] accepts of a plain digit run.
fn scan_rows(text: &str, expect: usize) -> Option<Vec<Line>> {
    fn eat(rest: &mut &[u8], want: &[u8]) -> Option<()> {
        *rest = rest.strip_prefix(want)?;
        Some(())
    }
    fn num(rest: &mut &[u8]) -> Option<u64> {
        let len = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        let (digits, tail) = rest.split_at(len);
        *rest = tail;
        std::str::from_utf8(digits).ok()?.parse().ok()
    }
    fn flag(rest: &mut &[u8]) -> Option<bool> {
        match eat(rest, b"true") {
            Some(()) => Some(true),
            None => eat(rest, b"false").map(|()| false),
        }
    }
    let mut rest = text.as_bytes();
    let mut lines = Vec::with_capacity(expect);
    eat(&mut rest, b"[")?;
    if eat(&mut rest, b"]").is_none() {
        loop {
            eat(&mut rest, b"[")?;
            let mut n = [0u64; 5];
            for field in &mut n {
                *field = num(&mut rest)?;
                eat(&mut rest, b",")?;
            }
            let used = flag(&mut rest)?;
            eat(&mut rest, b",")?;
            let origin_prefetch = flag(&mut rest)?;
            eat(&mut rest, b"]")?;
            lines.push(Line {
                tag: LineAddr(n[0]),
                state: match n[1] {
                    0 => LineState::Invalid,
                    1 => LineState::Reserved,
                    2 => LineState::Valid,
                    _ => return None,
                },
                side: match n[2] {
                    0 => Side::Demand,
                    1 => Side::Prefetch,
                    _ => return None,
                },
                last_use: Cycle(n[3]),
                fill_cycle: Cycle(n[4]),
                used,
                origin_prefetch,
            });
            if eat(&mut rest, b",").is_none() {
                eat(&mut rest, b"]")?;
                break;
            }
        }
    }
    rest.is_empty().then_some(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> TagArray {
        TagArray::new(8, 2) // 4 sets x 2 ways
    }

    #[test]
    fn reserve_fill_probe_evict_roundtrip() {
        let mut t = arr();
        let a = LineAddr(4); // set 0
        assert!(t.probe(a).is_none());
        let w = t.find_victim(a, |_| true).unwrap();
        t.reserve(w, a, Side::Demand, Cycle(1));
        assert_eq!(t.reserved_lines(), 1);
        assert_eq!(t.line(t.probe(a).unwrap()).state, LineState::Reserved);
        t.fill(w, Cycle(5));
        assert_eq!(t.reserved_lines(), 0);
        assert_eq!(t.free_lines(), 7);
        let l = t.evict(t.probe(a).unwrap());
        assert_eq!(l.tag, a);
        assert_eq!(t.free_lines(), 8);
    }

    #[test]
    fn victim_is_lru_valid() {
        let mut t = arr();
        // Fill both ways of set 1 (addrs 1 and 5).
        for (addr, cy) in [(1u64, 10u64), (5, 20)] {
            let a = LineAddr(addr);
            let w = t.find_victim(a, |_| true).unwrap();
            t.reserve(w, a, Side::Demand, Cycle(cy));
            t.fill(w, Cycle(cy));
        }
        // LRU is addr 1.
        let v = t.find_victim(LineAddr(9), |_| true).unwrap();
        assert_eq!(t.line(v).tag, LineAddr(1));
        // Touch addr 1; now addr 5 is LRU.
        let w1 = t.probe(LineAddr(1)).unwrap();
        t.touch(w1, Cycle(30));
        let v = t.find_victim(LineAddr(9), |_| true).unwrap();
        assert_eq!(t.line(v).tag, LineAddr(5));
    }

    #[test]
    fn reserved_lines_are_not_victims() {
        let mut t = TagArray::new(2, 2); // 1 set x 2 ways
        for addr in [0u64, 1] {
            let a = LineAddr(addr);
            let w = t.find_victim(a, |_| true).unwrap();
            t.reserve(w, a, Side::Demand, Cycle(0));
        }
        assert!(t.find_victim(LineAddr(2), |_| true).is_none());
    }

    #[test]
    fn side_counters_and_transfer() {
        let mut t = arr();
        let a = LineAddr(2);
        let w = t.find_victim(a, |_| true).unwrap();
        t.reserve(w, a, Side::Prefetch, Cycle(0));
        t.fill(w, Cycle(3));
        assert_eq!(t.prefetch_lines(), 1);
        assert_eq!(t.demand_lines(), 0);
        t.transfer_to_demand(t.probe(a).unwrap(), Cycle(4));
        assert_eq!(t.prefetch_lines(), 0);
        assert_eq!(t.demand_lines(), 1);
        assert!(t.line(t.probe(a).unwrap()).used);
    }

    #[test]
    fn victim_filter_respects_side() {
        let mut t = TagArray::new(2, 2);
        for (addr, side) in [(0u64, Side::Demand), (1, Side::Prefetch)] {
            let a = LineAddr(addr);
            let w = t.find_victim(a, |_| true).unwrap();
            t.reserve(w, a, side, Cycle(0));
            t.fill(w, Cycle(0));
        }
        let v = t
            .find_victim(LineAddr(2), |l| l.side == Side::Prefetch)
            .unwrap();
        assert_eq!(t.line(v).tag, LineAddr(1));
        assert!(t
            .find_victim(LineAddr(2), |l| l.side == Side::Prefetch && l.used)
            .is_none());
    }

    #[test]
    fn bulk_evict_takes_lru_of_side() {
        let mut t = TagArray::new(16, 4);
        for i in 0..8u64 {
            let a = LineAddr(i);
            let w = t.find_victim(a, |_| true).unwrap();
            let side = if i % 2 == 0 {
                Side::Prefetch
            } else {
                Side::Demand
            };
            t.reserve(w, a, side, Cycle(i));
            t.fill(w, Cycle(i));
        }
        let evicted = t.bulk_evict_lru(Side::Prefetch, 2);
        assert_eq!(evicted.len(), 2);
        // Oldest prefetch lines are addrs 0 and 2.
        let mut tags: Vec<u64> = evicted.iter().map(|l| l.tag.0).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 2]);
        assert_eq!(t.prefetch_lines(), 2);
    }

    fn occupied() -> TagArray {
        let mut t = arr();
        for (addr, side, fill) in [
            (4u64, Side::Demand, true),
            (9, Side::Prefetch, true),
            (6, Side::Prefetch, false),
        ] {
            let a = LineAddr(addr);
            let w = t.find_victim(a, |_| true).unwrap();
            t.reserve(w, a, side, Cycle(addr));
            if fill {
                t.fill(w, Cycle(addr + 100));
            }
        }
        t.transfer_to_demand(t.probe(LineAddr(9)).unwrap(), Cycle(200));
        t
    }

    #[test]
    fn rows_round_trip_from_a_fragment_and_from_a_tree() {
        let t = occupied();
        let saved = t.save_state();
        assert!(matches!(saved.get(ROWS_KEY), Some(Value::Raw(_))));
        let text = saved.to_string();
        assert!(
            text.starts_with(r#"{"lines":[[4,2,0,104,104,false,false],"#),
            "{text}"
        );
        for state in [
            saved.clone(),
            crate::json::parse(&text).unwrap(),
            snapshot::thaw(&Value::Raw(text.as_str().into()))
                .unwrap()
                .into_owned(),
        ] {
            let mut back = arr();
            back.restore_state(&state).unwrap();
            assert_eq!(back.save_state().to_string(), text);
            assert_eq!(
                (
                    back.free_lines(),
                    back.prefetch_lines(),
                    back.demand_lines(),
                    back.reserved_lines()
                ),
                (
                    t.free_lines(),
                    t.prefetch_lines(),
                    t.demand_lines(),
                    t.reserved_lines()
                )
            );
        }
    }

    #[test]
    fn malformed_rows_are_rejected() {
        let good = "[4,2,0,104,104,false,false]";
        let rows = |rows: &str| Value::obj(vec![(ROWS_KEY.into(), Value::Raw(rows.into()))]);
        let full = |row: &str| format!("[{}]", [row; 8].join(","));
        for bad in [
            String::new(),
            "[".into(),
            format!("[{good}"),
            format!("[{good},]"),
            format!("{}x", full(good)),
            full("[4,3,0,104,104,false,false]"),
            full("[4,2,2,104,104,false,false]"),
            full("[-4,2,0,104,104,false,false]"),
            full("[1e5,2,0,104,104,false,false]"),
            full("[18446744073709551616,2,0,104,104,false,false]"),
            full("[4,2,0,104,104,false]"),
            full("[4,2,0,104,104,0,false]"),
            full("[4,2,0,104,104,false,false,1]"),
        ] {
            let err = arr().restore_state(&rows(&bad)).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Malformed { .. }),
                "{bad}: {err}"
            );
        }
        let err = arr()
            .restore_state(&rows(&format!("[{good}]")))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("tag array has 8 lines, checkpoint has 1"),
            "{err}"
        );
        assert!(arr().restore_state(&rows(&full(good))).is_ok());
        assert!(arr().restore_state(&Value::u64(1)).is_err());
    }

    #[test]
    fn from_geometry_respects_carveout() {
        let g = CacheGeometry::new(16 * 1024, 128, 32); // 128 lines, 4 sets
        let full = TagArray::from_geometry(&g, 0);
        assert_eq!(full.capacity(), 128);
        let half = TagArray::from_geometry(&g, 8 * 1024);
        assert_eq!(half.capacity(), 64);
    }
}
