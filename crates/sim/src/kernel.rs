//! Kernel traces: the input programs the simulator executes.
//!
//! The simulator is trace-driven, like Accel-Sim in the paper: a kernel
//! is a finite per-warp instruction stream. Loads carry the coalesced
//! base address of the warp's 32 threads (the paper keeps only the
//! first thread's address when the intra-warp stride is uniform —
//! §3.4); divergent loads carry multiple transactions.

use std::sync::Arc;

use crate::types::{Address, CtaId, Pc, WarpId};

/// One instruction in a warp's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// Compute work occupying the warp for the given number of cycles.
    Compute {
        /// Cycles the warp is busy.
        cycles: u32,
    },
    /// A global-memory load. The warp blocks until data returns.
    Load {
        /// Program counter of the load instruction (`PC_ld`).
        pc: Pc,
        /// Coalesced transaction addresses (usually one; more when the
        /// warp's threads diverge).
        addrs: AddrList,
    },
    /// A global-memory store. Fire-and-forget (write-through, no
    /// allocate); consumes interconnect bandwidth but does not block.
    Store {
        /// Program counter of the store instruction.
        pc: Pc,
        /// Coalesced transaction addresses.
        addrs: AddrList,
    },
}

impl Instr {
    /// Convenience constructor for a single-transaction load.
    pub fn load(pc: impl Into<Pc>, addr: impl Into<Address>) -> Self {
        Instr::Load {
            pc: pc.into(),
            addrs: AddrList::one(addr.into()),
        }
    }

    /// Convenience constructor for a single-transaction store.
    pub fn store(pc: impl Into<Pc>, addr: impl Into<Address>) -> Self {
        Instr::Store {
            pc: pc.into(),
            addrs: AddrList::one(addr.into()),
        }
    }

    /// Convenience constructor for compute work.
    pub fn compute(cycles: u32) -> Self {
        Instr::Compute { cycles }
    }

    /// Returns `true` for loads.
    pub fn is_load(&self) -> bool {
        matches!(self, Instr::Load { .. })
    }

    /// The transaction addresses of a load or store (`None` for
    /// compute).
    pub fn addrs(&self) -> Option<&AddrList> {
        match self {
            Instr::Load { addrs, .. } | Instr::Store { addrs, .. } => Some(addrs),
            Instr::Compute { .. } => None,
        }
    }
}

/// Transaction address list of a memory instruction.
///
/// Optimized for the common coalesced case (one address, no heap
/// allocation); divergent instructions spill to a boxed slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrList {
    /// A single coalesced transaction.
    One(Address),
    /// Multiple transactions (memory divergence).
    Many(Box<[Address]>),
}

impl AddrList {
    /// A single-transaction list.
    pub fn one(addr: Address) -> Self {
        AddrList::One(addr)
    }

    /// Builds a list from any number of addresses.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty: a memory instruction must access
    /// at least one address.
    pub fn from_vec(addrs: Vec<Address>) -> Self {
        assert!(!addrs.is_empty(), "memory instruction with no addresses");
        if addrs.len() == 1 {
            AddrList::One(addrs[0])
        } else {
            AddrList::Many(addrs.into_boxed_slice())
        }
    }

    /// The first (base) address — what the prefetcher trains on.
    pub fn base(&self) -> Address {
        match self {
            AddrList::One(a) => *a,
            AddrList::Many(v) => v[0],
        }
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        match self {
            AddrList::One(_) => 1,
            AddrList::Many(v) => v.len(),
        }
    }

    /// Always `false`; present for clippy/API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The transaction addresses, in issue order.
    pub fn as_slice(&self) -> &[Address] {
        match self {
            AddrList::One(a) => std::slice::from_ref(a),
            AddrList::Many(v) => v,
        }
    }

    /// Iterates over the transaction addresses.
    pub fn iter(&self) -> impl Iterator<Item = Address> + '_ {
        self.as_slice().iter().copied()
    }
}

impl From<Address> for AddrList {
    fn from(a: Address) -> Self {
        AddrList::One(a)
    }
}

/// The trace of a single warp: its CTA and instruction stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WarpTrace {
    /// CTA (thread block) this warp belongs to.
    pub cta: CtaId,
    /// The instruction stream, executed in order.
    pub instrs: Vec<Instr>,
}

impl WarpTrace {
    /// Creates a warp trace.
    pub fn new(cta: CtaId, instrs: Vec<Instr>) -> Self {
        WarpTrace { cta, instrs }
    }

    /// Number of load instructions in the trace.
    pub fn load_count(&self) -> usize {
        self.instrs.iter().filter(|i| i.is_load()).count()
    }
}

/// A full kernel trace: one [`WarpTrace`] per warp, plus metadata.
///
/// Warp `i` in `warps` has [`WarpId`]`(i)` when resident. The GPU
/// front-end assigns warps to SMs CTA-by-CTA, round-robin over SMs,
/// respecting `max_warps_per_sm`.
///
/// The warp traces are shared, not copied, between clones: every
/// device built from one trace reads the same instructions. (The
/// `Vec` is wrapped as is, so building a trace copies nothing.)
///
/// # Examples
///
/// ```
/// use snake_sim::{Instr, KernelTrace, WarpTrace, CtaId};
/// let warp = WarpTrace::new(CtaId(0), vec![Instr::load(0u32, 0u64), Instr::compute(4)]);
/// let k = KernelTrace::new("demo", vec![warp]);
/// assert_eq!(k.total_instrs(), 2);
/// assert_eq!(k.total_loads(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTrace {
    name: String,
    warps: Arc<Vec<WarpTrace>>,
}

impl KernelTrace {
    /// Creates a kernel trace.
    ///
    /// # Panics
    ///
    /// Panics if `warps` is empty.
    pub fn new(name: impl Into<String>, warps: Vec<WarpTrace>) -> Self {
        assert!(!warps.is_empty(), "kernel must have at least one warp");
        KernelTrace {
            name: name.into(),
            warps: Arc::new(warps),
        }
    }

    /// Kernel name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The per-warp traces.
    pub fn warps(&self) -> &[WarpTrace] {
        &self.warps
    }

    /// Number of warps.
    pub fn warp_count(&self) -> usize {
        self.warps.len()
    }

    /// Number of distinct CTAs.
    pub fn cta_count(&self) -> usize {
        let mut ctas: Vec<CtaId> = self.warps.iter().map(|w| w.cta).collect();
        ctas.sort_unstable();
        ctas.dedup();
        ctas.len()
    }

    /// Total instructions across all warps.
    pub fn total_instrs(&self) -> usize {
        self.warps.iter().map(|w| w.instrs.len()).sum()
    }

    /// Total load instructions across all warps.
    pub fn total_loads(&self) -> usize {
        self.warps.iter().map(|w| w.load_count()).sum()
    }

    /// The warp with the most load instructions — the paper's
    /// "representative warp" used in the Fig. 9/10 analyses.
    pub fn representative_warp(&self) -> (WarpId, &WarpTrace) {
        let (i, w) = self
            .warps
            .iter()
            .enumerate()
            .max_by_key(|(_, w)| w.load_count())
            .expect("kernel has at least one warp");
        (WarpId(i as u32), w)
    }

    /// Iterates over `(WarpId, &WarpTrace)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (WarpId, &WarpTrace)> {
        self.warps
            .iter()
            .enumerate()
            .map(|(i, w)| (WarpId(i as u32), w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(loads: usize) -> WarpTrace {
        let instrs = (0..loads)
            .map(|i| Instr::load(i as u32, (i * 128) as u64))
            .collect();
        WarpTrace::new(CtaId(0), instrs)
    }

    #[test]
    fn addrlist_one_vs_many() {
        let one = AddrList::from_vec(vec![Address(8)]);
        assert!(matches!(one, AddrList::One(_)));
        assert_eq!(one.len(), 1);
        assert_eq!(one.base(), Address(8));

        let many = AddrList::from_vec(vec![Address(8), Address(512)]);
        assert_eq!(many.len(), 2);
        assert_eq!(many.base(), Address(8));
        assert_eq!(many.iter().count(), 2);
        assert!(!many.is_empty());
    }

    #[test]
    #[should_panic(expected = "no addresses")]
    fn addrlist_rejects_empty() {
        let _ = AddrList::from_vec(vec![]);
    }

    #[test]
    fn representative_warp_is_max_loads() {
        let k = KernelTrace::new("k", vec![trace(2), trace(7), trace(3)]);
        let (wid, w) = k.representative_warp();
        assert_eq!(wid, WarpId(1));
        assert_eq!(w.load_count(), 7);
    }

    #[test]
    fn counts() {
        let mut w = trace(3);
        w.instrs.push(Instr::compute(10));
        w.instrs.push(Instr::store(99u32, 0u64));
        let k = KernelTrace::new("k", vec![w]);
        assert_eq!(k.total_instrs(), 5);
        assert_eq!(k.total_loads(), 3);
        assert_eq!(k.cta_count(), 1);
        assert_eq!(k.warp_count(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one warp")]
    fn kernel_rejects_empty() {
        let _ = KernelTrace::new("k", vec![]);
    }
}
