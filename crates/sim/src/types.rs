//! Small typed identifiers used throughout the simulator.
//!
//! The simulator moves a lot of raw integers around (addresses, program
//! counters, warp ids, cycle counts). Newtypes keep them from being
//! confused with one another (C-NEWTYPE) at zero runtime cost.

use std::fmt;

/// A byte address in the simulated global memory space.
///
/// # Examples
///
/// ```
/// use snake_sim::Address;
/// let a = Address::new(0x1000);
/// assert_eq!(a.line(128).0, 0x1000 / 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(pub u64);

impl Address {
    /// Creates an address from a raw byte offset.
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// Returns the raw byte offset.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache line this address falls in, for the given line size.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `line_size` is zero.
    pub fn line(self, line_size: u32) -> LineAddr {
        debug_assert!(line_size > 0, "line size must be non-zero");
        LineAddr(self.0 / u64::from(line_size))
    }

    /// Offsets the address by a signed byte stride, saturating at zero.
    pub fn offset(self, stride: i64) -> Address {
        Address(self.0.wrapping_add_signed(stride))
    }

    /// Signed byte distance `self - other`.
    pub fn stride_from(self, other: Address) -> i64 {
        self.0.wrapping_sub(other.0) as i64
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A cache-line-granular address (byte address divided by the line size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// First byte address of this line for the given line size.
    pub fn base(self, line_size: u32) -> Address {
        Address(self.0 * u64::from(line_size))
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Program counter of a (load) instruction.
///
/// The Snake tables are indexed by the PCs of load instructions
/// (`PC_ld` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(pub u32);

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc{}", self.0)
    }
}

impl From<u32> for Pc {
    fn from(raw: u32) -> Self {
        Pc(raw)
    }
}

/// Identifier of a warp within one SM (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WarpId(pub u32);

impl WarpId {
    /// Index usable for slices/bit-vectors.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WarpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Identifier of a cooperative thread array (thread block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CtaId(pub u32);

impl fmt::Display for CtaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cta{}", self.0)
    }
}

/// Identifier of a streaming multiprocessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SmId(pub u32);

impl fmt::Display for SmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sm{}", self.0)
    }
}

/// A simulation cycle count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero cycle.
    pub const ZERO: Cycle = Cycle(0);

    /// Cycle `n` after this one.
    pub fn plus(self, n: u64) -> Cycle {
        Cycle(self.0 + n)
    }

    /// Saturating distance from `earlier` to `self`.
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cy{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_line_mapping() {
        let a = Address::new(257);
        assert_eq!(a.line(128), LineAddr(2));
        assert_eq!(LineAddr(2).base(128), Address::new(256));
    }

    #[test]
    fn address_offset_and_stride() {
        let a = Address::new(1000);
        let b = a.offset(-400);
        assert_eq!(b, Address::new(600));
        assert_eq!(a.stride_from(b), 400);
        assert_eq!(b.stride_from(a), -400);
    }

    #[test]
    fn cycle_arithmetic() {
        let c = Cycle(10).plus(5);
        assert_eq!(c, Cycle(15));
        assert_eq!(c.since(Cycle(12)), 3);
        assert_eq!(Cycle(3).since(Cycle(12)), 0);
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert_eq!(Address::new(16).to_string(), "0x10");
        assert_eq!(Pc(4).to_string(), "pc4");
        assert_eq!(WarpId(7).to_string(), "w7");
        assert_eq!(Cycle(9).to_string(), "cy9");
        assert_eq!(LineAddr(1).to_string(), "L0x1");
        assert_eq!(CtaId(2).to_string(), "cta2");
        assert_eq!(SmId(3).to_string(), "sm3");
    }

    #[test]
    fn types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Address>();
        assert_send_sync::<Pc>();
        assert_send_sync::<WarpId>();
        assert_send_sync::<Cycle>();
    }
}
