//! Candidate hops, virtual-channel ranges and per-packet routing state.

use hyperx_topology::SwitchId;
use serde::{Deserialize, Serialize};

/// A half-open range `[lo, hi)` of virtual channels a candidate may use.
///
/// The simulator's allocator picks the concrete VC inside the range (the one
/// with the most credits), which models adaptive VC selection among the
/// routing VCs of SurePath while still supporting the exact-VC requirement of
/// the Ladder policy (`lo + 1 == hi`). A port has at most 255 VCs, so both
/// ends fit a byte; the constructors check the narrowing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VcRange {
    /// First VC of the range.
    pub lo: u8,
    /// One past the last VC of the range.
    pub hi: u8,
}

impl VcRange {
    /// A single-VC range.
    ///
    /// # Panics
    /// Panics if `vc + 1` does not fit a byte.
    pub fn exact(vc: usize) -> Self {
        Self::span(vc, vc + 1)
    }

    /// A multi-VC range `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty or `hi` does not fit a byte.
    pub fn span(lo: usize, hi: usize) -> Self {
        assert!(lo < hi, "empty VC range");
        let hi = u8::try_from(hi).expect("a port has at most 255 VCs");
        VcRange { lo: lo as u8, hi }
    }

    /// Number of VCs in the range.
    pub fn len(&self) -> usize {
        usize::from(self.hi - self.lo)
    }

    /// Whether the range is empty (never true for ranges built with the constructors).
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// Whether `vc` belongs to the range.
    pub fn contains(&self, vc: usize) -> bool {
        vc >= usize::from(self.lo) && vc < usize::from(self.hi)
    }

    /// Iterates the VCs of the range.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        usize::from(self.lo)..usize::from(self.hi)
    }
}

/// What kind of hop a candidate represents; reported in statistics and used
/// to pick penalties.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CandidateKind {
    /// A hop on a shortest path (or the aligned hop of Omnidimensional).
    Minimal,
    /// A non-minimal hop offered by the routing algorithm.
    Deroute,
    /// An escape hop over an Up link of the escape subnetwork.
    EscapeUp,
    /// An escape hop over a Down link of the escape subnetwork.
    EscapeDown,
    /// An escape hop over an opportunistic horizontal shortcut.
    EscapeShortcut,
}

impl CandidateKind {
    /// Whether the hop travels on the escape subnetwork.
    pub fn is_escape(&self) -> bool {
        matches!(
            self,
            CandidateKind::EscapeUp | CandidateKind::EscapeDown | CandidateKind::EscapeShortcut
        )
    }
}

/// A next-hop candidate: the one representation routing algorithms write,
/// mechanisms hand out and the simulator caches per head packet.
///
/// Eight bytes: the port fits 16 bits because [`NetworkView`] checks the
/// radix, penalties are 16-bit constants (see [`crate::penalties`]) and
/// [`VcRange`] checks its ends.
///
/// [`NetworkView`]: crate::NetworkView
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Output port of the current switch.
    pub port: u16,
    /// Penalty in phits (paper §3: combined with queue occupancy `Q` as `Q + P`).
    pub penalty: u16,
    /// Virtual channels the packet may occupy at the next switch.
    pub vcs: VcRange,
    /// Classification of the hop.
    pub kind: CandidateKind,
}

const _: () = assert!(std::mem::size_of::<Candidate>() == 8);

impl Candidate {
    /// Whether taking this candidate moves (or keeps) the packet onto the escape subnetwork.
    pub fn enters_escape(&self) -> bool {
        self.kind.is_escape()
    }
}

/// Per-packet routing state. A single flat struct shared by every algorithm;
/// fields irrelevant to an algorithm simply stay at their defaults.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketState {
    /// Source switch.
    pub source: SwitchId,
    /// Destination switch.
    pub dest: SwitchId,
    /// Switch-to-switch hops taken so far.
    pub hops: u16,
    /// Minimal (aligned) hops taken so far (Omnidimensional bookkeeping).
    pub minimal_hops: u16,
    /// Non-minimal hops (deroutes) taken so far.
    pub deroutes: u16,
    /// Bitmask of dimensions already derouted in (DAL bookkeeping: DAL allows
    /// at most one deroute per unaligned dimension rather than a global budget).
    pub derouted_dims: u8,
    /// Whether the packet has entered the escape subnetwork (it never leaves it).
    pub in_escape: bool,
    /// Valiant's random intermediate switch (equals `dest` when unused or already reached).
    pub intermediate: SwitchId,
    /// Whether a Valiant packet is in its second phase (intermediate → destination).
    pub phase2: bool,
    /// Polarized's header bit: whether the current switch is closer to the source
    /// than to the destination (`d(c,s) < d(c,t)`).
    pub closer_to_source: bool,
}

impl PacketState {
    /// Fresh state for a packet from `source` to `dest` with no special fields.
    pub fn new(source: SwitchId, dest: SwitchId) -> Self {
        PacketState {
            source,
            dest,
            hops: 0,
            minimal_hops: 0,
            deroutes: 0,
            derouted_dims: 0,
            in_escape: false,
            intermediate: dest,
            phase2: true,
            closer_to_source: true,
        }
    }

    /// The switch the packet is currently steering towards: the Valiant
    /// intermediate during phase 1, the final destination otherwise.
    pub fn current_target(&self) -> SwitchId {
        if self.phase2 {
            self.dest
        } else {
            self.intermediate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_range_exact_and_span() {
        let e = VcRange::exact(3);
        assert_eq!(e.len(), 1);
        assert!(e.contains(3));
        assert!(!e.contains(4));
        let s = VcRange::span(0, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic]
    fn empty_span_rejected() {
        let _ = VcRange::span(2, 2);
    }

    #[test]
    fn candidate_kind_escape_flag() {
        assert!(!CandidateKind::Minimal.is_escape());
        assert!(!CandidateKind::Deroute.is_escape());
        assert!(CandidateKind::EscapeUp.is_escape());
        assert!(CandidateKind::EscapeDown.is_escape());
        assert!(CandidateKind::EscapeShortcut.is_escape());
    }

    #[test]
    fn packet_state_defaults() {
        let st = PacketState::new(3, 17);
        assert_eq!(st.source, 3);
        assert_eq!(st.dest, 17);
        assert_eq!(st.hops, 0);
        assert!(!st.in_escape);
        assert_eq!(st.current_target(), 17);
    }

    #[test]
    fn current_target_tracks_valiant_phase() {
        let mut st = PacketState::new(0, 9);
        st.intermediate = 5;
        st.phase2 = false;
        assert_eq!(st.current_target(), 5);
        st.phase2 = true;
        assert_eq!(st.current_target(), 9);
    }
}
