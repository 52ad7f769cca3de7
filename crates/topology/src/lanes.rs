//! The word-parallel lanes of the all-pairs passes, and the tables they
//! write.
//!
//! [`DistanceMatrix::compute`](crate::DistanceMatrix::compute) and the
//! Up/Down table of [`UpDownEscape`](crate::UpDownEscape) both run their
//! sources (or destinations) in batches of [`WIDTH`], one bit each, so one
//! word operation on a switch's [`Lanes`] advances the whole batch. Each
//! pass also keeps a count per lane at every switch, held as bit planes
//! ([`LevelCounts`]), from which it writes the switch's row segment once.
//!
//! Both tables are a [`HopTable`]: one byte per entry when every finite
//! entry fits in [`NARROW_MAX`], which the caller bounds before the table
//! is allocated, and two bytes otherwise. Every reader goes through
//! [`HopRow`], which yields `u16`s with [`UNREACHABLE`] whatever the width,
//! or, for readers that only subtract and compare the entries of a live
//! link's two ends, the stored entries unwidened.

use crate::bfs::UNREACHABLE;
use std::ops::{BitAnd, BitOr, BitOrAssign, BitXor};

/// Sources (or destinations) per batch: one bit of a [`Lanes`] each.
pub(crate) const WIDTH: usize = 256;

/// One bit per source of a batch of up to [`WIDTH`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Lanes([u64; 4]);

impl Lanes {
    /// No lane set.
    pub(crate) const ZERO: Lanes = Lanes([0; 4]);

    /// Lanes `0..count` set.
    pub(crate) fn first(count: usize) -> Self {
        (0..count).fold(Lanes::ZERO, |lanes, i| lanes | Lanes::single(i))
    }

    /// Only lane `i` set.
    pub(crate) fn single(i: usize) -> Self {
        let mut lanes = Lanes::ZERO;
        lanes.0[i / 64] = 1 << (i % 64);
        lanes
    }

    /// Whether no lane is set.
    #[inline]
    pub(crate) fn is_zero(self) -> bool {
        self == Lanes::ZERO
    }

    /// The lanes of `self` not set in `other`.
    #[inline]
    pub(crate) fn and_not(self, other: Lanes) -> Self {
        Lanes(std::array::from_fn(|w| self.0[w] & !other.0[w]))
    }

    /// The set lanes, in increasing order.
    pub(crate) fn ones(self) -> impl Iterator<Item = usize> {
        self.0.into_iter().enumerate().flat_map(|(w, mut word)| {
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

impl BitOr for Lanes {
    type Output = Lanes;

    #[inline]
    fn bitor(self, other: Lanes) -> Lanes {
        Lanes(std::array::from_fn(|w| self.0[w] | other.0[w]))
    }
}

impl BitOrAssign for Lanes {
    #[inline]
    fn bitor_assign(&mut self, other: Lanes) {
        *self = *self | other;
    }
}

impl BitAnd for Lanes {
    type Output = Lanes;

    #[inline]
    fn bitand(self, other: Lanes) -> Lanes {
        Lanes(std::array::from_fn(|w| self.0[w] & other.0[w]))
    }
}

impl BitXor for Lanes {
    type Output = Lanes;

    #[inline]
    fn bitxor(self, other: Lanes) -> Lanes {
        Lanes(std::array::from_fn(|w| self.0[w] ^ other.0[w]))
    }
}

/// A bit-sliced count per lane at each of `n` switches.
///
/// Plane `k` holds bit `k` of every lane's count, so adding one to a set of
/// lanes is a ripple carry of word operations up the planes. A plane is
/// added when a carry first leaves the top one: a count that never exceeds
/// `c` takes `⌊log₂ c⌋ + 1` planes of `n` lanes each.
pub(crate) struct LevelCounts {
    n: usize,
    /// `planes[k·n + v]`: bit `k` of switch `v`'s counts.
    planes: Vec<Lanes>,
}

impl LevelCounts {
    /// Zero counts at `n` switches.
    pub(crate) fn new(n: usize) -> Self {
        LevelCounts {
            n,
            planes: Vec::new(),
        }
    }

    /// Resets every count to zero, keeping the planes.
    pub(crate) fn clear(&mut self) {
        self.planes.fill(Lanes::ZERO);
    }

    /// Adds one to the count of each lane of `lanes` at switch `v`.
    #[inline]
    pub(crate) fn add(&mut self, v: usize, lanes: Lanes) {
        let mut carry = lanes;
        let mut at = v;
        while !carry.is_zero() {
            if at >= self.planes.len() {
                self.planes.resize(self.planes.len() + self.n, Lanes::ZERO);
            }
            let plane = self.planes[at];
            self.planes[at] = plane ^ carry;
            carry = plane & carry;
            at += self.n;
        }
    }

    /// Subtracts `scale` times each lane's count at switch `v` from the
    /// lane's entry of `segment`, visiting only the set bits of each plane.
    /// Wrapping, so an entry of either width is exact whenever the final
    /// value fits.
    pub(crate) fn subtract_from<E: Hop>(&self, v: usize, segment: &mut [E], scale: u16) {
        let planes = self.planes.get(v..).unwrap_or_default();
        for (k, plane) in planes.iter().step_by(self.n).enumerate() {
            let weight = scale << k;
            for i in plane.ones() {
                segment[i] = segment[i].wrapping_less(weight);
            }
        }
    }
}

/// The largest finite entry of a one-byte [`HopTable`]: 255 is its
/// unreachable entry.
pub(crate) const NARROW_MAX: usize = 254;

/// An entry of a [`HopTable`]: `u8` or `u16`. The passes compute entries
/// modulo the entry's range, which is exact whenever the value fits.
pub(crate) trait Hop: Copy {
    /// The entry of a pair that cannot reach each other.
    const UNREACHABLE: Self;

    /// `value` modulo the entry's range.
    fn wrap(value: u16) -> Self;

    /// `self − by`, modulo the entry's range.
    fn wrapping_less(self, by: u16) -> Self;
}

impl Hop for u8 {
    const UNREACHABLE: u8 = u8::MAX;

    #[inline]
    fn wrap(value: u16) -> u8 {
        value as u8
    }

    #[inline]
    fn wrapping_less(self, by: u16) -> u8 {
        self.wrapping_sub(by as u8)
    }
}

impl Hop for u16 {
    const UNREACHABLE: u16 = UNREACHABLE;

    #[inline]
    fn wrap(value: u16) -> u16 {
        value
    }

    #[inline]
    fn wrapping_less(self, by: u16) -> u16 {
        self.wrapping_sub(by)
    }
}

/// An `n × n` table of hop counts between switches, row-major, one byte
/// per entry when every finite entry is at most [`NARROW_MAX`] and two
/// bytes otherwise.
#[derive(Clone, Debug)]
pub(crate) struct HopTable {
    n: usize,
    entries: Entries,
}

#[derive(Clone, Debug)]
enum Entries {
    Narrow(Vec<u8>),
    Wide(Vec<u16>),
}

impl HopTable {
    /// An all-zero `n × n` table for entries that are at most `largest`
    /// when finite. The zeroed allocation comes from pages the kernel
    /// faults in only when they are first written.
    pub(crate) fn zeroed(n: usize, largest: usize) -> Self {
        let entries = if largest <= NARROW_MAX {
            Entries::Narrow(vec![0; n * n])
        } else {
            Entries::Wide(vec![0; n * n])
        };
        HopTable { n, entries }
    }

    /// Hands the entries to `narrow` or to `wide`, whichever takes their
    /// width, and returns its result.
    pub(crate) fn write<R>(
        &mut self,
        narrow: impl FnOnce(&mut [u8]) -> R,
        wide: impl FnOnce(&mut [u16]) -> R,
    ) -> R {
        match &mut self.entries {
            Entries::Narrow(entries) => narrow(entries),
            Entries::Wide(entries) => wide(entries),
        }
    }

    /// Rows (and columns) of the table.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Bytes per entry: 1 or 2.
    pub(crate) fn bytes_per_entry(&self) -> usize {
        match self.entries {
            Entries::Narrow(_) => 1,
            Entries::Wide(_) => 2,
        }
    }

    /// Row `a`.
    #[inline]
    pub(crate) fn row(&self, a: usize) -> HopRow<'_> {
        let columns = a * self.n..(a + 1) * self.n;
        HopRow(match &self.entries {
            Entries::Narrow(entries) => RowEntries::Narrow(&entries[columns]),
            Entries::Wide(entries) => RowEntries::Wide(&entries[columns]),
        })
    }
}

/// The `u16` value of each one-byte entry: the entry itself, and
/// [`UNREACHABLE`](crate::bfs::UNREACHABLE) for 255. On the routing hot
/// path one lookup costs less than a compare and a select.
static WIDEN: [u16; 256] = {
    let mut widen = [UNREACHABLE; 256];
    let mut hops = 0;
    while hops <= NARROW_MAX {
        widen[hops] = hops as u16;
        hops += 1;
    }
    widen
};

/// One row of an all-pairs hop table (a
/// [`DistanceMatrix`](crate::DistanceMatrix) or the Up/Down distances of an
/// [`UpDownEscape`](crate::UpDownEscape)), read as `u16`s whatever width
/// the table stores: an unreachable entry reads
/// [`UNREACHABLE`](crate::bfs::UNREACHABLE).
#[derive(Clone, Copy)]
pub struct HopRow<'a>(RowEntries<'a>);

#[derive(Clone, Copy)]
enum RowEntries<'a> {
    Narrow(&'a [u8]),
    Wide(&'a [u16]),
}

impl<'a> HopRow<'a> {
    /// The entry of column `b`.
    #[inline]
    pub fn get(self, b: usize) -> u16 {
        match self.0 {
            RowEntries::Narrow(row) => WIDEN[usize::from(row[b])],
            RowEntries::Wide(row) => row[b],
        }
    }

    /// The entry of column `b` as stored, not widened: an unreachable entry
    /// reads 255 in a one-byte table. Two entries that are both finite or
    /// both unreachable, as those of the two ends of a live link are, differ
    /// and compare exactly as [`get`](HopRow::get) reads them, without its
    /// lookup.
    #[inline]
    pub fn unwidened(self, b: usize) -> u16 {
        match self.0 {
            RowEntries::Narrow(row) => u16::from(row[b]),
            RowEntries::Wide(row) => row[b],
        }
    }

    /// The entries in column order.
    pub fn iter(self) -> impl Iterator<Item = u16> + 'a {
        let len = match self.0 {
            RowEntries::Narrow(row) => row.len(),
            RowEntries::Wide(row) => row.len(),
        };
        (0..len).map(move |b| self.get(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_single_and_ones_agree() {
        for count in [0, 1, 63, 64, 65, 128, 200, 256] {
            assert_eq!(Lanes::first(count).ones().collect::<Vec<_>>(), {
                (0..count).collect::<Vec<_>>()
            });
        }
        for i in [0, 63, 64, 255] {
            assert_eq!(Lanes::single(i).ones().collect::<Vec<_>>(), vec![i]);
        }
        let odd = Lanes::single(3) | Lanes::single(130);
        assert_eq!(odd.and_not(Lanes::single(3)), Lanes::single(130));
        assert!(odd.and_not(odd).is_zero());
    }

    #[test]
    fn counts_carry_into_new_planes() {
        // Lane i gets i additions, so lane 255 needs eight planes.
        let mut counts = LevelCounts::new(3);
        for round in 0..WIDTH {
            counts.add(1, Lanes::first(WIDTH).and_not(Lanes::first(round + 1)));
        }
        let mut segment = vec![1000u16; WIDTH];
        counts.subtract_from(1, &mut segment, 2);
        for (i, &entry) in segment.iter().enumerate() {
            assert_eq!(entry, 1000 - 2 * i as u16, "lane {i}");
        }
        // The other switches kept zero counts.
        let mut untouched = vec![7u16; WIDTH];
        counts.subtract_from(0, &mut untouched, 1);
        counts.subtract_from(2, &mut untouched, 1);
        assert!(untouched.iter().all(|&entry| entry == 7));
        counts.clear();
        counts.subtract_from(1, &mut untouched, 1);
        assert!(untouched.iter().all(|&entry| entry == 7));
    }

    #[test]
    fn one_byte_entries_subtract_modulo_their_range() {
        let mut counts = LevelCounts::new(1);
        for round in 0..WIDTH {
            counts.add(0, Lanes::first(WIDTH).and_not(Lanes::first(round + 1)));
        }
        let mut segment = vec![u8::wrap(1000); WIDTH];
        counts.subtract_from(0, &mut segment, 2);
        for (i, &entry) in segment.iter().enumerate() {
            assert_eq!(usize::from(entry), (1000 - 2 * i) % 256, "lane {i}");
        }
    }

    #[test]
    fn rows_read_u16_in_either_width() {
        let mut narrow = HopTable::zeroed(2, NARROW_MAX);
        narrow.write(
            |entries| entries.copy_from_slice(&[0, 254, u8::UNREACHABLE, 0]),
            |_| unreachable!("254 fits one byte"),
        );
        let mut wide = HopTable::zeroed(2, NARROW_MAX + 1);
        wide.write(
            |_| unreachable!("255 needs two bytes"),
            |entries| entries.copy_from_slice(&[0, 255, u16::UNREACHABLE, 0]),
        );
        for (table, bytes, far) in [(narrow, 1, 254), (wide, 2, 255)] {
            assert_eq!(table.bytes_per_entry(), bytes);
            assert_eq!(table.row(0).iter().collect::<Vec<_>>(), [0, far]);
            assert_eq!(table.row(1).iter().collect::<Vec<_>>(), [UNREACHABLE, 0]);
        }
    }
}
