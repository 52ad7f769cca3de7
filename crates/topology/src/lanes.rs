//! The word-parallel lanes of the all-pairs passes.
//!
//! [`DistanceMatrix::compute`](crate::DistanceMatrix::compute) and the
//! Up/Down table of [`UpDownEscape`](crate::UpDownEscape) both run their
//! sources (or destinations) in batches of [`WIDTH`], one bit each, so one
//! word operation on a switch's [`Lanes`] advances the whole batch. Each
//! pass also keeps a count per lane at every switch, held as bit planes
//! ([`LevelCounts`]), from which it writes the switch's row segment once.

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
    /// Wrapping, so an entry is exact whenever the final value fits.
    pub(crate) fn subtract_from(&self, v: usize, segment: &mut [u16], scale: u16) {
        let planes = self.planes.get(v..).unwrap_or_default();
        for (k, plane) in planes.iter().step_by(self.n).enumerate() {
            let weight = scale << k;
            for i in plane.ones() {
                segment[i] = segment[i].wrapping_sub(weight);
            }
        }
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
}
