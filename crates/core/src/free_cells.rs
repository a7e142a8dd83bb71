//! The free cores of a placement, with exact nearest-free-core queries.
//!
//! Two searches ask "which free healthy core is nearest to this one?":
//! the multilevel projection, when it seats a child next to its parent's
//! scaled anchor, and [`crate::repair`]/[`crate::repair_board`], when they
//! evict a cluster from a dead or overloaded core. Both use
//! [`FreeCells`], so both break ties the same way: smallest Manhattan
//! distance, then smallest row, then smallest column (row-major index).

use snnmap_hw::{Coord, FaultMap, Mesh, Placement};

/// The free cells of a mesh as one `u64` bitset per row (bit `y` of row
/// `x` is set while cell `(x, y)` is free), with exact nearest-by-Manhattan
/// queries. A query walks rows outward from the anchor and prunes as soon
/// as the row offset alone exceeds the best distance found. Within a row,
/// the nearest free column at or below and at or above the anchor are
/// word scans bounded by the distance still able to beat the best: about
/// `d / 32` words per row visited, which matters at the ~92%-occupied
/// finest multilevel rung where spilled children search tens of cells
/// out.
pub(crate) struct FreeCells {
    cols: usize,
    /// `u64` words per row.
    words: usize,
    /// Row-major: row `x` is `bits[x * words..(x + 1) * words]`.
    bits: Vec<u64>,
}

impl FreeCells {
    /// The free cells of `placement`'s mesh: unoccupied, unmasked and
    /// alive under `faults`.
    pub(crate) fn new(placement: &Placement, faults: Option<&FaultMap>) -> Self {
        let mesh: Mesh = placement.mesh();
        let (rows, cols) = (usize::from(mesh.rows()), usize::from(mesh.cols()));
        let words = cols.div_ceil(64);
        let row: Vec<u64> =
            (0..words).map(|w| u64::MAX >> (64 - (cols - 64 * w).min(64))).collect();
        let mut free = Self { cols, words, bits: row.repeat(rows) };
        for c in mesh.iter() {
            let taken = placement.cluster_at(c).is_some() || placement.is_masked(c);
            if taken || faults.is_some_and(|fm| fm.is_dead(c)) {
                free.set(c, false);
            }
        }
        free
    }

    fn set(&mut self, c: Coord, free: bool) {
        let y = usize::from(c.y);
        let word = &mut self.bits[usize::from(c.x) * self.words + y / 64];
        let bit = 1u64 << (y % 64);
        *word = if free { *word | bit } else { *word & !bit };
    }

    /// Marks `c` free again (a cluster left it).
    pub(crate) fn insert(&mut self, c: Coord) {
        self.set(c, true);
    }

    /// Every free cell, in row-major order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Coord> + '_ {
        self.bits.iter().enumerate().flat_map(move |(i, &word)| {
            let (x, w) = (i / self.words, i % self.words);
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| Coord::new(x as u16, (64 * w + b) as u16))
        })
    }

    /// Removes and returns the free cell nearest to `anchor` among those
    /// `admits` accepts, or `None` when it accepts none of them.
    pub(crate) fn take_nearest(
        &mut self,
        anchor: Coord,
        admits: impl Fn(Coord) -> bool,
    ) -> Option<Coord> {
        let ax = i32::from(anchor.x);
        let ay = usize::from(anchor.y);
        debug_assert!(ay < self.cols);
        let rows = (self.bits.len() / self.words) as i32;
        let mut best: Option<(i32, u16, u16)> = None;
        for ddx in 0..rows {
            if best.is_some_and(|(d, _, _)| ddx > d) {
                break;
            }
            for x in [ax - ddx, ax + ddx] {
                if x < 0 || x >= rows {
                    continue;
                }
                // Columns farther out than `reach` cannot beat `best`.
                let reach = best.map_or(self.cols, |(d, _, _)| (d - ddx) as usize);
                let row = &self.bits[x as usize * self.words..][..self.words];
                let admitted = |y: usize| admits(Coord::new(x as u16, y as u16));
                let below = last_set(row, ay.saturating_sub(reach), ay, admitted);
                let above = first_set(row, ay, (ay + reach).min(self.cols - 1), admitted);
                for y in below.into_iter().chain(above) {
                    let cand = (ddx + y.abs_diff(ay) as i32, x as u16, y as u16);
                    if best.map_or(true, |b| cand < b) {
                        best = Some(cand);
                    }
                }
                if ddx == 0 {
                    break; // ax - 0 and ax + 0 are the same row
                }
            }
        }
        let (_, x, y) = best?;
        let cell = Coord::new(x, y);
        self.set(cell, false);
        Some(cell)
    }
}

/// The mask of bits `lo..=hi` within word `w` of a row.
fn span_mask(w: usize, lo: usize, hi: usize) -> u64 {
    let low = if w == lo / 64 { u64::MAX << (lo % 64) } else { u64::MAX };
    let high = if w == hi / 64 { u64::MAX >> (63 - hi % 64) } else { u64::MAX };
    low & high
}

/// The highest set bit of `row` in `lo..=hi` that `admits` accepts.
fn last_set(
    row: &[u64],
    lo: usize,
    mut hi: usize,
    admits: impl Fn(usize) -> bool,
) -> Option<usize> {
    loop {
        let y = (lo / 64..=hi / 64).rev().find_map(|w| {
            let word = row[w] & span_mask(w, lo, hi);
            (word != 0).then(|| 64 * w + 63 - word.leading_zeros() as usize)
        })?;
        if admits(y) {
            return Some(y);
        }
        if y == lo {
            return None;
        }
        hi = y - 1;
    }
}

/// The lowest set bit of `row` in `lo..=hi` that `admits` accepts.
fn first_set(
    row: &[u64],
    mut lo: usize,
    hi: usize,
    admits: impl Fn(usize) -> bool,
) -> Option<usize> {
    loop {
        let y = (lo / 64..=hi / 64).find_map(|w| {
            let word = row[w] & span_mask(w, lo, hi);
            (word != 0).then(|| 64 * w + word.trailing_zeros() as usize)
        })?;
        if admits(y) {
            return Some(y);
        }
        if y == hi {
            return None;
        }
        lo = y + 1;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The reference choice: the free cell `admits` accepts with the
    /// smallest `(distance, row, column)`, by scanning every cell.
    pub(crate) fn nearest_by_scan(
        mesh: Mesh,
        free: &[bool],
        anchor: Coord,
        admits: impl Fn(Coord) -> bool,
    ) -> Option<Coord> {
        mesh.iter()
            .filter(|&c| free[mesh.index_of(c)] && admits(c))
            .min_by_key(|&c| (c.manhattan(anchor), c.x, c.y))
    }

    /// A fault map killing each cell of `mesh` with probability `rate`,
    /// keeping at least `keep` cells alive.
    pub(crate) fn random_faults(
        mesh: Mesh,
        rate: f64,
        keep: usize,
        rng: &mut ChaCha8Rng,
    ) -> FaultMap {
        let mut fm = FaultMap::new(mesh);
        for c in mesh.iter() {
            if fm.healthy_cores() > keep && rng.gen_bool(rate) {
                fm.kill_core(c).unwrap();
            }
        }
        fm
    }

    fn empty(mesh: Mesh, faults: Option<&FaultMap>) -> FreeCells {
        FreeCells::new(&Placement::new_unplaced(mesh, 0), faults)
    }

    #[test]
    fn take_nearest_prefers_the_anchor_then_expands_deterministically() {
        let mesh = Mesh::new(4, 4).unwrap();
        let mut free = empty(mesh, None);
        let a = Coord::new(1, 1);
        let mut take = || free.take_nearest(a, |_| true);
        assert_eq!(take(), Some(a));
        // The d=1 ring in (distance, row, column) order.
        assert_eq!(take(), Some(Coord::new(0, 1)));
        assert_eq!(take(), Some(Coord::new(1, 0)));
        assert_eq!(take(), Some(Coord::new(1, 2)));
        assert_eq!(take(), Some(Coord::new(2, 1)));
        // d=2: (0,0) wins on row before (0,2) wins on column.
        assert_eq!(take(), Some(Coord::new(0, 0)));
        assert_eq!(take(), Some(Coord::new(0, 2)));
    }

    #[test]
    fn occupied_masked_and_dead_cells_are_not_free() {
        let mesh = Mesh::new(2, 3).unwrap();
        let mut dead = FaultMap::new(mesh);
        dead.kill_core(Coord::new(1, 2)).unwrap();
        let mut mask = FaultMap::new(mesh);
        mask.kill_core(Coord::new(0, 0)).unwrap();
        let mut p = Placement::new_unplaced_masked(mesh, 1, &mask).unwrap();
        p.place(0, Coord::new(1, 1)).unwrap();
        let mut free = FreeCells::new(&p, Some(&dead));
        let cells: Vec<Coord> = free.iter().collect();
        assert_eq!(cells, [Coord::new(0, 1), Coord::new(0, 2), Coord::new(1, 0)]);
        free.insert(Coord::new(1, 1));
        // (0, 2) and (1, 1) tie at distance 1; the smaller row wins.
        assert_eq!(free.take_nearest(Coord::new(1, 2), |_| true), Some(Coord::new(0, 2)));
        assert_eq!(free.take_nearest(Coord::new(1, 2), |_| true), Some(Coord::new(1, 1)));
        assert_eq!(free.take_nearest(Coord::new(1, 2), |c| c.x == 1), Some(Coord::new(1, 0)));
        assert_eq!(free.take_nearest(Coord::new(1, 2), |c| c.x == 1), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn take_nearest_matches_a_brute_force_scan(
            rows in 1u16..6,
            col_pick in 0usize..5,
            rate_pick in 0usize..3,
            filtered in any::<bool>(),
            seed in any::<u64>(),
        ) {
            // Column counts around the 64-bit word edges.
            let cols = [1u16, 63, 64, 65, 130][col_pick];
            let dead_rate = [0.0, 0.1, 0.5][rate_pick];
            let mesh = Mesh::new(rows, cols).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let fm = random_faults(mesh, dead_rate, 1, &mut rng);
            let faults = (fm.num_dead_cores() > 0).then_some(&fm);
            // A filter that rejects about a third of the cells, the way
            // a board's small cores reject a large cluster.
            let admits = |c: Coord| !filtered || (usize::from(c.x) * 7 + usize::from(c.y)) % 3 != 0;
            let mut free: Vec<bool> = mesh.iter().map(|c| !fm.is_dead(c)).collect();
            let mut cells = empty(mesh, faults);
            // Take every free cell; half the anchors repeat the previous
            // one, so later takes spill far from a crowded anchor.
            let mut anchor = Coord::new(0, 0);
            for _ in 0..fm.healthy_cores() {
                if rng.gen_bool(0.5) {
                    anchor = Coord::new(rng.gen_range(0..rows), rng.gen_range(0..cols));
                }
                let expect = nearest_by_scan(mesh, &free, anchor, admits);
                prop_assert_eq!(cells.take_nearest(anchor, admits), expect, "anchor {}", anchor);
                if let Some(c) = expect {
                    free[mesh.index_of(c)] = false;
                }
            }
        }
    }
}
