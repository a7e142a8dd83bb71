//! The `Expe` expected-traversal function (Algorithm 4, Appendix B).

use std::cell::RefCell;
use std::sync::OnceLock;

use snnmap_hw::Coord;

/// Expected number of times a single spike from `s` to `t` passes through
/// coordinate `(x, y)` (Algorithm 4).
///
/// The routing model is a *random monotone staircase*: the spike only
/// moves toward the target; at every router where both coordinates still
/// differ from the target's it continues in either direction with
/// probability ½, and once one coordinate matches the target's it runs
/// straight. Source and target routers count as traversed
/// (`Expe(s) = Expe(t) = 1`).
///
/// Points outside the bounding rectangle of `s` and `t` are never
/// traversed and return `0`.
///
/// This is the per-point form, faithful to the paper's pseudocode; the
/// congestion metrics stream the same dynamic program over whole
/// rectangles at once (see [`for_each_route_expe`]).
///
/// # Examples
///
/// ```
/// use snnmap_hw::Coord;
/// use snnmap_metrics::expe;
///
/// let s = Coord::new(0, 0);
/// let t = Coord::new(1, 1);
/// // The two corner detours are each taken with probability 1/2.
/// assert_eq!(expe(Coord::new(0, 1), s, t), 0.5);
/// assert_eq!(expe(Coord::new(1, 0), s, t), 0.5);
/// assert_eq!(expe(s, s, t), 1.0);
/// assert_eq!(expe(t, s, t), 1.0);
/// assert_eq!(expe(Coord::new(5, 5), s, t), 0.0);
/// ```
pub fn expe(p: Coord, s: Coord, t: Coord) -> f64 {
    // Normalize to a rectangle walked in +x/+y direction.
    let dx = s.x.abs_diff(t.x) as usize;
    let dy = s.y.abs_diff(t.y) as usize;
    let in_x = (p.x >= s.x.min(t.x)) && (p.x <= s.x.max(t.x));
    let in_y = (p.y >= s.y.min(t.y)) && (p.y <= s.y.max(t.y));
    if !in_x || !in_y {
        return 0.0;
    }
    // Local coordinates measured from the source.
    let i = p.x.abs_diff(s.x) as usize;
    let j = p.y.abs_diff(s.y) as usize;
    // Mixed-direction check: p must be on the source->target side in both
    // axes (abs_diff alone would accept points mirrored about s).
    let toward_x = (t.x >= s.x && p.x >= s.x) || (t.x <= s.x && p.x <= s.x);
    let toward_y = (t.y >= s.y && p.y >= s.y) || (t.y <= s.y && p.y <= s.y);
    if !toward_x || !toward_y {
        return 0.0;
    }
    let grid = expectation_grid(dx, dy);
    grid[i * (dy + 1) + j]
}

/// The full expectation grid of a normalized rectangle: entry
/// `[i·(dy+1) + j]` is the probability the staircase from `(0,0)` to
/// `(dx,dy)` visits `(i,j)`. The reference form of Algorithm 4, used by
/// [`expe`], as the test oracle of [`for_each_expe`], which streams the
/// same values without materializing the grid, and once, at 64×64, to
/// build that walker's shared interior table.
///
/// Note the grid is *not* symmetric under endpoint reversal: the walk
/// runs straight once it hits the target row/column, so swapping source
/// and target redistributes the boundary mass. Callers maintaining
/// per-edge contributions must therefore respect edge direction.
pub fn expectation_grid(dx: usize, dy: usize) -> Vec<f64> {
    let cols = dy + 1;
    let mut e = vec![0.0f64; (dx + 1) * cols];
    e[0] = 1.0;
    for i in 0..=dx {
        for j in 0..=dy {
            let v = e[i * cols + j];
            if v == 0.0 {
                continue;
            }
            if i == dx && j == dy {
                continue;
            }
            if i == dx {
                // Reached the target row: run straight in y.
                e[i * cols + j + 1] += v;
            } else if j == dy {
                e[(i + 1) * cols + j] += v;
            } else {
                e[i * cols + j + 1] += v / 2.0;
                e[(i + 1) * cols + j] += v / 2.0;
            }
        }
    }
    e
}

thread_local! {
    /// The one row of scratch [`for_each_expe`] streams the grid through.
    static ROW: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Side of the shared interior table: boxes with `1 ≤ dx, dy < TABLE`
/// read their interior from it.
const TABLE: usize = 64;

/// The interior of every staircase grid up to `TABLE × TABLE`.
///
/// Strictly inside the box (`i < dx`, `j < dy`) a cell receives
/// `v(i−1, j)/2` and then `v(i, j−1)/2`, whatever the box's shape, so
/// entry `[i][j]` bit-equals that cell in every grid that contains it.
/// Built once per process from [`expectation_grid`] itself (32 KiB).
fn interior() -> &'static [[f64; TABLE]; TABLE] {
    static INTERIOR: OnceLock<Box<[[f64; TABLE]; TABLE]>> = OnceLock::new();
    INTERIOR.get_or_init(|| {
        let grid = expectation_grid(TABLE, TABLE);
        let mut table = Box::new([[0.0; TABLE]; TABLE]);
        for (i, row) in table.iter_mut().enumerate() {
            row.copy_from_slice(&grid[i * (TABLE + 1)..][..TABLE]);
        }
        table
    })
}

/// Streams the nonzero cells of [`expectation_grid`]`(dx, dy)` as
/// `f(i, j, value)`, in row-major order, without materializing the
/// `(dx+1)(dy+1)` grid.
///
/// The values bit-equal the grid's. Boxes with `1 ≤ dx, dy < 64` read
/// their interior cells from one shared, lazily built table and carry
/// the target column and row by their 1-D recurrences, adding each
/// cell's share from above before its share from the left, as the grid
/// does. No cell of such a box is zero, so every cell is emitted.
/// Straight lines and larger boxes stream the grid through one row of
/// scratch (`dy + 1` floats, reused per thread): row `i` of the scratch
/// holds each cell's share from the row above, and the walk adds the
/// share from the left before reading it, so every cell sees the same
/// float operations in the same order as in [`expectation_grid`].
///
/// # Examples
///
/// ```
/// use snnmap_metrics::{expectation_grid, for_each_expe};
///
/// let grid = expectation_grid(2, 3);
/// let mut cells = 0;
/// for_each_expe(2, 3, |i, j, v| {
///     assert_eq!(v, grid[i * 4 + j]);
///     cells += 1;
/// });
/// assert_eq!(cells, grid.iter().filter(|&&v| v != 0.0).count());
/// ```
pub fn for_each_expe(dx: usize, dy: usize, mut f: impl FnMut(usize, usize, f64)) {
    if (1..TABLE).contains(&dx) && (1..TABLE).contains(&dy) {
        let table = interior();
        // `col` is the target column's cell of the last row emitted.
        let mut col = 0.0;
        for (i, row) in table[..dx].iter().enumerate() {
            for (j, &v) in row[..dy].iter().enumerate() {
                f(i, j, v);
            }
            col += row[dy - 1] / 2.0;
            f(i, dy, col);
        }
        // The target row runs straight in y on top of its share from above.
        let mut run = 0.0;
        for (j, &above) in table[dx - 1][..dy].iter().enumerate() {
            run += above / 2.0;
            f(dx, j, run);
        }
        f(dx, dy, col + run);
        return;
    }
    // Taken out of the cell, so a nested call from `f` gets its own row.
    let mut row = ROW.with(|r| std::mem::take(&mut *r.borrow_mut()));
    row.clear();
    row.resize(dy + 1, 0.0);
    row[0] = 1.0;
    for i in 0..=dx {
        for j in 0..=dy {
            let v = row[j];
            if v == 0.0 {
                continue;
            }
            f(i, j, v);
            if i == dx {
                // The target row: run straight in y.
                if j < dy {
                    row[j + 1] += v;
                }
            } else if j < dy {
                row[j] = v / 2.0;
                row[j + 1] += v / 2.0;
            }
            // On the target column (j == dy) the walk runs straight in x:
            // the next row's share from above is `v` itself.
        }
    }
    ROW.with(|r| *r.borrow_mut() = row);
}

/// [`for_each_expe`] over the rectangle of a route `s → t`, in mesh
/// coordinates: calls `f(x, y, value)` for every router the staircase
/// from `s` to `t` can visit, `value` being its visit probability
/// ([`expe`]), bit-equal to [`expectation_grid`]'s. The cells come in
/// the normalized grid's row-major order, mirrored into the quadrant the
/// route occupies, so a float sum over them adds in the grid's order.
pub fn for_each_route_expe(s: Coord, t: Coord, mut f: impl FnMut(usize, usize, f64)) {
    let dx = s.x.abs_diff(t.x) as usize;
    let dy = s.y.abs_diff(t.y) as usize;
    let (x0, y0) = (usize::from(s.x.min(t.x)), usize::from(s.y.min(t.y)));
    let (flip_x, flip_y) = (t.x < s.x, t.y < s.y);
    for_each_expe(dx, dy, |i, j, v| {
        let x = if flip_x { x0 + dx - i } else { x0 + i };
        let y = if flip_y { y0 + dy - j } else { y0 + j };
        f(x, y, v);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The walker's `(i, j, bits)` stream.
    fn streamed(dx: usize, dy: usize) -> Vec<(usize, usize, u64)> {
        let mut cells = Vec::new();
        for_each_expe(dx, dy, |i, j, v| cells.push((i, j, v.to_bits())));
        cells
    }

    /// The grid's nonzero cells in row-major order.
    fn materialized(dx: usize, dy: usize) -> Vec<(usize, usize, u64)> {
        let grid = expectation_grid(dx, dy);
        (0..=dx)
            .flat_map(|i| (0..=dy).map(move |j| (i, j)))
            .map(|(i, j)| (i, j, grid[i * (dy + 1) + j].to_bits()))
            .filter(|&(_, _, bits)| f64::from_bits(bits) != 0.0)
            .collect()
    }

    #[test]
    fn walker_streams_the_grid_bit_for_bit() {
        for dx in 0..=64 {
            for dy in 0..=64 {
                assert_eq!(streamed(dx, dy), materialized(dx, dy), "{dx}x{dy}");
            }
        }
        // The long strips reach subnormal visit probabilities.
        for (dx, dy) in [(1023, 2), (2, 1023), (300, 300)] {
            assert_eq!(streamed(dx, dy), materialized(dx, dy), "{dx}x{dy}");
        }
    }

    #[test]
    fn nested_walks_keep_their_own_rows() {
        let mut outer = Vec::new();
        for_each_expe(5, 3, |i, j, v| {
            outer.push((i, j, v.to_bits()));
            assert_eq!(streamed(2, 7), materialized(2, 7));
        });
        assert_eq!(outer, materialized(5, 3));
    }

    #[test]
    fn route_walk_mirrors_into_every_quadrant() {
        let s = Coord::new(4, 4);
        for t in [Coord::new(7, 5), Coord::new(1, 5), Coord::new(7, 3), Coord::new(1, 3)] {
            let mut seen = 0;
            for_each_route_expe(s, t, |x, y, v| {
                let p = Coord::new(x as u16, y as u16);
                assert_eq!(v.to_bits(), expe(p, s, t).to_bits(), "{s} -> {t} at {p}");
                seen += 1;
            });
            assert_eq!(seen, materialized(3, 1).len());
        }
    }

    #[test]
    fn route_walks_stream_the_grid_in_order_across_the_table_edge() {
        // Boxes on both sides of the interior table's side (64), walked
        // in all four quadrants: the `(x, y, bits)` sequence is the
        // grid's row-major one, stepped away from the source.
        let s = Coord::new(80, 80);
        let step = |from: u16, sign: i32, k: usize| (i32::from(from) + sign * k as i32) as usize;
        for dx in 0..=80 {
            for dy in 0..=80 {
                let grid = materialized(dx, dy);
                for (sx, sy) in [(1, 1), (-1, 1), (1, -1), (-1, -1)] {
                    let t = Coord::new(step(s.x, sx, dx) as u16, step(s.y, sy, dy) as u16);
                    let want: Vec<_> = grid
                        .iter()
                        .map(|&(i, j, bits)| (step(s.x, sx, i), step(s.y, sy, j), bits))
                        .collect();
                    let mut got = Vec::new();
                    for_each_route_expe(s, t, |x, y, v| got.push((x, y, v.to_bits())));
                    assert_eq!(got, want, "{s} -> {t}");
                }
            }
        }
    }

    #[test]
    fn straight_line_route_is_deterministic() {
        let s = Coord::new(2, 1);
        let t = Coord::new(2, 5);
        for y in 1..=5 {
            assert_eq!(expe(Coord::new(2, y), s, t), 1.0);
        }
        assert_eq!(expe(Coord::new(3, 3), s, t), 0.0);
    }

    #[test]
    fn grid_levels_conserve_probability() {
        // On every anti-diagonal strictly inside the rectangle, the visit
        // probabilities sum to 1 (the spike is somewhere on its way).
        for (dx, dy) in [(3usize, 4usize), (1, 1), (5, 2), (0, 4), (4, 0)] {
            let g = expectation_grid(dx, dy);
            let cols = dy + 1;
            for level in 0..=(dx + dy) {
                let sum: f64 = (0..=dx)
                    .filter_map(|i| {
                        let j = level.checked_sub(i)?;
                        (j <= dy).then(|| g[i * cols + j])
                    })
                    .sum();
                assert!(
                    (sum - 1.0).abs() < 1e-12,
                    "dx={dx} dy={dy} level {level}: {sum}"
                );
            }
        }
    }

    #[test]
    fn symmetric_rectangle_is_symmetric() {
        let g = expectation_grid(2, 2);
        // Transposing i and j leaves the grid unchanged.
        for i in 0..=2 {
            for j in 0..=2 {
                assert!((g[i * 3 + j] - g[j * 3 + i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn all_four_quadrant_directions() {
        // The same rectangle walked in all four directions gives the same
        // expectation at the mirrored point.
        let cases = [
            (Coord::new(0, 0), Coord::new(2, 3)),
            (Coord::new(2, 3), Coord::new(0, 0)),
            (Coord::new(0, 3), Coord::new(2, 0)),
            (Coord::new(2, 0), Coord::new(0, 3)),
        ];
        for (s, t) in cases {
            assert_eq!(expe(s, s, t), 1.0, "{s} -> {t}");
            assert_eq!(expe(t, s, t), 1.0, "{s} -> {t}");
            // One step from the source along x.
            let step = Coord::new(if t.x > s.x { s.x + 1 } else { s.x - 1 }, s.y);
            assert_eq!(expe(step, s, t), 0.5, "{s} -> {t}");
        }
    }

    #[test]
    fn mirrored_points_outside_path_are_zero() {
        // A point on the wrong side of the source must not be counted even
        // though abs_diff coordinates would land inside the grid.
        let s = Coord::new(5, 5);
        let t = Coord::new(7, 7);
        assert_eq!(expe(Coord::new(4, 6), s, t), 0.0);
        assert_eq!(expe(Coord::new(6, 4), s, t), 0.0);
    }

    #[test]
    fn binomial_interior_values() {
        // Inside the rectangle (before hitting a boundary), visiting
        // (i, j) has probability C(i + j, i) / 2^(i+j).
        let g = expectation_grid(4, 4);
        let choose = |n: u64, k: u64| -> f64 {
            let mut v = 1.0;
            for x in 0..k {
                v = v * (n - x) as f64 / (x + 1) as f64;
            }
            v
        };
        for i in 0..4usize {
            for j in 0..4usize {
                let expect = choose((i + j) as u64, i as u64) / 2f64.powi((i + j) as i32);
                assert!(
                    (g[i * 5 + j] - expect).abs() < 1e-12,
                    "({i},{j}): {} vs {expect}",
                    g[i * 5 + j]
                );
            }
        }
    }
}
