//! Potential-energy field shapes (§4.4.2, eqs. 19–21 and 25) and their
//! monomorphized distance kernels.
//!
//! The FD engine keeps every cluster's four directed forces (eq. 27),
//! or for `u_c` the two moments they derive from, current across swaps.
//! Each force term is a *step difference*
//! `u(d) − u(d − o)`: the energy an edge of displacement `d` loses when
//! its endpoint takes the unit step `o`. The kernels below make that
//! difference cheap without changing a single result bit:
//!
//! * **Branch-free float arithmetic** — the kernels compute `|dx| + |dy|`
//!   and `dx² + dy²` on `f64` scalars with `abs`, multiply and add only
//!   (float `abs` is a sign-bit mask, not a compare). Coordinates are
//!   mesh indices (`< 2¹⁶`), so every operation below is exact and
//!   bit-identical to the integer arithmetic it replaced — the
//!   provenance digests hold.
//! * **Exact integer steps** — every kernel's step difference is an
//!   exact integer, so a force is a sum of weight × integer terms. The
//!   engine rounds the weights once onto a dyadic grid on which those
//!   sums are exact (see its `snap_weights`), which makes every force
//!   independent of the order of its additions.
//! * **One kernel for `u_a` and eq. 25** — [`Potential::EnergyModel`] is
//!   `(EN_r + EN_w)·u_a + EN_r`, a positive affine map of `u_a`, so its
//!   step differences are exactly `EN_r + EN_w` times those of `u_a`.
//!   It runs the [`KL1`] kernel, and the slope enters only where a
//!   composite objective adds the energy term to other terms.
//!   [`Potential::value`] and the reported FD energy keep eq. 25.
//! * **Neighbour moments for `u_c`** — for the paper's `u_c` (eq. 21)
//!   the step difference is `2⟨d, o⟩ − 1`, affine in the displacement,
//!   so a cluster's four forces collapse to two moments of its merged
//!   row: `force_c(o) = 2⟨G_c, o⟩ − W_c` with `W_c = Σ_k w_k` and
//!   `G_c = Σ_k w_k·(p_k − p_c)`. Kernels with [`PotKernel::MOMENTS`]
//!   make the engine keep `(G_c, W_c)` instead of forces: a swap adds
//!   `±w` on the move axis to each graph neighbour's `G` and `∓W` to the
//!   moved cluster's own, and rebuilds nothing. The other kernels keep
//!   four forces and the generic per-edge patch.
//! * **Kernel monomorphization** — the [`with_kernel!`] macro dispatches
//!   the `Potential` enum **once per loop** (per force build, per
//!   scoring pass, per sweep's swap loop) to a zero-sized kernel type whose methods inline with no
//!   per-edge match.

use snnmap_hw::CostModel;

/// The shape of the potential field a cluster generates (Figure 7).
///
/// Given the displacement `p = P(c_j) − P(c_i)` between two connected
/// clusters, the pair's potential energy is `u(p) · w_P(e_ij)`; the FD
/// algorithm minimizes the total over all connections. The choice of `u`
/// trades solving speed against solution quality (§4.5):
///
/// * [`Potential::L1`] — `u_a(p) = |x| + |y|` (eq. 19): a uniform field;
///   minimizing it minimizes total weighted wire length.
/// * [`Potential::L1Squared`] — `u_b(p) = (|x| + |y|)²` (eq. 20): denser
///   away from the origin, so long connections are pulled in first.
/// * [`Potential::L2Squared`] — `u_c(p) = x² + y²` (eq. 21): the paper's
///   best performer (method j in Figure 8).
/// * [`Potential::EnergyModel`] — `u(p) = (‖p‖+1)·EN_r + ‖p‖·EN_w`
///   (eq. 25): makes the FD system energy *equal* the `M_ec` metric
///   (eq. 26).
///
/// # Examples
///
/// ```
/// use snnmap_core::Potential;
///
/// assert_eq!(Potential::L1.value(2, -1), 3.0);
/// assert_eq!(Potential::L1Squared.value(2, -1), 9.0);
/// assert_eq!(Potential::L2Squared.value(2, -1), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Potential {
    /// `u_a(p) = |x_p| + |y_p|` (eq. 19).
    L1,
    /// `u_b(p) = (|x_p| + |y_p|)²` (eq. 20).
    L1Squared,
    /// `u_c(p) = x_p² + y_p²` (eq. 21).
    L2Squared,
    /// `u(p) = (‖p‖₁ + 1)·EN_r + ‖p‖₁·EN_w` (eq. 25) — FD energy equals
    /// the `M_ec` energy metric.
    EnergyModel {
        /// Router energy per spike.
        en_r: f64,
        /// Wire energy per spike per hop.
        en_w: f64,
    },
}

impl Potential {
    /// The energy-model potential for a hardware cost model.
    pub fn energy_model(cost: CostModel) -> Self {
        Potential::EnergyModel { en_r: cost.en_r, en_w: cost.en_w }
    }

    /// Potential at integer displacement `(dx, dy)`.
    ///
    /// Symmetric in sign (`u(p) = u(−p)`) for every variant, which the
    /// tension bookkeeping of the FD engine relies on. The conversion to
    /// `f64` is exact for any mesh-sized displacement.
    #[inline]
    pub fn value(&self, dx: i32, dy: i32) -> f64 {
        self.at(f64::from(dx), f64::from(dy))
    }

    /// [`Potential::value`] at a float displacement — the form the FD
    /// engine's energy reduction evaluates per edge. The three shape
    /// variants evaluate their kernels; eq. 25 is spelled out here, since
    /// its force kernel is `u_a`'s.
    #[inline(always)]
    pub(crate) fn at(self, dx: f64, dy: f64) -> f64 {
        match self {
            Potential::L1 => KL1.u(dx, dy),
            Potential::L1Squared => KL1Sq.u(dx, dy),
            Potential::L2Squared => KL2Sq.u(dx, dy),
            Potential::EnergyModel { en_r, en_w } => {
                let l1 = KL1.u(dx, dy);
                (l1 + 1.0) * en_r + l1 * en_w
            }
        }
    }
}

impl Default for Potential {
    /// The paper's chosen configuration (method j): `u_c`.
    fn default() -> Self {
        Potential::L2Squared
    }
}

/// A monomorphized potential evaluation: one zero-sized (or
/// coefficient-carrying) type per [`Potential`] variant, so a loop
/// generic over `K: PotKernel` compiles to straight-line float code with
/// no per-edge enum match. Dispatch with [`with_kernel!`].
pub(crate) trait PotKernel: Copy + Send + Sync {
    /// Whether the engine keeps this kernel's forces as neighbour
    /// moments `(G_c, W_c)` rather than four directed forces. True only
    /// where `u(d) − u(d − o)` equals `2⟨d, o⟩ − 1` bit for bit on mesh
    /// integers, which makes every force an exact function of the
    /// moments.
    const MOMENTS: bool = false;

    /// Potential at float displacement `(dx, dy)`; exact for integer
    /// displacements (see [`Potential::value`]).
    fn u(self, dx: f64, dy: f64) -> f64;

    /// `u(d) − u(d − o)` for displacement `d = (dx, dy)` and unit step
    /// `o = (ox, oy)`.
    #[inline(always)]
    fn step_diff(self, dx: f64, dy: f64, ox: f64, oy: f64) -> f64 {
        self.u(dx, dy) - self.u(dx - ox, dy - oy)
    }
}

/// [`Potential::L1`] kernel, also the force kernel of
/// [`Potential::EnergyModel`].
#[derive(Clone, Copy)]
pub(crate) struct KL1;
/// [`Potential::L1Squared`] kernel.
#[derive(Clone, Copy)]
pub(crate) struct KL1Sq;
/// [`Potential::L2Squared`] kernel.
#[derive(Clone, Copy)]
pub(crate) struct KL2Sq;

impl PotKernel for KL1 {
    #[inline(always)]
    fn u(self, dx: f64, dy: f64) -> f64 {
        dx.abs() + dy.abs()
    }
}

impl PotKernel for KL1Sq {
    #[inline(always)]
    fn u(self, dx: f64, dy: f64) -> f64 {
        let l1 = dx.abs() + dy.abs();
        l1 * l1
    }
}

impl PotKernel for KL2Sq {
    const MOMENTS: bool = true;

    #[inline(always)]
    fn u(self, dx: f64, dy: f64) -> f64 {
        dx * dx + dy * dy
    }
}

/// Dispatches a [`Potential`] to its concrete force [`PotKernel`]
/// **once**, binding it as `$k` inside `$body` — hoisting the enum match
/// out of whatever loop `$body` runs ([`Potential::EnergyModel`] runs
/// [`KL1`]):
///
/// ```ignore
/// with_kernel!(engine.potential, k => engine.apply_swaps(k, top, epoch, &mut pos_stamp))
/// ```
macro_rules! with_kernel {
    ($pot:expr, $k:ident => $body:expr) => {
        match $pot {
            $crate::fd::potential::Potential::L1
            | $crate::fd::potential::Potential::EnergyModel { .. } => {
                let $k = $crate::fd::potential::KL1;
                $body
            }
            $crate::fd::potential::Potential::L1Squared => {
                let $k = $crate::fd::potential::KL1Sq;
                $body
            }
            $crate::fd::potential::Potential::L2Squared => {
                let $k = $crate::fd::potential::KL2Sq;
                $body
            }
        }
    };
}
pub(crate) use with_kernel;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_by_hand() {
        assert_eq!(Potential::L1.value(3, 4), 7.0);
        assert_eq!(Potential::L1Squared.value(3, 4), 49.0);
        assert_eq!(Potential::L2Squared.value(3, 4), 25.0);
        let e = Potential::EnergyModel { en_r: 1.0, en_w: 0.1 };
        assert!((e.value(3, 4) - (8.0 + 0.7)).abs() < 1e-12);
    }

    #[test]
    fn sign_symmetric() {
        for p in [
            Potential::L1,
            Potential::L1Squared,
            Potential::L2Squared,
            Potential::EnergyModel { en_r: 1.0, en_w: 0.1 },
        ] {
            for (dx, dy) in [(2, 3), (0, 5), (7, 0), (1, 1)] {
                assert_eq!(p.value(dx, dy), p.value(-dx, -dy));
                assert_eq!(p.value(dx, dy), p.value(dx, -dy));
                assert_eq!(p.value(dx, dy), p.value(-dx, dy));
            }
        }
    }

    #[test]
    fn energy_model_steps_are_its_slope_times_the_l1_steps() {
        // Dyadic coefficients keep eq. 25 exact in f64, so the identity
        // the shared KL1 kernel rests on holds bit for bit here.
        let (en_r, en_w) = (1.5, 0.25);
        let e = Potential::EnergyModel { en_r, en_w };
        for (dx, dy) in displacements() {
            for (ox, oy) in STEPS {
                let step = e.at(dx, dy) - e.at(dx - ox, dy - oy);
                let l1 = KL1.step_diff(dx, dy, ox, oy);
                assert_eq!(step.to_bits(), ((en_r + en_w) * l1).to_bits(), "({dx},{dy})");
            }
        }
    }

    #[test]
    fn quadratic_fields_penalize_distance_superlinearly() {
        // The §4.4.2 design rationale: u_b and u_c grow faster than u_a,
        // so distant pairs gain disproportionate energy.
        let (near, far) = ((1, 1), (4, 4));
        let ratio = |p: Potential| p.value(far.0, far.1) / p.value(near.0, near.1);
        assert!(ratio(Potential::L1Squared) > ratio(Potential::L1));
        assert!(ratio(Potential::L2Squared) > ratio(Potential::L1));
    }

    #[test]
    fn float_kernel_matches_integer_form_bitwise() {
        // The guarantee the digest-compat contract rests on: the float
        // kernel reproduces the integer arithmetic bit for bit over the
        // whole mesh-displacement range.
        for p in ALL {
            for (dx, dy) in DISPLACEMENTS {
                let exact = reference_value(p, dx, dy);
                let got = p.value(dx, dy);
                assert_eq!(
                    got.to_bits(),
                    exact.to_bits(),
                    "{p:?} at ({dx},{dy}): {got} vs {exact}"
                );
            }
        }
    }

    /// Mesh displacements from the origin to the ±65535 extreme.
    const DISPLACEMENTS: [(i32, i32); 6] =
        [(0, 0), (1, 0), (-3, 7), (255, -255), (1023, 1), (-65535, 65535)];

    /// The four unit steps in the engine's `[UP, DOWN, LEFT, RIGHT]` order.
    const STEPS: [(f64, f64); 4] = [(-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)];

    const ALL: [Potential; 4] = [
        Potential::L1,
        Potential::L1Squared,
        Potential::L2Squared,
        Potential::EnergyModel { en_r: 20.0, en_w: 2.4 },
    ];

    /// Every displacement of [`DISPLACEMENTS`] in all four sign quadrants.
    fn displacements() -> impl Iterator<Item = (f64, f64)> {
        DISPLACEMENTS.into_iter().flat_map(|(dx, dy)| {
            let (dx, dy) = (f64::from(dx), f64::from(dy));
            [(dx, dy), (-dx, dy), (dx, -dy), (-dx, -dy)]
        })
    }

    fn assert_moment_form<K: PotKernel>(k: K, p: Potential) {
        if !K::MOMENTS {
            return;
        }
        // `|d|² − |d − o|² = 2⟨d, o⟩ − |o|²` with `|o|² = 1`: on mesh
        // integers both sides are the same odd integer, exact in f64.
        for (dx, dy) in displacements() {
            for (ox, oy) in STEPS {
                let moment = 2.0 * (dx * ox + dy * oy) - 1.0;
                assert_eq!(k.step_diff(dx, dy, ox, oy).to_bits(), moment.to_bits(), "{p:?}");
            }
        }
    }

    #[test]
    fn moment_kernels_step_by_twice_the_displacement_minus_one() {
        // The property is checked for real on at least one kernel.
        const _: () = assert!(KL2Sq::MOMENTS);
        for p in ALL {
            with_kernel!(p, k => assert_moment_form(k, p));
        }
    }

    /// The pre-SoA integer arithmetic, kept verbatim as the reference.
    fn reference_value(p: Potential, dx: i32, dy: i32) -> f64 {
        let l1 = (dx.unsigned_abs() + dy.unsigned_abs()) as f64;
        match p {
            Potential::L1 => l1,
            Potential::L1Squared => l1 * l1,
            Potential::L2Squared => (dx as f64) * (dx as f64) + (dy as f64) * (dy as f64),
            Potential::EnergyModel { en_r, en_w } => (l1 + 1.0) * en_r + l1 * en_w,
        }
    }
}
