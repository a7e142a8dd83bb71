//! Potential-energy field shapes (§4.4.2, eqs. 19–21 and 25) and their
//! monomorphized distance kernels.
//!
//! The FD engine's hot loops (initial force build, system-energy
//! reduction, force patching) evaluate the potential once per graph edge.
//! Two layers keep that evaluation SIMD-friendly without changing a
//! single result bit:
//!
//! * **Branch-free float arithmetic** — [`Potential::value`] computes
//!   `|dx| + |dy|` and `dx² + dy²` on `f64` scalars with `abs`, multiply
//!   and add only (float `abs` is a sign-bit mask, not a compare).
//!   Coordinates are mesh indices (`< 2¹⁶`), so every operation below is
//!   exact and bit-identical to the integer arithmetic it replaced — the
//!   provenance digests hold.
//! * **Kernel monomorphization** — the [`with_kernel!`] macro dispatches
//!   the `Potential` enum **once per loop** (per energy block, per
//!   cluster rebuild, per swap patch) to a zero-sized kernel type whose
//!   `u` inlines with no per-edge match. [`Potential::value`] evaluates
//!   the same kernels, so the hot loops and the scalar API agree bit for
//!   bit (and the provenance digests are unchanged).

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
    /// tension bookkeeping of the FD engine relies on. Evaluates the same
    /// float kernels as the FD hot loops; the conversion to `f64` is exact
    /// for any mesh-sized displacement.
    #[inline]
    pub fn value(&self, dx: i32, dy: i32) -> f64 {
        with_kernel!(*self, k => k.u(f64::from(dx), f64::from(dy)))
    }

    /// `u(unit) − u(0)`: the constant the tension formula needs to
    /// correct the double-counted mutual edge of a connected adjacent
    /// pair (their distance is preserved by a swap).
    #[inline]
    pub(crate) fn unit_step(&self) -> f64 {
        self.value(1, 0) - self.value(0, 0)
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
    /// Potential at float displacement `(dx, dy)`; exact for integer
    /// displacements (see [`Potential::value`]).
    fn u(self, dx: f64, dy: f64) -> f64;
}

/// [`Potential::L1`] kernel.
#[derive(Clone, Copy)]
pub(crate) struct KL1;
/// [`Potential::L1Squared`] kernel.
#[derive(Clone, Copy)]
pub(crate) struct KL1Sq;
/// [`Potential::L2Squared`] kernel.
#[derive(Clone, Copy)]
pub(crate) struct KL2Sq;
/// [`Potential::EnergyModel`] kernel (carries the cost coefficients).
#[derive(Clone, Copy)]
pub(crate) struct KEnergy {
    pub en_r: f64,
    pub en_w: f64,
}

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
    #[inline(always)]
    fn u(self, dx: f64, dy: f64) -> f64 {
        dx * dx + dy * dy
    }
}

impl PotKernel for KEnergy {
    #[inline(always)]
    fn u(self, dx: f64, dy: f64) -> f64 {
        let l1 = dx.abs() + dy.abs();
        (l1 + 1.0) * self.en_r + l1 * self.en_w
    }
}

/// Dispatches a [`Potential`] to its concrete [`PotKernel`] **once**,
/// binding it as `$k` inside `$body` — hoisting the enum match out of
/// whatever loop `$body` runs:
///
/// ```ignore
/// with_kernel!(self.potential, k => self.energy_block_k(k, range))
/// ```
macro_rules! with_kernel {
    ($pot:expr, $k:ident => $body:expr) => {
        match $pot {
            $crate::fd::potential::Potential::L1 => {
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
            $crate::fd::potential::Potential::EnergyModel { en_r, en_w } => {
                let $k = $crate::fd::potential::KEnergy { en_r, en_w };
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
    fn unit_step_values() {
        assert_eq!(Potential::L1.unit_step(), 1.0);
        assert_eq!(Potential::L1Squared.unit_step(), 1.0);
        assert_eq!(Potential::L2Squared.unit_step(), 1.0);
        let e = Potential::EnergyModel { en_r: 1.0, en_w: 0.1 };
        assert!((e.unit_step() - 1.1).abs() < 1e-12);
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
        let pots = [
            Potential::L1,
            Potential::L1Squared,
            Potential::L2Squared,
            Potential::EnergyModel { en_r: 20.0, en_w: 2.4 },
        ];
        for p in pots {
            for (dx, dy) in
                [(0, 0), (1, 0), (-3, 7), (255, -255), (1023, 1), (-65535, 65535)]
            {
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
