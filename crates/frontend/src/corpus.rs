//! The paper's evaluation kernels (§4) as shipped `.tk` sources: SOR,
//! Jacobi, and ADI integration in its single-array and faithful two-array
//! (Table 3) forms. These files are the one definition of the paper's
//! workloads; compile one at other sizes with
//! [`compile_kernel_with`](crate::compile_kernel_with).

/// Gauss SOR, ω = 1.1, skewed by `T = [1,0,0; 1,1,0; 2,0,1]` (params `M`, `N`).
pub const SOR: &str = include_str!("../../../examples/kernels/sor.tk");
/// Jacobi, skewed by `T = [1,0,0; 1,1,0; 1,0,1]` (params `T`, `N`).
pub const JACOBI: &str = include_str!("../../../examples/kernels/jacobi.tk");
/// Single-array ADI with Table 3's dependences, unskewed (params `T`, `N`).
pub const ADI: &str = include_str!("../../../examples/kernels/adi.tk");
/// Two-array ADI of Table 3, unskewed (params `T`, `N`).
pub const ADI_PAPER: &str = include_str!("../../../examples/kernels/adi_paper.tk");

/// A paper kernel at fixed sizes and the fingerprint of its sequential
/// execution: [`DataSpace::bit_hash`](tilecc_loopnest::DataSpace::bit_hash)
/// and the written-cell count.
pub struct Frozen {
    pub name: &'static str,
    pub source: &'static str,
    pub overrides: &'static [(&'static str, i64)],
    pub hash: u64,
    pub written: usize,
}

/// Fingerprints of the hand-written Rust kernels these sources replaced,
/// recorded from those kernels before their removal, at the sizes the
/// files declare and at the sizes `perf` benches them at. The corpus must
/// reproduce them bit for bit.
#[rustfmt::skip]
pub const FROZEN: [Frozen; 8] = [
    Frozen { name: "sor", source: SOR, overrides: &[], hash: 0x3197_53db_88f3_2b39, written: 1152 },
    Frozen { name: "jacobi", source: JACOBI, overrides: &[], hash: 0x1f2b_b012_0759_898d, written: 384 },
    Frozen { name: "adi", source: ADI, overrides: &[], hash: 0xd64b_e858_61b1_8776, written: 384 },
    Frozen { name: "adi_paper", source: ADI_PAPER, overrides: &[], hash: 0x55e7_5776_e879_a540, written: 384 },
    Frozen { name: "sor", source: SOR, overrides: &[("M", 24), ("N", 32)], hash: 0x3340_9994_1a3a_fa34, written: 24576 },
    Frozen { name: "jacobi", source: JACOBI, overrides: &[("T", 16), ("N", 24)], hash: 0x7655_a086_6dc7_d126, written: 9216 },
    Frozen { name: "adi", source: ADI, overrides: &[("T", 16), ("N", 24)], hash: 0xfcea_045b_d3f5_bf49, written: 9216 },
    Frozen { name: "adi_paper", source: ADI_PAPER, overrides: &[("T", 16), ("N", 24)], hash: 0xcb5f_9dfc_c80a_504f, written: 9216 },
];
