//! The workspace's one door into code compiled for CPU features the
//! baseline target lacks.
//!
//! Two hot loops gain from AVX-512: the device model's flip-index hashing
//! (`hammervolt-dram`, 64-bit multiplies that SSE2 lacks) and the SPICE
//! lane solver's Newton iteration (`hammervolt-spice`, eight `f64` lanes a
//! register). Each writes its loop as safe Rust behind [`Kernel`], and
//! [`Avx512::run`] compiles it for AVX-512F, DQ and VL. Calling a function
//! compiled for features the CPU may lack is `unsafe`, so that call is the
//! workspace's one `unsafe` block, reachable only through a proof
//! ([`Avx512`]) that [`Avx512::detect`] alone can make.
//!
//! The module lives here because this crate sits below both users without
//! a dependency of its own: `hammervolt-dram` uses it directly and
//! `hammervolt-spice` through `hammervolt-par`'s re-export.

/// A block of safe code that [`Avx512::run`] compiles for AVX-512F, DQ and
/// VL. Each implementation marks `run` `#[inline(always)]`, so its body is
/// inlined into the feature-enabled caller and vectorized there; called
/// directly, the same body is the portable build.
pub trait Kernel {
    /// What the kernel returns.
    type Output;
    /// Runs the kernel.
    fn run(self) -> Self::Output;
}

/// Proof that this host runs AVX-512F, DQ and VL, the features
/// [`Avx512::run`] compiles kernels for. Its field is private, so only
/// [`Avx512::detect`] makes one.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Avx512(());

#[cfg(target_arch = "x86_64")]
impl Avx512 {
    /// The proof, if this host has all three features.
    /// `is_x86_feature_detected!` caches its answer, so a call costs a few
    /// loads.
    pub fn detect() -> Option<Self> {
        let wide = std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512dq")
            && std::is_x86_feature_detected!("avx512vl");
        wide.then_some(Avx512(()))
    }

    /// Runs `kernel` compiled for AVX-512F, DQ and VL.
    #[allow(unsafe_code)]
    #[inline]
    pub fn run<K: Kernel>(self, kernel: K) -> K::Output {
        // SAFETY: `run_avx512` is safe Rust compiled with
        // `target_feature(enable = "avx512f,avx512dq,avx512vl")`; calling it
        // is sound exactly when the CPU has those features. `self` exists
        // only because `Avx512::detect` found all three on this host.
        unsafe { run_avx512(kernel) }
    }
}

/// [`Avx512::run`]'s feature-enabled frame: one instantiation per kernel,
/// with the kernel's `#[inline(always)]` body compiled inside it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn run_avx512<K: Kernel>(kernel: K) -> K::Output {
    kernel.run()
}
