//! Run-time kernel dispatch: the crate's one feature-detected call.
//!
//! A [`Kernel`] writes its body once, generic over `WIDE`, and marks it
//! `#[inline(always)]`. [`dispatch`] runs it as `run::<true>()` inlined
//! into a function compiled for AVX-512F/DQ when the CPU has both, and
//! as `run::<false>()` for the baseline target otherwise. The body may
//! pick a shape by `WIDE` (more accumulators, more records at once), but
//! both shapes must perform the same operations in the same order per
//! output, so every CPU computes bit-identical results.

/// A kernel body [`dispatch`] can compile for two targets.
pub(crate) trait Kernel {
    /// What one run returns.
    type Output;

    /// The body. Implementations are `#[inline(always)]`, and so is every
    /// helper they call on the hot path, so that the whole body is
    /// compiled inside the AVX-512 trampoline when `WIDE` is `true`.
    fn run<const WIDE: bool>(self) -> Self::Output;
}

/// Whether this CPU runs the AVX-512 copy of every [`Kernel`].
pub(crate) fn has_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx512f") && std::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `kernel`: its wide shape compiled for AVX-512F/DQ where the CPU
/// has them, else its portable shape compiled for the baseline target.
#[inline]
pub(crate) fn dispatch<K: Kernel>(kernel: K) -> K::Output {
    #[cfg(target_arch = "x86_64")]
    if has_avx512() {
        // SAFETY: the only requirement of calling a `target_feature`
        // function is that the CPU supports the enabled features, which
        // `has_avx512` has just established at run time.
        return unsafe { run_avx512(kernel) };
    }
    kernel.run::<false>()
}

/// The AVX-512 trampoline: `kernel`'s wide shape, inlined into a function
/// compiled with AVX-512F (`zmm` floating-point lanes, `vpminuq`) and
/// AVX-512DQ (`vpmullq`) enabled.
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512DQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn run_avx512<K: Kernel>(kernel: K) -> K::Output {
    kernel.run::<true>()
}
