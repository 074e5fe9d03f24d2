//! Runtime dispatch onto the hardware fused multiply-add.
//!
//! [`Scalar::mul_add`](crate::Scalar::mul_add) is an exactly rounded fused
//! multiply-add on every host. Compiled for the baseline x86-64 target it is a
//! call into the runtime library's `fmaf`/`fma`, one call per multiply-add in
//! a serial chain. [`dispatch`] runs a hot loop inside a function compiled
//! with `avx2,fma` when the CPU has both, so every `mul_add` in it becomes one
//! `vfmadd` instruction and independent accumulators can share a vector
//! register. The fused result is the same single rounding either way: the
//! dispatch changes speed, never bits.

/// Run `f` in a context compiled with AVX2 and FMA when the CPU supports
/// both, and as ordinary code otherwise.
///
/// The closure must be marked `#[inline(always)]`, and every function it
/// calls on its hot path must be `#[inline(always)]` too: only code inlined
/// into the feature-enabled frame is compiled with the features.
///
/// ```
/// let dot = popcorn_dense::fma::dispatch(
///     #[inline(always)]
///     || [1.0f32, 2.0].iter().fold(0.0f32, |acc, &x| x.mul_add(x, acc)),
/// );
/// assert_eq!(dot, 5.0);
/// ```
#[inline(always)]
pub fn dispatch<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: `with_avx2_fma` only requires the CPU to support AVX2 and
        // FMA, which the two `is_x86_feature_detected!` checks above confirm.
        return unsafe { with_avx2_fma(f) };
    }
    f()
}

/// Calls `f` in a frame compiled with AVX2 and FMA. Callers outside such a
/// frame must first confirm the CPU supports both.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn with_avx2_fma<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatched_fma_matches_the_generic_fma_bit_for_bit() {
        // Products whose exact value needs the fused single rounding: an
        // unfused multiply-then-add would round twice and differ.
        let values =
            std::hint::black_box([1.0 + f64::EPSILON, -0.0, 5e-324, 1e308, f64::INFINITY, -3.5]);
        for &a in &values {
            for &b in &values {
                for &c in &values {
                    let generic = a.mul_add(b, c);
                    let fast = dispatch(
                        #[inline(always)]
                        || a.mul_add(b, c),
                    );
                    assert_eq!(generic.to_bits(), fast.to_bits(), "fma({a}, {b}, {c})");
                }
            }
        }
    }
}
