//! Host roofline probes: an FMA-throughput loop and a streaming copy, run on
//! as many threads as the workspace's kernels use. Their results are the
//! denominators of the per-layer roofline fractions.

use std::hint::black_box;
use std::time::Instant;

/// Independent accumulators per thread: sixteen 8-wide vectors, enough to
/// cover the FMA latency on two ports.
const LANES: usize = 128;
/// Loop trips per timed FMA probe (per thread).
const FMA_ITERS: u64 = 4_000_000;
/// Timed repetitions of each probe; the best one is reported.
const REPS: usize = 5;

/// Measured host ceilings.
#[derive(Debug, Clone, Copy)]
pub struct Roofline {
    /// Peak single-precision FMA throughput, GFLOP/s (all kernel threads).
    pub fma_gflops: f64,
    /// Streaming copy bandwidth, GB/s (bytes read + bytes written).
    pub copy_gbs: f64,
}

impl Roofline {
    /// The attainable rate, GFLOP/s, of a kernel with `flops_per_byte`
    /// computed arithmetic intensity.
    pub fn attainable_gflops(&self, flops_per_byte: f64) -> f64 {
        self.fma_gflops.min(self.copy_gbs * flops_per_byte)
    }
}

/// Size of the last-level (L3) cache the OS reports for CPU 0, bytes.
pub fn l3_bytes() -> Option<u64> {
    (0..8).find_map(|index| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
        if level.trim() != "3" {
            return None;
        }
        let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
        let size = size.trim();
        let (digits, scale) = match size.as_bytes().last()? {
            b'K' => (&size[..size.len() - 1], 1 << 10),
            b'M' => (&size[..size.len() - 1], 1 << 20),
            b'G' => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        Some(digits.parse::<u64>().ok()? * scale)
    })
}

fn fma_lanes(iters: u64, scale: f32, shift: f32) -> f32 {
    let mut acc = [0.0f32; LANES];
    for (i, lane) in acc.iter_mut().enumerate() {
        *lane = i as f32 * 1e-3;
    }
    for _ in 0..iters {
        for lane in acc.iter_mut() {
            *lane = lane.mul_add(scale, shift);
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fma_lanes_avx2(iters: u64, scale: f32, shift: f32) -> f32 {
    fma_lanes(iters, scale, shift)
}

/// One thread's FMA loop; `f32::mul_add` compiles to a hardware FMA only
/// when the feature is enabled, so the probe dispatches on it at run time.
fn fma_probe(iters: u64) -> f32 {
    let (scale, shift) = (black_box(0.999_999), black_box(1e-6));
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: the CPU supports AVX2 and FMA, checked just above.
        return unsafe { fma_lanes_avx2(iters, scale, shift) };
    }
    fma_lanes(iters, scale, shift)
}

fn best_of<F: FnMut() -> f64>(mut rate: F) -> f64 {
    (0..REPS).map(|_| rate()).fold(0.0, f64::max)
}

/// Peak FMA throughput over `threads` threads, GFLOP/s (two flops per FMA).
fn fma_gflops(threads: usize) -> f64 {
    fma_probe(1000); // first-touch of the code path
    best_of(|| {
        let start = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| black_box(fma_probe(black_box(FMA_ITERS)))))
                .collect();
            for handle in handles {
                handle.join().expect("fma probe thread panicked");
            }
        });
        let flops = 2.0 * LANES as f64 * FMA_ITERS as f64 * threads as f64;
        flops / start.elapsed().as_secs_f64() / 1e9
    })
}

/// Streaming copy bandwidth over `threads` threads between two arrays of
/// `bytes` each, GB/s counting the bytes read and the bytes written.
fn copy_gbs(threads: usize, bytes: usize) -> f64 {
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    let chunk = bytes.div_ceil(threads);
    let mut pass = || {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (out, input) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                scope.spawn(move || out.copy_from_slice(input));
            }
        });
        black_box(&dst);
        2.0 * bytes as f64 / start.elapsed().as_secs_f64() / 1e9
    };
    pass(); // first touch of the destination pages
    best_of(pass)
}

/// Run both probes on `threads` threads with copy arrays of `copy_bytes`
/// each.
pub fn measure(threads: usize, copy_bytes: usize) -> Roofline {
    Roofline {
        fma_gflops: fma_gflops(threads),
        copy_gbs: copy_gbs(threads, copy_bytes),
    }
}
