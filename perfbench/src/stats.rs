//! Host-clock calibration, percentiles and the output digest.
//!
//! Raw wall time on a shared box drifts by tens of percent between
//! sets of runs, and slow stretches slow every layer at once.  The
//! ratio of an op's time to a fixed reference kernel run right beside
//! it is steadier, so every host time the benchmark reports is scaled
//! to what it would have been on the reference box:
//! `wall × REFERENCE_MS / measured reference ms`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Nominal reference-kernel time, in milliseconds: on the reference box
/// (2-core x86-64 VM, release build) the kernel measured 20–21 ms.
/// Calibrated times are expressed in that box's milliseconds.
pub const REFERENCE_MS: f64 = 20.0;

/// Slots the memory part shuffles and chases (1 MiB of `u32`).
const MEM_SLOTS: usize = 1 << 18;
/// Numbers the memory part formats into a `String`.
const MEM_FORMATS: u64 = 20_000;
/// Slots of the cache-resident chase (256 KiB of `u32`) and its steps.
const CACHE_SLOTS: usize = 1 << 16;
const CACHE_STEPS: usize = 1 << 20;
/// Insert/remove operations of the allocator churn.
const CHURN_OPS: u64 = 60_000;

/// One run of the reference kernel, three fixed parts on one thread: a
/// memory-bound part (allocate and fill, format into a `String`, chase
/// a pointer cycle through 1 MiB), a cache-resident pointer chase, and
/// small-object allocator churn.  Deterministic; returns a checksum so
/// the work cannot be elided.
pub fn reference_kernel() -> u64 {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut sum = 0u64;
    // Memory: allocate, fill, format, chase.
    let cycle = random_cycle(MEM_SLOTS, &mut rng);
    let mut s = String::new();
    for i in 0..MEM_FORMATS {
        let _ = write!(s, "{:x},", i.wrapping_mul(rng.next()));
    }
    sum = sum.wrapping_add(s.len() as u64);
    sum = sum.wrapping_add(chase(&cycle, MEM_SLOTS));
    // Cache-resident chase.
    let small = random_cycle(CACHE_SLOTS, &mut rng);
    sum = sum.wrapping_add(chase(&small, CACHE_STEPS));
    // Allocator churn.
    let mut live: BTreeMap<u64, Box<[u64; 4]>> = BTreeMap::new();
    for _ in 0..CHURN_OPS {
        let x = rng.next();
        if x & 1 == 0 {
            live.insert(x % 8192, Box::new([x; 4]));
        } else {
            live.remove(&(x % 8192));
        }
    }
    sum = sum.wrapping_add(live.len() as u64);
    black_box(sum)
}

/// xorshift64.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A permutation of `0..n` that is one cycle (Sattolo's shuffle), so a
/// chase through it touches every slot.
fn random_cycle(n: usize, rng: &mut XorShift) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (rng.next() % i as u64) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Follows `cycle` for `steps` steps; returns the sum of the slots seen.
fn chase(cycle: &[u32], steps: usize) -> u64 {
    let mut at = 0usize;
    let mut sum = 0u64;
    for _ in 0..steps {
        at = cycle[at] as usize;
        sum = sum.wrapping_add(at as u64);
    }
    sum
}

/// Wall milliseconds of one reference-kernel run.
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    black_box(reference_kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// Scales a host time measured while the reference kernel took
/// `measured_ref_ms` to reference-box time.
pub fn calibrate(raw: f64, measured_ref_ms: f64) -> f64 {
    raw * REFERENCE_MS / measured_ref_ms
}

/// Median of `xs` (the mean of the two middle values for an even
/// count).  `xs` must be non-empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond a reported high percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Zero-based nearest-rank index of the p90 sample in a sorted set of
/// `n`, capped so that at least [`TAIL_SAMPLES`] samples lie beyond it.
/// `n` must exceed `TAIL_SAMPLES`.
pub fn p90_rank(n: usize) -> usize {
    assert!(n > TAIL_SAMPLES, "p90 of {n} samples has no tail");
    let nearest = (n * 9).div_ceil(10) - 1;
    nearest.min(n - 1 - TAIL_SAMPLES)
}

/// The p90 sample of `xs` by [`p90_rank`].
pub fn p90(xs: &[f64]) -> f64 {
    sorted(xs)[p90_rank(xs.len())]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistic of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a length-prefixed string, so `["ab", "c"]` and
    /// `["a", "bc"]` hash differently.
    pub fn text(&mut self, s: &str) -> &mut Self {
        self.bytes(&(s.len() as u64).to_le_bytes())
            .bytes(s.as_bytes())
    }

    /// Folds one integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_rank_leaves_ten_samples_beyond_it() {
        for n in TAIL_SAMPLES + 1..2_000 {
            let r = p90_rank(n);
            assert!(n - 1 - r >= TAIL_SAMPLES, "n={n} rank={r}");
        }
        // With enough samples the cap is inactive: the nearest rank.
        assert_eq!(p90_rank(100), 89);
        assert_eq!(p90_rank(250), 224);
        // Below 110 samples the cap wins.
        assert_eq!(p90_rank(50), 39);
    }

    #[test]
    fn p90_picks_the_ranked_sample() {
        let xs: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(p90(&xs), 180.0);
        assert_eq!(median(&xs), 100.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn calibration_is_identity_at_the_reference() {
        for raw in [0.5, 12.25, 87.0, 1e6] {
            assert_eq!(calibrate(raw, REFERENCE_MS), raw);
        }
        // A box running twice as slow halves every measured time.
        assert_eq!(calibrate(40.0, 2.0 * REFERENCE_MS), 20.0);
    }

    #[test]
    fn digest_is_stable() {
        // FNV-1a reference vectors.
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
        let h = |parts: &[&str]| {
            let mut f = Fnv::default();
            for p in parts {
                f.text(p);
            }
            f.finish()
        };
        assert_eq!(h(&["ab", "c"]), h(&["ab", "c"]));
        assert_ne!(h(&["ab", "c"]), h(&["a", "bc"]));
    }

    #[test]
    fn reference_kernel_is_deterministic() {
        assert_eq!(reference_kernel(), reference_kernel());
        let mut rng = XorShift(7);
        let cycle = random_cycle(64, &mut rng);
        // One cycle: 64 steps from slot 0 visit every slot once.
        assert_eq!(chase(&cycle, 64), (0..64).sum::<u64>());
    }
}
