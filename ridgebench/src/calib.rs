//! Machine-speed calibration.
//!
//! On a shared host the speed of one core swings by tens of percent
//! over seconds to minutes (a neighbour's load on the same physical
//! core, frequency changes), and a run's median wall time follows the
//! swing: two runs of the same code minutes apart differ by more than
//! any bound a regression check could use. So every timed stretch is
//! paired with one *calibration slice* run right after it: a fixed loop
//! owned by the benchmark. The loop keeps all its state in registers, so
//! no change to the stack can speed it up or slow it down, not even
//! through the caches the stack leaves behind; and it is branchy,
//! instruction-parallel integer work, which a busy sibling slows the way
//! it slows the stack's own bookkeeping.
//!
//! Every time the benchmark reports is in *reference seconds*: the wall
//! time scaled by [`NOMINAL_SLICE_S`] over the slice measured next to
//! it, i.e. the time the stretch would have taken on a core that runs
//! one slice in [`NOMINAL_SLICE_S`].

use std::hint::black_box;
use std::time::Instant;

/// Wall time of one slice on the reference core; about what one
/// uncontended core of a Sapphire Rapids Xeon VM takes.
pub const NOMINAL_SLICE_S: f64 = 4.0e-3;

/// Iterations of one slice.
const ITERATIONS: u64 = 2_000_000;

/// Runs one calibration slice; returns its wall time in seconds.
#[inline(never)]
pub fn slice_s() -> f64 {
    let started = Instant::now();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let mut acc = 0u64;
    for i in 0..black_box(ITERATIONS) {
        a = a.rotate_left(7) ^ i.wrapping_mul(0x9E37_79B9);
        b = b.wrapping_add(a >> 3);
        c ^= b.wrapping_mul(3);
        d = d.wrapping_add(c | i);
        // Data-dependent, taken about one time in four.
        if (d >> 17) & 3 == 1 {
            acc = acc.wrapping_add(a);
        } else {
            acc ^= c;
        }
    }
    black_box((a, b, c, d, acc));
    started.elapsed().as_secs_f64()
}

/// Runs one slice and returns the factor that turns wall time measured
/// just before it into reference seconds.
pub fn scale() -> f64 {
    NOMINAL_SLICE_S / slice_s()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_takes_measurable_time() {
        let s = slice_s();
        assert!(s > 1e-5 && s < 1.0, "slice took {s} s");
        assert!(scale() > 0.0);
    }
}
