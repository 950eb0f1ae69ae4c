//! Host-speed calibration of the host-time end-to-end metrics.
//!
//! On a shared machine the same op runs up to twice as slowly for tens
//! of seconds while neighbours are busy, so a median of wall times moves
//! with the neighbours more than with the program. A fixed reference
//! kernel, timed next to the ops, slows down with them: over four
//! minutes of back-to-back `fleet-steady` runs on a 2-vCPU KVM guest
//! (2.1 GHz Xeon), the median op time of 10 s windows ranged from 12.7
//! to 19.4 ms while the median ratio of op time to kernel time stayed
//! within 57–64.
//!
//! Host-time end-to-end metrics are therefore reported at a reference
//! speed: an interval's wall time × [`REFERENCE_NS`] ÷ the kernel's time
//! measured at most [`PERIOD`] from it. On a host where the kernel takes
//! [`REFERENCE_NS`], that is the wall time itself. The kernel is
//! benchmark code, identical on every commit, so a program change that
//! makes an op k% slower makes its calibrated time k% larger.

use std::hint::black_box;
use std::time::{Duration, Instant as Wall};

/// The kernel's time on an idle vCPU of the baseline host (its tenth
/// percentile there was 205 µs), so calibrated times read close to the
/// wall times of an uncontended run on that host.
pub const REFERENCE_NS: f64 = 200_000.0;

/// The longest an op's calibration waits for a fresh kernel timing.
const PERIOD: Duration = Duration::from_millis(10);

/// Elements of the kernel's working array (32 KiB).
const SLOTS: usize = 4_096;

/// Kernel steps: about 0.2 ms on the baseline host, 1–2% of the time
/// of the ops it calibrates.
const STEPS: u64 = 200_000;

/// Times one run of the reference kernel: an LCG scattering its state
/// over a small array, integer work with loads and stores in L1.
pub fn kernel_ns() -> f64 {
    let t = Wall::now();
    let mut slots = vec![0u64; SLOTS];
    let mut x = 1u64;
    for k in 0..black_box(STEPS) {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
        slots[(x >> 52) as usize] ^= x;
    }
    black_box(&slots);
    t.elapsed().as_nanos() as f64
}

/// The factor that takes a wall time measured alongside a kernel timing
/// of `kernel_ns` to the reference speed.
pub fn scale_for(kernel_ns: f64) -> f64 {
    REFERENCE_NS / kernel_ns.max(1.0)
}

/// The kernel timings of one measuring loop, refreshed every [`PERIOD`].
#[derive(Default)]
pub struct Calibration {
    last: Option<(Wall, f64)>,
    /// Every kernel timing taken, ns.
    pub kernel_ns: Vec<f64>,
}

impl Calibration {
    /// The scale for an interval that has just ended: the last kernel
    /// timing when it is recent, otherwise a fresh one taken now.
    pub fn scale(&mut self) -> f64 {
        let ns = match self.last {
            Some((at, ns)) if at.elapsed() < PERIOD => ns,
            _ => {
                let ns = kernel_ns();
                self.kernel_ns.push(ns);
                self.last = Some((Wall::now(), ns));
                ns
            }
        };
        scale_for(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_reuses_a_recent_timing_and_scales_inversely() {
        let mut c = Calibration::default();
        let first = c.scale();
        assert_eq!(c.kernel_ns.len(), 1);
        // Within the period the same timing serves again.
        if c.last.is_some_and(|(at, _)| at.elapsed() < PERIOD / 2) {
            assert_eq!(c.scale(), first);
            assert_eq!(c.kernel_ns.len(), 1);
        }
        assert_eq!(scale_for(REFERENCE_NS), 1.0);
        assert_eq!(scale_for(2.0 * REFERENCE_NS), 0.5);
        assert!(kernel_ns() > 0.0);
    }
}
