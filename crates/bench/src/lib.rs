//! Shared workload generators and report formatting for the benchmark
//! harness — one binary per paper table/figure (see DESIGN.md §4).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate a payload of `len` bytes where each byte is a flag/escape
/// character with probability `density` (the Figure 5/6 sweep axis).
pub fn payload_with_flag_density(len: usize, density: f64, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen_bool(density) {
                if rng.gen_bool(0.5) {
                    0x7E
                } else {
                    0x7D
                }
            } else {
                // Re-draw until we get a non-special byte so density is
                // exact, not approximate.
                loop {
                    let b: u8 = rng.gen();
                    if b != 0x7E && b != 0x7D {
                        break b;
                    }
                }
            }
        })
        .collect()
}

/// A plausible IPv4 datagram payload: header-ish bytes then body.
pub fn ip_like_datagram(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Vec::with_capacity(len);
    d.push(0x45); // version/IHL
    d.push(0x00);
    d.extend_from_slice(&(len as u16).to_be_bytes());
    while d.len() < len {
        d.push(rng.gen());
    }
    d.truncate(len);
    d
}

/// Internet-mix frame sizes (the classic trimodal distribution).
pub fn imix_sizes(count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| match rng.gen_range(0..12) {
            0..=6 => 40,   // ~58% small
            7..=10 => 576, // ~33% medium
            _ => 1500,     // ~9% full MTU
        })
        .collect()
}

/// Medians of an interleaved overhead measurement: `run(false)` times
/// the baseline, `run(true)` the variant, alternated rep by rep with the
/// baseline at both ends (`pairs` variant runs between `pairs + 1`
/// baseline ones, after one unrecorded baseline run that faults in the
/// process heap).  Each variant run is paired with the mean of the
/// baseline runs on either side of it, so host drift and any
/// first-or-second-of-a-pair effect land on both sides of every ratio.
/// Returns the medians `(baseline_s, variant_s, variant / baseline)`;
/// the last is the overhead a gate reads.
pub fn interleaved_overhead(pairs: usize, mut run: impl FnMut(bool) -> f64) -> (f64, f64, f64) {
    run(false);
    let mut base = vec![run(false)];
    let (mut variant, mut ratio) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        let v = run(true);
        let b = run(false);
        ratio.push(2.0 * v / (base[base.len() - 1] + b));
        variant.push(v);
        base.push(b);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    (median(base), median(variant), median(ratio))
}

/// Render a separator + title like the paper's table captions.
pub fn heading(title: &str) -> String {
    format!("\n{}\n{}\n", title, "=".repeat(title.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_zero_has_no_specials() {
        let p = payload_with_flag_density(10_000, 0.0, 1);
        assert!(p.iter().all(|&b| b != 0x7E && b != 0x7D));
    }

    #[test]
    fn density_one_is_all_specials() {
        let p = payload_with_flag_density(1_000, 1.0, 2);
        assert!(p.iter().all(|&b| b == 0x7E || b == 0x7D));
    }

    #[test]
    fn density_half_is_roughly_half() {
        let p = payload_with_flag_density(100_000, 0.5, 3);
        let specials = p.iter().filter(|&&b| b == 0x7E || b == 0x7D).count();
        assert!((40_000..60_000).contains(&specials));
    }

    #[test]
    fn imix_is_trimodal() {
        let sizes = imix_sizes(1000, 4);
        assert!(sizes.iter().all(|s| [40, 576, 1500].contains(s)));
        assert!(sizes.iter().filter(|&&s| s == 40).count() > 300);
    }

    #[test]
    fn ip_like_has_requested_length() {
        assert_eq!(ip_like_datagram(100, 7).len(), 100);
        assert_eq!(ip_like_datagram(4, 7).len(), 4);
    }
}
