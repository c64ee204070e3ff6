//! Adaptive-filtering benchmark: FIR filters with constant-propagated
//! coefficients.
//!
//! The paper's second experiment "combined 10 low pass and 10 high pass
//! finite impulse response (FIR) filters into 10 multi-mode circuits. The
//! non-zero coefficients were chosen randomly, after which all the
//! constants were propagated. Such a FIR filter is 3 times smaller than
//! the generic version." (§IV-A)
//!
//! [`specialized_fir`] builds a direct-form FIR with *constant*
//! coefficients: each tap multiplier becomes a canonical-signed-digit
//! (CSD) shift-add network and the AIG's constant propagation removes the
//! zero taps entirely. [`generic_fir`] keeps the coefficients as inputs —
//! the full programmable filter used for the area comparison.

use crate::words::Word;
use mm_netlist::GateNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a constant-coefficient FIR filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirSpec {
    /// Filter name (becomes the circuit name).
    pub name: String,
    /// Signed coefficients, one per tap (zeros allowed and common).
    pub taps: Vec<i32>,
    /// Input sample width in bits.
    pub data_width: usize,
}

impl FirSpec {
    /// Accumulator width needed to hold `Σ |c_i| · max_sample` plus sign.
    #[must_use]
    pub fn accumulator_width(&self) -> usize {
        let sum_abs: i64 = self.taps.iter().map(|&c| i64::from(c.abs())).sum();
        let max_mag = sum_abs.max(1) * ((1i64 << self.data_width) - 1);
        let mut bits = 1usize;
        while (1i64 << bits) <= max_mag {
            bits += 1;
        }
        bits + 1 // sign
    }

    /// Reference (software) filter response for validation: `y[n]` given
    /// the full input history `x[0..=n]`.
    #[must_use]
    pub fn reference_output(&self, history: &[u64], n: usize) -> i64 {
        let mut acc = 0i64;
        for (i, &c) in self.taps.iter().enumerate() {
            if n >= i {
                acc += i64::from(c) * history[n - i] as i64;
            }
        }
        acc
    }
}

/// Canonical signed-digit decomposition: returns `(shift, negative)`
/// digits such that `value = Σ ±2^shift` with no two adjacent digits.
#[must_use]
pub fn csd_digits(value: i32) -> Vec<(usize, bool)> {
    let mut digits = Vec::new();
    let mut n = i64::from(value);
    let mut shift = 0usize;
    while n != 0 {
        if n & 1 != 0 {
            // ±1 digit choosing the remainder that clears two bits.
            let d: i64 = 2 - (n & 3);
            digits.push((shift, d < 0));
            n -= d;
        }
        n >>= 1;
        shift += 1;
    }
    digits
}

/// Builds the direct-form FIR with constant coefficients.
///
/// Inputs `x0..x{W-1}` (unsigned sample), outputs `y0..` (two's-complement
/// accumulator). The delay line is truncated after the last non-zero tap —
/// exactly what constant propagation achieves on the generic filter.
#[must_use]
pub fn specialized_fir(spec: &FirSpec) -> GateNetwork {
    let mut net = GateNetwork::new(spec.name.clone());
    let x = Word::inputs(&mut net, "x", spec.data_width);
    let acc_w = spec.accumulator_width();

    // Delay line up to the last non-zero tap.
    let last_used = spec.taps.iter().rposition(|&c| c != 0).unwrap_or(0);
    let mut delayed: Vec<Word> = Vec::with_capacity(last_used + 1);
    let mut current = x;
    for i in 0..=last_used {
        if i > 0 {
            current = current.registered(&mut net, false);
        }
        delayed.push(current.clone());
    }

    // Sum of CSD partial products.
    let mut acc = Word::constant(&mut net, 0, acc_w);
    for (i, &c) in spec.taps.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let xi = delayed[i].resize(&mut net, acc_w, false);
        for (shift, negative) in csd_digits(c) {
            let term = xi
                .shifted_left(&mut net, shift)
                .resize(&mut net, acc_w, false);
            acc = if negative {
                acc.sub(&mut net, &term).0
            } else {
                acc.add(&mut net, &term).0
            };
        }
    }

    let y = acc.registered(&mut net, false);
    y.export(&mut net, "y");
    net
}

/// Builds the generic (programmable-coefficient) direct-form FIR: the
/// coefficients are two's-complement inputs `c<i>_<bit>`. This is the
/// baseline for the paper's "3 times smaller" area claim.
#[must_use]
pub fn generic_fir(name: &str, taps: usize, data_width: usize, coef_width: usize) -> GateNetwork {
    let mut net = GateNetwork::new(name.to_string());
    let x = Word::inputs(&mut net, "x", data_width);
    let coefs: Vec<Word> = (0..taps)
        .map(|i| Word::inputs(&mut net, &format!("c{i}_"), coef_width))
        .collect();
    // Worst-case accumulator width.
    let acc_w = data_width + coef_width + taps.next_power_of_two().trailing_zeros() as usize + 1;

    let mut delayed = x;
    let mut acc = Word::constant(&mut net, 0, acc_w);
    for (i, coef) in coefs.iter().enumerate() {
        if i > 0 {
            delayed = delayed.registered(&mut net, false);
        }
        let xi = delayed.resize(&mut net, acc_w, false);
        // Signed multiply: sum of gated shifts; the coefficient MSB is the
        // sign digit (subtract).
        for bit in 0..coef_width {
            let term = xi
                .shifted_left(&mut net, bit)
                .resize(&mut net, acc_w, false)
                .gated(&mut net, coef.bit(bit));
            acc = if bit == coef_width - 1 {
                acc.sub(&mut net, &term).0
            } else {
                acc.add(&mut net, &term).0
            };
        }
    }
    let y = acc.registered(&mut net, false);
    y.export(&mut net, "y");
    net
}

/// Randomly generated low-pass taps: a symmetric positive main lobe, with
/// `nonzero` taps set (paper: "the non-zero coefficients were chosen
/// randomly").
#[must_use]
pub fn lowpass_taps(tap_count: usize, nonzero: usize, max_magnitude: i32, seed: u64) -> Vec<i32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut taps = vec![0i32; tap_count];
    let mut positions = pick_symmetric_positions(tap_count, nonzero, &mut rng);
    positions.sort_unstable();
    let centre = (tap_count as f64 - 1.0) / 2.0;
    for &p in &positions {
        // Larger magnitudes near the centre, always positive: a low-pass
        // main-lobe shape.
        let dist = ((p as f64 - centre).abs() / centre.max(1.0)).min(1.0);
        let scale = 1.0 - 0.7 * dist;
        let magnitude = rng.gen_range(1..=max_magnitude.max(1));
        taps[p] = ((f64::from(magnitude) * scale).round() as i32).max(1);
    }
    taps
}

/// Randomly generated high-pass taps: the low-pass lobe modulated by
/// `(-1)^n` (spectral inversion).
#[must_use]
pub fn highpass_taps(tap_count: usize, nonzero: usize, max_magnitude: i32, seed: u64) -> Vec<i32> {
    let mut taps = lowpass_taps(tap_count, nonzero, max_magnitude, seed ^ 0x9e37_79b9);
    for (i, t) in taps.iter_mut().enumerate() {
        if i % 2 == 1 {
            *t = -*t;
        }
    }
    taps
}

fn pick_symmetric_positions(tap_count: usize, nonzero: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut positions: Vec<usize> = Vec::new();
    let half = tap_count / 2;
    while positions.len() < nonzero.min(tap_count) {
        let p = rng.gen_range(0..=half.min(tap_count - 1));
        let mirror = tap_count - 1 - p;
        if !positions.contains(&p) {
            positions.push(p);
            if positions.len() < nonzero && !positions.contains(&mirror) && mirror != p {
                positions.push(mirror);
            }
        }
    }
    positions.truncate(nonzero);
    positions
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_netlist::GateSimulator;

    fn run_filter(net: &GateNetwork, spec: &FirSpec, samples: &[u64]) -> Vec<i64> {
        let mut sim = GateSimulator::new(net);
        let acc_w = spec.accumulator_width();
        let mut out = Vec::new();
        for &s in samples {
            let bits: Vec<bool> = (0..spec.data_width).map(|i| (s >> i) & 1 == 1).collect();
            let y = sim.step(&bits);
            // Outputs are registered: result of the *previous* cycle.
            out.push(sign_extend(&y, acc_w));
        }
        // One more cycle to flush the output register.
        let y = sim.step(&vec![false; spec.data_width]);
        out.push(sign_extend(&y, acc_w));
        out.remove(0);
        out
    }

    fn sign_extend(bits: &[bool], width: usize) -> i64 {
        let mut v = 0i64;
        for (i, &b) in bits.iter().enumerate().take(width) {
            if b {
                v |= 1 << i;
            }
        }
        if bits[width - 1] {
            v -= 1 << width;
        }
        v
    }

    #[test]
    fn csd_reconstructs_values() {
        for v in [-1000i32, -255, -7, -1, 0, 1, 3, 5, 7, 23, 100, 255, 683] {
            let digits = csd_digits(v);
            let sum: i64 = digits
                .iter()
                .map(|&(s, neg)| {
                    let m = 1i64 << s;
                    if neg {
                        -m
                    } else {
                        m
                    }
                })
                .sum();
            assert_eq!(sum, i64::from(v), "value {v}");
            // CSD property: no two adjacent non-zero digits.
            let mut shifts: Vec<usize> = digits.iter().map(|&(s, _)| s).collect();
            shifts.sort_unstable();
            for w in shifts.windows(2) {
                assert!(w[1] > w[0] + 1, "adjacent digits in CSD of {v}");
            }
        }
    }

    #[test]
    fn specialized_fir_matches_reference() {
        let spec = FirSpec {
            name: "t".into(),
            taps: vec![3, 0, -5, 0, 0, 7, 1],
            data_width: 6,
        };
        let net = specialized_fir(&spec);
        let samples: Vec<u64> = vec![1, 5, 63, 0, 17, 42, 8, 9, 60, 2, 11, 33];
        let hw = run_filter(&net, &spec, &samples);
        for (n, &y) in hw.iter().enumerate() {
            assert_eq!(y, spec.reference_output(&samples, n), "sample {n}");
        }
    }

    #[test]
    fn generic_fir_matches_reference_when_programmed() {
        // Program the generic filter's coefficient inputs with constants
        // and compare against the same reference.
        let taps = vec![2i32, -3, 0, 5];
        let (data_w, coef_w) = (4usize, 5usize);
        let net = generic_fir("g", taps.len(), data_w, coef_w);
        let mut sim = GateSimulator::new(&net);
        let samples: Vec<u64> = vec![3, 15, 7, 0, 12, 1, 9, 9, 4];
        let spec = FirSpec {
            name: "ref".into(),
            taps: taps.clone(),
            data_width: data_w,
        };
        let acc_w = data_w + coef_w + 2 + 1;
        let mut outs = Vec::new();
        for &s in &samples {
            let mut bits: Vec<bool> = (0..data_w).map(|i| (s >> i) & 1 == 1).collect();
            for &c in &taps {
                let enc = (c as i64 & ((1 << coef_w) - 1)) as u64;
                bits.extend((0..coef_w).map(|i| (enc >> i) & 1 == 1));
            }
            let y = sim.step(&bits);
            outs.push(sign_extend(&y, acc_w));
        }
        let mut flush: Vec<bool> = vec![false; data_w];
        for &c in &taps {
            let enc = (c as i64 & ((1 << coef_w) - 1)) as u64;
            flush.extend((0..coef_w).map(|i| (enc >> i) & 1 == 1));
        }
        outs.push(sign_extend(&sim.step(&flush), acc_w));
        outs.remove(0);
        for (n, &y) in outs.iter().enumerate() {
            assert_eq!(y, spec.reference_output(&samples, n), "sample {n}");
        }
    }

    #[test]
    fn accumulator_width_bounds_outputs() {
        let spec = FirSpec {
            name: "w".into(),
            taps: vec![127, 127, 127],
            data_width: 8,
        };
        // 3 * 127 * 255 = 97155 < 2^17; +sign → 18 bits.
        assert_eq!(spec.accumulator_width(), 18);
    }

    #[test]
    fn tap_generators_have_requested_sparsity() {
        for seed in 0..5 {
            let lp = lowpass_taps(20, 6, 63, seed);
            assert_eq!(lp.len(), 20);
            assert_eq!(lp.iter().filter(|&&c| c != 0).count(), 6, "seed {seed}");
            assert!(lp.iter().all(|&c| c >= 0), "low-pass taps are positive");
            let hp = highpass_taps(20, 6, 63, seed);
            assert_eq!(hp.iter().filter(|&&c| c != 0).count(), 6);
            assert!(
                hp.iter()
                    .enumerate()
                    .all(|(i, &c)| c == 0 || (i % 2 == 0) == (c > 0)),
                "high-pass signs alternate: {hp:?}"
            );
        }
    }

    #[test]
    fn specialization_shrinks_mapped_circuit() {
        // The headline property: constants propagate, zero taps vanish.
        let taps = lowpass_taps(12, 4, 31, 7);
        let spec = FirSpec {
            name: "s".into(),
            taps: taps.clone(),
            data_width: 6,
        };
        let special =
            mm_synth::synthesize(&specialized_fir(&spec), mm_synth::MapOptions::default()).unwrap();
        let generic =
            mm_synth::synthesize(&generic_fir("g", 12, 6, 6), mm_synth::MapOptions::default())
                .unwrap();
        assert!(
            special.lut_count() * 2 < generic.lut_count(),
            "specialized {} vs generic {}",
            special.lut_count(),
            generic.lut_count()
        );
    }
}
