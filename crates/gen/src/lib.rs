//! Multi-mode benchmark generators.
//!
//! Recreates the paper's three experiments (§IV-A):
//!
//! * [`regexp_suite`] — five regular-expression matching engines compiled
//!   from IDS payload patterns ([`regex`]); all 10 pairs of two engines
//!   form the `RegExp` multi-mode circuits.
//! * [`fir_suite`] — ten low-pass and ten high-pass constant-coefficient
//!   FIR filters ([`fir`]); filter `i` of each family forms multi-mode
//!   pair `i`.
//! * [`mcnc_suite`] — five MCNC-class general circuits ([`mcnc`]); all 10
//!   pairs form the `MCNC` multi-mode circuits.
//!
//! All generators are deterministic (seeded) and return circuits already
//! technology-mapped to k-input LUTs.
//!
//! Beyond the paper's pairs, the suites combine into **N-mode** problems:
//! [`all_tuples`] enumerates every ascending combination of `m` circuits
//! (RegExp/MCNC triples, quadruples, …) and [`fir_mode_tuples`]
//! generalizes the low-pass/high-pass pairing to `m` interleaved filters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod deeplogic;
pub mod fir;
pub mod mcnc;
pub mod regex;
pub mod words;

use mm_netlist::LutCircuit;
use mm_synth::MapOptions;

/// A deterministic random k=4 LUT circuit — the seeded shape the repo's
/// engine/serve/bench tests and benchmarks all share (byte-identical per
/// seed, so test fixtures and committed BENCH workloads stay stable).
///
/// # Panics
///
/// Never for sane shapes (`n_inputs >= 2`).
#[must_use]
pub fn seeded_test_circuit(name: &str, n_inputs: usize, n_luts: usize, seed: u64) -> LutCircuit {
    use mm_netlist::TruthTable;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = LutCircuit::new(name, 4);
    let mut drivers: Vec<mm_netlist::BlockId> = (0..n_inputs)
        .map(|i| c.add_input(format!("i{i}")).unwrap())
        .collect();
    for j in 0..n_luts {
        let fanin = rng.gen_range(2..=4.min(drivers.len()));
        let mut ins = Vec::new();
        while ins.len() < fanin {
            let d = drivers[rng.gen_range(0..drivers.len())];
            if !ins.contains(&d) {
                ins.push(d);
            }
        }
        let tt = TruthTable::from_bits(ins.len(), rng.gen());
        let id = c
            .add_lut(format!("n{j}"), ins, tt, rng.gen_bool(0.2))
            .unwrap();
        drivers.push(id);
    }
    for t in 0..2 {
        let d = drivers[drivers.len() - 1 - t];
        c.add_output(format!("o{t}"), d).unwrap();
    }
    c
}

/// Number of circuits in the RegExp and MCNC suites.
pub const SUITE_SIZE: usize = 5;
/// Number of filters per FIR family.
pub const FIR_FAMILY_SIZE: usize = 10;

/// Compiles the five regular-expression engines, mapped to k-LUTs.
///
/// # Panics
///
/// Panics only if a built-in pattern fails to compile (a bug).
#[must_use]
pub fn regexp_suite(k: usize) -> Vec<LutCircuit> {
    regex::bleeding_edge_patterns()
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let c = regex::RegexEngine::compile(p, k)
                .expect("built-in pattern compiles")
                .into_lut_circuit();
            rename(c, &format!("regexp{i}"))
        })
        .collect()
}

/// Generates the ten low-pass + ten high-pass specialised FIR filters
/// (indices `0..10` low-pass, `10..20` high-pass), mapped to k-LUTs.
///
/// # Panics
///
/// Panics only on internal synthesis errors (a bug).
#[must_use]
pub fn fir_suite(k: usize) -> Vec<LutCircuit> {
    let mut out = Vec::with_capacity(2 * FIR_FAMILY_SIZE);
    for i in 0..FIR_FAMILY_SIZE {
        let spec = fir::FirSpec {
            name: format!("fir_lp{i}"),
            taps: fir::lowpass_taps(14, 7, 7, 1000 + i as u64),
            data_width: 8,
        };
        out.push(map(&fir::specialized_fir(&spec), k));
    }
    for i in 0..FIR_FAMILY_SIZE {
        let spec = fir::FirSpec {
            name: format!("fir_hp{i}"),
            taps: fir::highpass_taps(14, 7, 7, 2000 + i as u64),
            data_width: 8,
        };
        out.push(map(&fir::specialized_fir(&spec), k));
    }
    out
}

/// The generic (programmable) FIR used as the area baseline: same tap
/// count and widths as the specialised filters.
///
/// # Panics
///
/// Panics only on internal synthesis errors (a bug).
#[must_use]
pub fn fir_generic_reference(k: usize) -> LutCircuit {
    map(&fir::generic_fir("fir_generic", 14, 8, 4), k)
}

/// Generates the five MCNC-class circuits, mapped to k-LUTs.
///
/// # Panics
///
/// Panics only on internal synthesis errors (a bug).
#[must_use]
pub fn mcnc_suite(k: usize) -> Vec<LutCircuit> {
    vec![
        map(&mcnc::alu("alu24", 24), k),
        map(&mcnc::pla("plax", 14, 20, 8, 5, 0xbeef), k),
        map(&mcnc::multiplier("mult10", 10), k),
        map(&mcnc::crc("crc32p48", 0xEDB8_8320, 32, 48), k),
        map(&mcnc::interrupt_controller("intc32", 32), k),
    ]
}

/// Generates the five deep-logic circuits — serial-multiplier-like
/// register-to-register chains wrapped in shallow noise logic
/// ([`deeplogic::deep_chain_circuit`]) — where wirelength-driven and
/// timing-driven placements visibly diverge. Sized well below the
/// paper's suites so timing sweeps stay fast.
///
/// # Panics
///
/// Panics on `k < 2`.
#[must_use]
pub fn deeplogic_suite(k: usize) -> Vec<LutCircuit> {
    (0..SUITE_SIZE)
        .map(|i| {
            deeplogic::deep_chain_circuit(
                &format!("deep{i}"),
                k,
                5 + i,      // registered inputs
                2 + i % 3,  // chains
                10 + 2 * i, // chain depth
                24 + 6 * i, // shallow noise LUTs
                0xdee9_1057 + i as u64,
            )
        })
        .collect()
}

/// Fanout of circuit `i` of the broadcast suite.
#[must_use]
pub const fn broadcast_fanout(i: usize) -> usize {
    [16, 32, 64, 96, 128][i % SUITE_SIZE]
}

/// Generates the five broadcast circuits — a single hub LUT fanning out
/// to 16/32/64/96/128 consumers ([`broadcast::broadcast_circuit`]) — the
/// high-fanout workload for the router's Steiner-tree decomposition mode
/// and the `high_fanout` section of `BENCH_router.json`.
///
/// # Panics
///
/// Panics on `k < 2`.
#[must_use]
pub fn broadcast_suite(k: usize) -> Vec<LutCircuit> {
    (0..SUITE_SIZE)
        .map(|i| {
            broadcast::broadcast_circuit(
                &format!("bcast{i}"),
                k,
                broadcast_fanout(i),
                0xb04d_ca57 + i as u64,
            )
        })
        .collect()
}

/// A generated suite, by the name `mmflow` and batch specs use
/// (`suite:<name>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// [`regexp_suite`].
    RegExp,
    /// [`fir_suite`].
    Fir,
    /// [`mcnc_suite`].
    Mcnc,
    /// [`deeplogic_suite`].
    DeepLogic,
    /// [`broadcast_suite`].
    Broadcast,
}

impl Suite {
    /// The suite called `name`.
    ///
    /// # Errors
    ///
    /// Fails on an unknown name, listing the known ones.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "regexp" => Ok(Suite::RegExp),
            "fir" => Ok(Suite::Fir),
            "mcnc" => Ok(Suite::Mcnc),
            "deeplogic" => Ok(Suite::DeepLogic),
            "broadcast" => Ok(Suite::Broadcast),
            other => Err(format!(
                "unknown suite '{other}' (regexp|fir|mcnc|deeplogic|broadcast)"
            )),
        }
    }

    /// The suite's circuits, mapped to `k`-LUTs.
    ///
    /// # Panics
    ///
    /// As the suite's generator, e.g. on a `k` the mapper cannot use.
    #[must_use]
    pub fn circuits(self, k: usize) -> Vec<LutCircuit> {
        match self {
            Suite::RegExp => regexp_suite(k),
            Suite::Fir => fir_suite(k),
            Suite::Mcnc => mcnc_suite(k),
            Suite::DeepLogic => deeplogic_suite(k),
            Suite::Broadcast => broadcast_suite(k),
        }
    }

    /// The suite's `modes`-mode problems, as index tuples into
    /// [`Suite::circuits`]: interleaved filter families for FIR
    /// ([`fir_mode_tuples`]), every ascending combination of the five
    /// circuits otherwise ([`all_tuples`]). Empty, or shorter than
    /// `modes`, where the suite cannot supply that many modes.
    #[must_use]
    pub fn tuples(self, modes: usize) -> Vec<Vec<usize>> {
        match self {
            Suite::Fir => fir_mode_tuples(modes),
            _ => all_tuples(SUITE_SIZE, modes),
        }
    }
}

/// All unordered pairs `(i, j)` with `i < j < n` — the paper's "all
/// possible combinations of 2 circuits out of the 5" (10 pairs for 5).
#[must_use]
pub fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(n * n / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            pairs.push((i, j));
        }
    }
    pairs
}

/// All ascending `m`-element combinations of `0..n`, in lexicographic
/// order — the N-mode generalization of [`all_pairs`] (`m == 2` yields
/// the same pairs in the same order). `m == 0` or `m > n` yields no
/// tuples.
#[must_use]
pub fn all_tuples(n: usize, m: usize) -> Vec<Vec<usize>> {
    if m == 0 || m > n {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..m).collect();
    loop {
        out.push(current.clone());
        // Advance the rightmost index that can still move.
        let mut i = m;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if current[i] + (m - i) < n {
                break;
            }
        }
        current[i] += 1;
        for j in i + 1..m {
            current[j] = current[j - 1] + 1;
        }
    }
}

/// The FIR `m`-mode tuples (indices into [`fir_suite`]'s output): tuple
/// `i` interleaves the low-pass and high-pass families starting at
/// filter `i`, walking the family index with wrap-around —
/// `[lp i, hp i, lp i+1, hp i+1, …]` truncated to `m` modes. `m == 2`
/// reproduces the paper's pairing (low-pass `i` with high-pass `i`);
/// there are always
/// [`FIR_FAMILY_SIZE`] tuples. `m` is capped at `2 * FIR_FAMILY_SIZE`
/// (beyond that a tuple would repeat a filter).
#[must_use]
pub fn fir_mode_tuples(m: usize) -> Vec<Vec<usize>> {
    let m = m.min(2 * FIR_FAMILY_SIZE);
    if m == 0 {
        return Vec::new();
    }
    (0..FIR_FAMILY_SIZE)
        .map(|i| {
            (0..m)
                .map(|j| {
                    let family = (j % 2) * FIR_FAMILY_SIZE;
                    family + (i + j / 2) % FIR_FAMILY_SIZE
                })
                .collect()
        })
        .collect()
}

fn map(net: &mm_netlist::GateNetwork, k: usize) -> LutCircuit {
    mm_synth::synthesize(net, MapOptions::for_k(k)).expect("generator circuits synthesize")
}

/// Rebuilds a circuit under a new model name (generators produce
/// pattern-derived names; suites use stable ones).
fn rename(circuit: LutCircuit, name: &str) -> LutCircuit {
    let mut out = LutCircuit::new(name, circuit.k());
    let mut remap = std::collections::HashMap::new();
    // Two-phase copy (registered feedback may point forward).
    for id in circuit.block_ids() {
        let block = circuit.block(id);
        match block.kind() {
            mm_netlist::BlockKind::InputPad => {
                remap.insert(id, out.add_input(block.name().to_string()).expect("copy"));
            }
            mm_netlist::BlockKind::Lut {
                registered, init, ..
            } => {
                let nid = out
                    .add_lut(
                        block.name().to_string(),
                        vec![],
                        mm_netlist::TruthTable::const0(0),
                        *registered,
                    )
                    .expect("copy");
                if *registered {
                    out.set_init(nid, *init).expect("registered");
                }
                remap.insert(id, nid);
            }
            mm_netlist::BlockKind::OutputPad { .. } => {}
        }
    }
    for id in circuit.block_ids() {
        let block = circuit.block(id);
        match block.kind() {
            mm_netlist::BlockKind::Lut { inputs, truth, .. } => {
                let fanin: Vec<_> = inputs.iter().map(|s| remap[s]).collect();
                out.set_lut(remap[&id], fanin, *truth).expect("copy");
            }
            mm_netlist::BlockKind::OutputPad { source, port } => {
                out.add_output_port(block.name().to_string(), port.clone(), remap[source])
                    .expect("copy");
            }
            mm_netlist::BlockKind::InputPad => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_enumeration() {
        let p = all_pairs(5);
        assert_eq!(p.len(), 10);
        assert_eq!(p[0], (0, 1));
        assert_eq!(p[9], (3, 4));
        assert!(p.iter().all(|&(i, j)| i < j && j < 5));
        assert_eq!(fir_mode_tuples(2).len(), 10);
        assert_eq!(fir_mode_tuples(2)[3], vec![3, 13]);
    }

    #[test]
    fn tuples_generalize_pairs() {
        // m == 2 reproduces all_pairs exactly, order included.
        let pairs: Vec<Vec<usize>> = all_pairs(5).into_iter().map(|(i, j)| vec![i, j]).collect();
        assert_eq!(all_tuples(5, 2), pairs);
        // C(5,3) = 10, C(5,4) = 5; tuples are ascending and in range.
        let triples = all_tuples(5, 3);
        assert_eq!(triples.len(), 10);
        assert_eq!(triples[0], vec![0, 1, 2]);
        assert_eq!(triples[9], vec![2, 3, 4]);
        for t in &triples {
            assert!(t.windows(2).all(|w| w[0] < w[1]) && t[2] < 5, "{t:?}");
        }
        assert_eq!(all_tuples(5, 4).len(), 5);
        assert_eq!(all_tuples(5, 5), vec![vec![0, 1, 2, 3, 4]]);
        assert!(all_tuples(5, 6).is_empty());
        assert!(all_tuples(5, 0).is_empty());
    }

    #[test]
    fn fir_mode_tuples_of_two_pair_each_low_pass_with_its_high_pass() {
        let tuples = fir_mode_tuples(2);
        let pairs: Vec<Vec<usize>> = (0..FIR_FAMILY_SIZE)
            .map(|i| vec![i, FIR_FAMILY_SIZE + i])
            .collect();
        assert_eq!(
            tuples, pairs,
            "the paper's pairing: low-pass i with high-pass i"
        );
    }

    #[test]
    fn fir_mode_tuples_interleave_families() {
        let triples = fir_mode_tuples(3);
        assert_eq!(triples.len(), FIR_FAMILY_SIZE);
        // Tuple i: lp i, hp i, lp i+1 (wrapping).
        assert_eq!(triples[0], vec![0, 10, 1]);
        assert_eq!(triples[9], vec![9, 19, 0]);
        let quads = fir_mode_tuples(4);
        assert_eq!(quads[4], vec![4, 14, 5, 15]);
        for t in &quads {
            let mut seen = t.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 4, "no repeated filter in {t:?}");
            assert!(t.iter().all(|&i| i < 2 * FIR_FAMILY_SIZE));
        }
        // Saturating cap: every filter exactly once.
        assert_eq!(fir_mode_tuples(99)[0].len(), 2 * FIR_FAMILY_SIZE);
        assert!(fir_mode_tuples(0).is_empty());
    }

    #[test]
    fn regexp_suite_sizes_in_band() {
        let suite = regexp_suite(4);
        assert_eq!(suite.len(), SUITE_SIZE);
        for c in &suite {
            let n = c.lut_count();
            assert!(
                (180..=320).contains(&n),
                "{}: {n} LUTs out of calibration band",
                c.name()
            );
            c.validate().unwrap();
        }
    }

    #[test]
    fn fir_suite_sizes_in_band() {
        let suite = fir_suite(4);
        assert_eq!(suite.len(), 20);
        for c in &suite {
            let n = c.lut_count();
            assert!(
                (200..=420).contains(&n),
                "{}: {n} LUTs out of calibration band",
                c.name()
            );
            c.validate().unwrap();
        }
    }

    #[test]
    fn mcnc_suite_sizes_in_band() {
        let suite = mcnc_suite(4);
        assert_eq!(suite.len(), SUITE_SIZE);
        for c in &suite {
            let n = c.lut_count();
            assert!(
                (250..=450).contains(&n),
                "{}: {n} LUTs out of calibration band",
                c.name()
            );
            c.validate().unwrap();
        }
    }

    #[test]
    fn generic_fir_larger_than_specialised() {
        let generic = fir_generic_reference(4).lut_count();
        let suite = fir_suite(4);
        let avg: usize = suite.iter().map(LutCircuit::lut_count).sum::<usize>() / suite.len();
        assert!(
            generic > 2 * avg,
            "generic {generic} vs avg specialised {avg}"
        );
    }

    #[test]
    fn deeplogic_suite_shape() {
        let suite = deeplogic_suite(4);
        assert_eq!(suite.len(), SUITE_SIZE);
        for c in &suite {
            c.validate().unwrap();
            let n = c.lut_count();
            assert!((40..=160).contains(&n), "{}: {n} LUTs", c.name());
        }
        let again = deeplogic_suite(4);
        for (x, y) in suite.iter().zip(&again) {
            assert_eq!(mm_netlist::blif::to_blif(x), mm_netlist::blif::to_blif(y));
        }
    }

    #[test]
    fn broadcast_suite_shape() {
        let suite = broadcast_suite(4);
        assert_eq!(suite.len(), SUITE_SIZE);
        for (i, c) in suite.iter().enumerate() {
            c.validate().unwrap();
            let hub = c.find("hub").unwrap();
            let fanout = c.connections().iter().filter(|(s, _)| *s == hub).count();
            assert_eq!(fanout, broadcast_fanout(i), "{}", c.name());
        }
        let again = broadcast_suite(4);
        for (x, y) in suite.iter().zip(&again) {
            assert_eq!(mm_netlist::blif::to_blif(x), mm_netlist::blif::to_blif(y));
        }
    }

    #[test]
    fn suites_are_deterministic() {
        let a = mcnc_suite(4);
        let b = mcnc_suite(4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(mm_netlist::blif::to_blif(x), mm_netlist::blif::to_blif(y));
        }
    }

    #[test]
    fn rename_preserves_structure() {
        let suite = regexp_suite(4);
        assert_eq!(suite[0].name(), "regexp0");
        assert!(suite[0].lut_count() > 0);
    }
}
