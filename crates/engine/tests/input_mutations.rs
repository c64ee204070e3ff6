//! Seeded mutations of the files a batch reads — BLIF mode files and
//! JSON spec files: every mutant parses to a value or to an error, never
//! to a panic, and every spec accepted carries options the flows can
//! run with.

use mm_engine::load_spec;
use mm_flow::{FlowOptions, WidthChoice};
use mm_netlist::blif;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// A `.names` wider than any LUT (`MAX_LUT_INPUTS` is 6).
const SEVEN_INPUTS: &str = "\
.model wide
.inputs a b c d e f g
.outputs y
.names a b c d e f g y
1111111 1
.end
";

/// The BLIF inputs mutated: every construct the reader supports, a
/// 6-input `.names`, the 7-input one and a generated circuit.
fn blif_corpus() -> Vec<String> {
    vec![
        ".model a\n.inputs x y\n.outputs f\n.names x y n1\n11 1\n.names n1 f\n1 1\n.end\n".into(),
        concat!(
            ".model r # a registered mode\n.inputs a b \\\n c\n.outputs q z\n",
            ".names a b c d\n1-1 1\n-11 1\n.latch d q re clk 1\n.names z\n1\n.end\n"
        )
        .into(),
        ".model six\n.inputs a b c d e g\n.outputs y\n.names a b c d e g y\n111111 1\n.end\n"
            .into(),
        SEVEN_INPUTS.into(),
        blif::to_blif(&mm_gen::seeded_test_circuit("gen", 5, 24, 11)),
    ]
}

/// The LUT widths BLIF is read at.
const KS: [usize; 4] = [1, 2, 4, 6];

/// Applies `ops` seeded mutations to ASCII `text`: a bit flip (the byte
/// stays ASCII), a truncation, a duplicated span, or one of `tokens`
/// inserted.
fn mutate(text: &str, ops: usize, seed: u64, tokens: &[&str]) -> String {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..ops {
        let n = bytes.len();
        match rng.gen_range(0..4) {
            0 if n > 0 => {
                let i = rng.gen_range(0..n);
                bytes[i] ^= 1u8 << rng.gen_range(0..7);
            }
            1 => bytes.truncate(rng.gen_range(0..=n)),
            2 if n > 0 => {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(a..=n);
                let at = rng.gen_range(0..=n);
                let span = bytes[a..b].to_vec();
                bytes.splice(at..at, span);
            }
            _ => {
                let at = rng.gen_range(0..=n);
                let token = tokens[rng.gen_range(0..tokens.len())];
                bytes.splice(at..at, token.bytes());
            }
        }
    }
    String::from_utf8(bytes).expect("ASCII mutations stay UTF-8")
}

/// A spec file that sets every flow override in its defaults and in a
/// job, next to the mode files `a.blif` and `b.blif`.
const SPEC: &str = r#"{"k": 4,
 "defaults": {"flow": "dcs", "cost": "wl", "seed": 7, "width": 12, "effort": 1.5,
  "max_iterations": 30, "max_width": 24, "steiner_fanout": 48},
 "jobs": [
  {"name": "j0", "modes": ["a.blif", "b.blif"], "seed": "0x5eed", "width": 14, "effort": 2,
   "max_iterations": 20, "max_width": 30, "steiner_fanout": 8},
  {"modes": ["b.blif", "a.blif"], "flow": "mdr"},
  {"modes": ["a.blif", "b.blif"], "flow": "pair", "seed": 9}
 ]}"#;

/// Replaces the value of the `occurrence`-th member `key` of [`SPEC`]
/// (values there end at the next `,` or `}`).
fn replace_member(spec: &str, key: &str, occurrence: usize, value: &str) -> String {
    let pattern = format!("\"{key}\": ");
    let Some((at, _)) = spec.match_indices(&pattern).nth(occurrence) else {
        return spec.to_string();
    };
    let start = at + pattern.len();
    let end = start + spec[start..].find([',', '}']).unwrap();
    format!("{}{value}{}", &spec[..start], &spec[end..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `from_blif` returns a circuit or an error on every mutant, at
    /// every LUT width.
    #[test]
    fn mutated_blif_parses_without_panics(
        entry in 0usize..5,
        ops in 0usize..=3,
        seed: u64,
    ) {
        const TOKENS: [&str; 8] =
            [".names", ".latch", ".inputs", ".end", " \\\n", "\n", " x7", "#"];
        let text = mutate(&blif_corpus()[entry], ops, seed, &TOKENS);
        for k in KS {
            let parsed = std::panic::catch_unwind(|| blif::from_blif(&text, k));
            prop_assert!(parsed.is_ok(), "from_blif panicked at k = {k} on {text:?}");
            if let Ok(Err(e)) = parsed {
                prop_assert!(!e.to_string().is_empty(), "an empty error on {text:?}");
            }
        }
    }

    /// `load_spec` returns jobs or an error naming what it refused on
    /// every mutant; the jobs it accepts carry widths within the cap, a
    /// nonzero iteration cap and an effort the annealer finishes.
    #[test]
    fn mutated_spec_files_load_without_panics_into_runnable_options(
        member in 0usize..7,
        occurrence in 0usize..2,
        value in 0usize..10,
        replace: bool,
        ops in 0usize..=2,
        seed: u64,
    ) {
        const MEMBERS: [&str; 7] =
            ["k", "seed", "width", "effort", "max_iterations", "max_width", "steiner_fanout"];
        const VALUES: [&str; 10] = [
            "0", "1025", "20000", "-1", "1e308", "0.5",
            "18446744073709551616", "\"12\"", "[12]", "null",
        ];
        const TOKENS: [&str; 6] = ["{", "}", "[", "\"width\": 0,", "\"defaults\": {},", ","];
        let mut text = SPEC.to_string();
        if replace {
            text = replace_member(&text, MEMBERS[member], occurrence, VALUES[value]);
        }
        let text = mutate(&text, ops, seed, &TOKENS);
        let dir = std::env::temp_dir().join(format!("mm_engine_spec_mut_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, circuit_seed) in [("a", 21), ("b", 22)] {
            let circuit = mm_gen::seeded_test_circuit(name, 4, 6, circuit_seed);
            std::fs::write(dir.join(format!("{name}.blif")), blif::to_blif(&circuit)).unwrap();
        }
        let path = dir.join("spec.json");
        std::fs::write(&path, &text).unwrap();
        let path = path.to_str().unwrap();
        let loaded = std::panic::catch_unwind(|| load_spec(path, &FlowOptions::default(), 4));
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(loaded.is_ok(), "load_spec panicked on {text:?}");
        match loaded.unwrap() {
            Err(e) => prop_assert!(!e.is_empty(), "an empty error on {text:?}"),
            Ok(batch) => {
                let caps = 1..=1024;
                for job in &batch.jobs {
                    let o = job.options;
                    if let WidthChoice::Fixed(w) = o.width {
                        prop_assert!(caps.contains(&w), "width {w} from {text:?}");
                    }
                    prop_assert!(caps.contains(&o.max_width), "max_width from {text:?}");
                    prop_assert!(o.router.max_iterations >= 1, "max_iterations 0 from {text:?}");
                    let effort = o.placer.inner_num;
                    prop_assert!(effort > 0.0 && effort <= 100.0, "effort {effort} from {text:?}");
                }
            }
        }
    }
}
