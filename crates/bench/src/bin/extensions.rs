//! The paper's future-work items, implemented and measured (§IV-C):
//!
//! * frame-granular reconfiguration ("we expect the speed up of routing
//!   reconfiguration time to be roughly between 4x and 20x");
//! * refined LUT accounting ("our results would even improve if we would
//!   count only the LUT bits that have a different value");
//! * routed timing per mode (wire length as a stand-in for performance).

use mm_bench::{BenchmarkSet, RunConfig};
use mm_bitstream::FrameModel;
use mm_flow::report::render_table;
use mm_flow::{DcsFlow, MdrFlow, MultiModeInput};

fn main() {
    let mut config = RunConfig::from_args(std::env::args().skip(1));
    if config.set.is_none() {
        config.set = Some(BenchmarkSet::RegExp);
    }
    if config.max_pairs == usize::MAX {
        config.max_pairs = 4;
    }
    let set = config.sets()[0];
    let circuits = set.circuits();
    let pairs: Vec<(usize, usize)> = set.pairs().into_iter().take(config.max_pairs).collect();

    let mut frame_rows = Vec::new();
    let mut lut_rows = Vec::new();
    let mut timing_rows = Vec::new();
    for &(i, j) in &pairs {
        let name = format!("{}+{}", circuits[i].name(), circuits[j].name());
        let input = MultiModeInput::new(vec![circuits[i].clone(), circuits[j].clone()]).unwrap();
        let dcs = DcsFlow::new(config.options).run(&input).expect("dcs runs");
        let mdr = MdrFlow::new(config.options).run(&input).expect("mdr runs");

        // ---- frames (paper predicts 4x..20x for routing) -----------------
        for frame_bits in [16usize, 64] {
            let frames = FrameModel::new(dcs.model.routing_bits, frame_bits);
            frame_rows.push(vec![
                name.clone(),
                format!("{frame_bits}"),
                format!("{}", frames.total_frames()),
                format!("{}", frames.frames_touched(&dcs.param)),
                format!("{:.1}x", frames.frame_speedup(&dcs.param)),
            ]);
        }

        // ---- refined LUT accounting ----------------------------------------
        let all_lut = dcs.model.lut_bits;
        let param_lut = dcs.tunable.parameterized_lut_bits(input.circuits());
        let standard = dcs.dcs_cost();
        let refined = param_lut + standard.routing_bits;
        let mdr_total = mdr.mdr_cost().total();
        lut_rows.push(vec![
            name.clone(),
            format!("{all_lut}"),
            format!("{param_lut}"),
            format!("{:.2}x", mdr_total as f64 / standard.total() as f64),
            format!("{:.2}x", mdr_total as f64 / refined.max(1) as f64),
        ]);

        // ---- routed timing per mode ------------------------------------------
        let mdr_paths = mdr
            .critical_paths(input.circuits())
            .expect("routed MDR result must analyze");
        let dcs_paths = dcs
            .critical_paths(input.circuits())
            .expect("routed DCS result must analyze");
        for (mode, (tm, td)) in mdr_paths.iter().zip(&dcs_paths).enumerate() {
            timing_rows.push(vec![
                format!("{name}/m{mode}"),
                format!("{tm:.0}"),
                format!("{td:.0}"),
                format!("{:.0}%", 100.0 * td / tm),
            ]);
        }
    }

    println!("\nExtension 1: frame-granular routing reconfiguration (paper: expect 4x-20x)\n");
    print!(
        "{}",
        render_table(
            &["pair", "frame bits", "total frames", "touched", "speed-up"],
            &frame_rows
        )
    );
    println!("\nExtension 2: refined LUT accounting (only differing LUT bits rewritten)\n");
    print!(
        "{}",
        render_table(
            &[
                "pair",
                "all LUT bits",
                "param LUT bits",
                "speed-up std",
                "speed-up refined"
            ],
            &lut_rows
        )
    );
    println!("\nExtension 3: routed critical path per mode (unit wire delay, LUT = 2)\n");
    print!(
        "{}",
        render_table(
            &["mode", "MDR delay", "DCS delay", "DCS vs MDR"],
            &timing_rows
        )
    );
}
