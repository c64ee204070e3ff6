//! Architecture exploration: how the reconfiguration advantage of the
//! multi-mode flow depends on the fabric.
//!
//! Sweeps the channel width and reports MDR-vs-DCS rewrite costs on a
//! fixed pair of MCNC-class modes — the kind of what-if study the tool
//! flow enables beyond the paper's minimum-plus-20% width. (The flows fix
//! the paper's connection-block flexibilities, Fc,in = 0.4 and
//! Fc,out = 0.25.)
//!
//! ```sh
//! cargo run --release --example fabric_exploration
//! ```

use multimode::bitstream::speedup;
use multimode::flow::{DcsFlow, FlowOptions, MdrFlow, MultiModeInput};
use multimode::gen::mcnc;
use multimode::synth::{synthesize, MapOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let a = synthesize(&mcnc::multiplier("mult8", 8), MapOptions::default())?;
    let b = synthesize(
        &mcnc::crc("crc32p24", 0xEDB8_8320, 32, 24),
        MapOptions::default(),
    )?;
    println!(
        "modes: {} ({} LUTs) + {} ({} LUTs)\n",
        a.name(),
        a.lut_count(),
        b.name(),
        b.lut_count()
    );
    let input = MultiModeInput::new(vec![a, b])?;

    println!(
        "{:>6} {:>12} {:>12} {:>9}",
        "width", "MDR bits", "DCS bits", "speed-up"
    );
    for width in [12usize, 16, 20, 24] {
        let options = FlowOptions::default().with_fixed_width(width);
        let mdr = MdrFlow::new(options).run(&input)?;
        let dcs = DcsFlow::new(options).run(&input)?;
        let mdr_cost = mdr.mdr_cost();
        let dcs_cost = dcs.dcs_cost();
        println!(
            "{width:>6} {:>12} {:>12} {:>8.2}x",
            mdr_cost.total(),
            dcs_cost.total(),
            speedup(&mdr_cost, &dcs_cost)
        );
    }
    println!("\n(wider fabrics carry more routing state, which");
    println!(" inflates full-region MDR rewrites while DCS keeps touching only");
    println!(" the parameterized bits — the paper's Fig. 6 effect.)");
    Ok(())
}
