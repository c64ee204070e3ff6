//! Reading and writing LUT circuits in the Berkeley Logic Interchange
//! Format (BLIF) — the lingua franca of academic FPGA CAD flows (SIS, VPR,
//! ABC).
//!
//! The supported subset is the one VPR consumes: `.model`, `.inputs`,
//! `.outputs`, `.names` (single-output covers), `.latch` (rising-edge,
//! optional clock, optional init) and `.end`. On reading, a `.names`
//! feeding exactly one `.latch` and nothing else is packed into a single
//! registered logic block, mirroring VPack's LUT+FF packing for an
//! architecture with one 4-LUT and one flip-flop per logic block.

use crate::{BlockId, BlockKind, LutCircuit, NetlistError, TruthTable};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Serialises a circuit to BLIF text.
///
/// Registered LUTs are emitted as a `.names` for the LUT function feeding a
/// `.latch`; output pads whose port name differs from their driver's name
/// get an explicit buffer `.names` so that the port appears under its own
/// signal name.
#[must_use]
pub fn to_blif(circuit: &LutCircuit) -> String {
    let mut s = String::new();
    let _ = writeln!(s, ".model {}", circuit.name());

    let _ = write!(s, ".inputs");
    for &pad in circuit.inputs() {
        let _ = write!(s, " {}", circuit.block(pad).name());
    }
    let _ = writeln!(s);

    let _ = write!(s, ".outputs");
    for &pad in circuit.outputs() {
        if let BlockKind::OutputPad { port, .. } = circuit.block(pad).kind() {
            let _ = write!(s, " {port}");
        }
    }
    let _ = writeln!(s);

    for &id in circuit.luts() {
        let block = circuit.block(id);
        let BlockKind::Lut {
            inputs,
            truth,
            registered,
            init,
        } = block.kind()
        else {
            continue;
        };
        let out_name = block.name();
        if *registered {
            // LUT feeds the latch through an intermediate signal.
            let d = format!("{out_name}^d");
            write_names(&mut s, circuit, inputs, &d, *truth);
            let _ = writeln!(s, ".latch {d} {out_name} re clk {}", u8::from(*init));
        } else {
            write_names(&mut s, circuit, inputs, out_name, *truth);
        }
    }

    // Buffers for output ports whose name differs from the driver's.
    for &pad in circuit.outputs() {
        if let BlockKind::OutputPad { source, port } = circuit.block(pad).kind() {
            let src_name = circuit.block(*source).name();
            if src_name != port {
                let _ = writeln!(s, ".names {src_name} {port}");
                let _ = writeln!(s, "1 1");
            }
        }
    }

    let _ = writeln!(s, ".end");
    s
}

fn write_names(
    s: &mut String,
    circuit: &LutCircuit,
    inputs: &[BlockId],
    out: &str,
    truth: TruthTable,
) {
    let _ = write!(s, ".names");
    for &src in inputs {
        let _ = write!(s, " {}", circuit.block(src).name());
    }
    let _ = writeln!(s, " {out}");
    for (pattern, val) in truth.to_cover() {
        if inputs.is_empty() {
            let _ = writeln!(s, "{val}");
        } else {
            let _ = writeln!(s, "{pattern} {val}");
        }
    }
}

#[derive(Debug)]
struct NamesDecl {
    line: usize,
    inputs: Vec<String>,
    output: String,
    cover: Vec<(String, char)>,
}

#[derive(Debug)]
struct LatchDecl {
    line: usize,
    input: String,
    output: String,
    init: bool,
}

/// Parses BLIF text into a [`LutCircuit`] for k-input LUTs.
///
/// # Errors
///
/// Fails on malformed BLIF, on `.names` wider than `k`, on dangling signal
/// references, or on combinational cycles.
pub fn from_blif(text: &str, k: usize) -> Result<LutCircuit, NetlistError> {
    let mut model = String::from("blif");
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut names: Vec<NamesDecl> = Vec::new();
    let mut latches: Vec<LatchDecl> = Vec::new();

    // Logical lines: joined on trailing '\', comments stripped.
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending = String::new();
    let mut pending_line = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let no_comment = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let trimmed = no_comment.trim_end();
        let (content, cont) = match trimmed.strip_suffix('\\') {
            Some(rest) => (rest, true),
            None => (trimmed, false),
        };
        if pending.is_empty() {
            pending_line = line_no;
        }
        pending.push_str(content);
        pending.push(' ');
        if !cont {
            let joined = pending.trim().to_string();
            if !joined.is_empty() {
                logical.push((pending_line, joined));
            }
            pending.clear();
        }
    }
    if !pending.trim().is_empty() {
        logical.push((pending_line, pending.trim().to_string()));
    }

    let mut idx = 0usize;
    while idx < logical.len() {
        let (line_no, line) = &logical[idx];
        let mut tokens = line.split_whitespace();
        let head = tokens.next().expect("nonempty logical line");
        match head {
            ".model" => {
                if let Some(n) = tokens.next() {
                    model = n.to_string();
                }
                idx += 1;
            }
            ".inputs" => {
                inputs.extend(tokens.map(str::to_string));
                idx += 1;
            }
            ".outputs" => {
                outputs.extend(tokens.map(str::to_string));
                idx += 1;
            }
            ".names" => {
                let mut sigs: Vec<String> = tokens.map(str::to_string).collect();
                let output = sigs.pop().ok_or(NetlistError::BlifParse {
                    line: *line_no,
                    msg: ".names needs at least an output".into(),
                })?;
                idx += 1;
                let mut cover = Vec::new();
                while idx < logical.len() && !logical[idx].1.starts_with('.') {
                    let (cov_line, body) = &logical[idx];
                    let parts: Vec<&str> = body.split_whitespace().collect();
                    match parts.as_slice() {
                        [out] if sigs.is_empty() => {
                            let c = out.chars().next().expect("nonempty token");
                            cover.push((String::new(), c));
                        }
                        [pat, out] => {
                            let c = out.chars().next().expect("nonempty token");
                            cover.push(((*pat).to_string(), c));
                        }
                        _ => {
                            return Err(NetlistError::BlifParse {
                                line: *cov_line,
                                msg: format!("malformed cover line '{body}'"),
                            })
                        }
                    }
                    idx += 1;
                }
                names.push(NamesDecl {
                    line: *line_no,
                    inputs: sigs,
                    output,
                    cover,
                });
            }
            ".latch" => {
                let args: Vec<&str> = tokens.collect();
                // .latch input output [type [control]] [init]
                if args.len() < 2 {
                    return Err(NetlistError::BlifParse {
                        line: *line_no,
                        msg: ".latch needs input and output".into(),
                    });
                }
                let init = match args.last() {
                    Some(&"0") => false,
                    Some(&"1") => true,
                    Some(&"2") | Some(&"3") => false, // don't-care / unknown
                    _ => false,
                };
                latches.push(LatchDecl {
                    line: *line_no,
                    input: args[0].to_string(),
                    output: args[1].to_string(),
                    init,
                });
                idx += 1;
            }
            ".end" => break,
            // Tolerated/ignored directives.
            ".clock" | ".default_input_arrival" | ".wire_load_slope" => idx += 1,
            other => {
                return Err(NetlistError::BlifParse {
                    line: *line_no,
                    msg: format!("unsupported directive '{other}'"),
                })
            }
        }
    }

    build_circuit(model, k, inputs, outputs, names, latches)
}

fn build_circuit(
    model: String,
    k: usize,
    inputs: Vec<String>,
    outputs: Vec<String>,
    names: Vec<NamesDecl>,
    latches: Vec<LatchDecl>,
) -> Result<LutCircuit, NetlistError> {
    // Count fanout of each signal to decide LUT/latch packing and PO
    // buffer collapsing.
    let mut fanout: HashMap<&str, usize> = HashMap::new();
    for n in &names {
        for i in &n.inputs {
            *fanout.entry(i.as_str()).or_default() += 1;
        }
    }
    for l in &latches {
        *fanout.entry(l.input.as_str()).or_default() += 1;
    }

    let is_po: std::collections::HashSet<&str> = outputs.iter().map(String::as_str).collect();

    let names_by_output: HashMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.output.as_str(), i))
        .collect();

    // A .names is *absorbed* into a latch when it feeds exactly that latch
    // and nothing else (VPack-style packing).
    let mut absorbed_by: HashMap<usize, usize> = HashMap::new(); // names idx → latch idx
    for (li, l) in latches.iter().enumerate() {
        if let Some(&ni) = names_by_output.get(l.input.as_str()) {
            let fo = fanout.get(l.input.as_str()).copied().unwrap_or(0);
            if fo == 1 && !is_po.contains(l.input.as_str()) {
                absorbed_by.insert(ni, li);
            }
        }
    }

    let mut circuit = LutCircuit::new(model, k);
    let mut sig: HashMap<String, BlockId> = HashMap::new();

    for name in &inputs {
        let id = circuit.add_input(name.clone())?;
        sig.insert(name.clone(), id);
    }

    // Phase 1: create one block per producer with placeholder fanin.
    let placeholder = TruthTable::const0(0);
    let mut names_block: Vec<Option<BlockId>> = vec![None; names.len()];
    let mut latch_block: Vec<BlockId> = Vec::with_capacity(latches.len());
    for (ni, n) in names.iter().enumerate() {
        if absorbed_by.contains_key(&ni) {
            continue; // becomes part of the latch block
        }
        if sig.contains_key(&n.output) {
            return Err(NetlistError::BlifParse {
                line: n.line,
                msg: format!("signal '{}' driven twice", n.output),
            });
        }
        let id = circuit.add_lut(n.output.clone(), vec![], placeholder, false)?;
        sig.insert(n.output.clone(), id);
        names_block[ni] = Some(id);
    }
    for l in &latches {
        if sig.contains_key(&l.output) {
            return Err(NetlistError::BlifParse {
                line: l.line,
                msg: format!("signal '{}' driven twice", l.output),
            });
        }
        let id = circuit.add_lut(l.output.clone(), vec![], placeholder, true)?;
        circuit.set_init(id, l.init)?;
        sig.insert(l.output.clone(), id);
        latch_block.push(id);
    }

    let resolve = |sig: &HashMap<String, BlockId>, s: &str, line: usize| {
        sig.get(s).copied().ok_or(NetlistError::BlifParse {
            line,
            msg: format!("undriven signal '{s}'"),
        })
    };

    // Phase 2: patch fanin and truth tables.
    for (ni, n) in names.iter().enumerate() {
        // Checked first: a truth table holds at most MAX_LUT_INPUTS.
        if n.inputs.len() > k {
            return Err(NetlistError::BlifParse {
                line: n.line,
                msg: format!(".names with {} inputs exceeds k = {k}", n.inputs.len()),
            });
        }
        let truth = TruthTable::from_cover(n.inputs.len(), &n.cover).map_err(|e| {
            NetlistError::BlifParse {
                line: n.line,
                msg: e.to_string(),
            }
        })?;
        let fanin: Vec<BlockId> = n
            .inputs
            .iter()
            .map(|s| resolve(&sig, s, n.line))
            .collect::<Result<_, _>>()?;
        let target = match absorbed_by.get(&ni) {
            Some(&li) => latch_block[li],
            None => names_block[ni].expect("non-absorbed names has a block"),
        };
        circuit.set_lut(target, fanin, truth)?;
    }
    for (li, l) in latches.iter().enumerate() {
        let ni = names_by_output.get(l.input.as_str()).copied();
        if ni.is_some_and(|ni| absorbed_by.get(&ni) == Some(&li)) {
            continue; // fanin already patched from the absorbed .names
        }
        // Pass-through registered LUT sampling the latch input.
        let src = resolve(&sig, &l.input, l.line)?;
        circuit.set_lut(latch_block[li], vec![src], TruthTable::var(1, 0))?;
    }

    // Primary outputs. Collapse identity buffers (single-input .names with
    // f = x) that only feed the PO back into a pad reference.
    for out in &outputs {
        let src = resolve(&sig, out, 0).map_err(|_| NetlistError::BlifParse {
            line: 0,
            msg: format!("primary output '{out}' is never driven"),
        })?;
        let mut pad_source = src;
        if let BlockKind::Lut {
            inputs: fin,
            truth,
            registered: false,
            ..
        } = circuit.block(src).kind()
        {
            if fin.len() == 1 && *truth == TruthTable::var(1, 0) {
                // Identity buffer; only collapse if nothing else reads it.
                let fo = fanout.get(out.as_str()).copied().unwrap_or(0);
                if fo == 0 {
                    pad_source = fin[0];
                }
            }
        }
        let pad_name = if circuit.find(out).is_none() {
            out.clone()
        } else {
            format!("{out}$pad")
        };
        circuit.add_output_port(pad_name, out.clone(), pad_source)?;
    }

    // Note: collapsed buffers may remain as dangling LUTs; prune them.
    let circuit = prune_dangling(&circuit)?;
    circuit.validate()?;
    Ok(circuit)
}

/// Rebuilds the circuit without LUTs that drive nothing (recursively).
/// BLIF files occasionally contain dangling logic; the paper's flow counts
/// only live LUTs.
pub fn prune_dangling(circuit: &LutCircuit) -> Result<LutCircuit, NetlistError> {
    // Mark live blocks: outputs, their transitive fanin.
    let mut live = vec![false; circuit.block_count()];
    let mut stack: Vec<BlockId> = circuit.outputs().to_vec();
    while let Some(id) = stack.pop() {
        if live[id.index()] {
            continue;
        }
        live[id.index()] = true;
        for &src in circuit.block(id).fanin() {
            if !live[src.index()] {
                stack.push(src);
            }
        }
    }
    // Keep all input pads (ports are part of the interface).
    for &pad in circuit.inputs() {
        live[pad.index()] = true;
    }

    // Two-phase rebuild: registered LUTs may reference themselves or later
    // blocks, so create every driver with placeholder fanin first.
    let mut out = LutCircuit::new(circuit.name().to_string(), circuit.k());
    let mut remap: HashMap<BlockId, BlockId> = HashMap::new();
    let placeholder = TruthTable::const0(0);
    for id in circuit.block_ids() {
        if !live[id.index()] {
            continue;
        }
        let block = circuit.block(id);
        match block.kind() {
            BlockKind::InputPad => {
                let nid = out.add_input(block.name().to_string())?;
                remap.insert(id, nid);
            }
            BlockKind::Lut {
                registered, init, ..
            } => {
                let nid =
                    out.add_lut(block.name().to_string(), vec![], placeholder, *registered)?;
                if *registered {
                    out.set_init(nid, *init)?;
                }
                remap.insert(id, nid);
            }
            BlockKind::OutputPad { .. } => {}
        }
    }
    for id in circuit.block_ids() {
        if !live[id.index()] {
            continue;
        }
        let block = circuit.block(id);
        match block.kind() {
            BlockKind::Lut { inputs, truth, .. } => {
                let fanin: Vec<BlockId> = inputs.iter().map(|s| remap[s]).collect();
                out.set_lut(remap[&id], fanin, *truth)?;
            }
            BlockKind::OutputPad { source, port } => {
                out.add_output_port(block.name().to_string(), port.clone(), remap[source])?;
            }
            BlockKind::InputPad => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::first_divergence;

    fn and2() -> TruthTable {
        TruthTable::var(2, 0) & TruthTable::var(2, 1)
    }

    #[test]
    fn roundtrip_combinational() {
        let mut c = LutCircuit::new("rt", 4);
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g = c.add_lut("y", vec![a, b], and2(), false).unwrap();
        c.add_output("y_pad", g).unwrap();
        let text = to_blif(&c);
        let d = from_blif(&text, 4).unwrap();
        // The port buffer emitted for y→y_pad collapses back into the pad.
        assert_eq!(d.lut_count(), 1);
        assert!(d.outputs().iter().any(
            |&p| matches!(d.block(p).kind(), BlockKind::OutputPad { port, .. } if port == "y_pad")
        ));
        assert_eq!(first_divergence(&c, &d, 64, 5).unwrap(), None);
    }

    #[test]
    fn roundtrip_same_name_output_no_buffer() {
        let mut c = LutCircuit::new("rt", 4);
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g = c.add_lut("y", vec![a, b], and2(), false).unwrap();
        c.add_output_port("y$pad", "y", g).unwrap();
        let text = to_blif(&c);
        assert!(!text.contains(".names y y"), "no buffer expected:\n{text}");
        let d = from_blif(&text, 4).unwrap();
        assert_eq!(d.lut_count(), 1);
        assert_eq!(first_divergence(&c, &d, 64, 7).unwrap(), None);
    }

    #[test]
    fn roundtrip_registered() {
        let mut c = LutCircuit::new("rt", 4);
        let a = c.add_input("a").unwrap();
        let b = c.add_input("b").unwrap();
        let g = c.add_lut("q", vec![a, b], and2(), true).unwrap();
        c.set_init(g, true).unwrap();
        c.add_output_port("q$pad", "q", g).unwrap();
        let text = to_blif(&c);
        assert!(text.contains(".latch q^d q re clk 1"), "{text}");
        let d = from_blif(&text, 4).unwrap();
        // The .names feeding the latch is absorbed back into one block.
        assert_eq!(d.lut_count(), 1);
        assert_eq!(first_divergence(&c, &d, 64, 9).unwrap(), None);
    }

    #[test]
    fn parse_continuation_and_comments() {
        let text = "\
.model m # trailing comment
.inputs a \\
        b
.outputs y
.names a b y
11 1
.end
";
        let c = from_blif(text, 4).unwrap();
        assert_eq!(c.inputs().len(), 2);
        assert_eq!(c.lut_count(), 1);
    }

    #[test]
    fn parse_offset_cover() {
        let text = "\
.model m
.inputs a b
.outputs y
.names a b y
11 0
.end
";
        let c = from_blif(text, 4).unwrap();
        let y = c.find("y").unwrap();
        match c.block(y).kind() {
            BlockKind::Lut { truth, .. } => assert_eq!(*truth, !and2()),
            _ => panic!("expected LUT"),
        }
    }

    #[test]
    fn parse_constant_names() {
        let text = "\
.model m
.inputs
.outputs one zero
.names one
1
.names zero
.end
";
        let c = from_blif(text, 4).unwrap();
        assert_eq!(c.lut_count(), 2);
    }

    #[test]
    fn latch_from_pi_becomes_passthrough() {
        let text = "\
.model m
.inputs d
.outputs q
.latch d q re clk 0
.end
";
        let c = from_blif(text, 4).unwrap();
        assert_eq!(c.lut_count(), 1);
        let q = c.find("q").unwrap();
        assert!(matches!(
            c.block(q).kind(),
            BlockKind::Lut {
                registered: true,
                ..
            }
        ));
    }

    #[test]
    fn latch_not_absorbed_when_names_has_other_fanout() {
        let text = "\
.model m
.inputs a b
.outputs q y
.names a b f
11 1
.latch f q re clk 0
.names f y
1 1
.end
";
        let c = from_blif(text, 4).unwrap();
        // f stays a LUT; q is a pass-through registered LUT; y collapses
        // into a pad on f... but f also feeds q, so fanout(f) = 2 and the
        // buffer does not collapse.
        assert!(c.find("f").is_some());
        let q = c.find("q").unwrap();
        assert_eq!(c.block(q).fanin().len(), 1);
    }

    #[test]
    fn error_on_undriven_signal() {
        let text = "\
.model m
.inputs a
.outputs y
.names a ghost y
11 1
.end
";
        let err = from_blif(text, 4).unwrap_err();
        assert!(matches!(err, NetlistError::BlifParse { .. }), "{err}");
    }

    #[test]
    fn error_on_doubly_driven_signal() {
        let text = "\
.model m
.inputs a
.outputs y
.names a y
1 1
.names a y
0 1
.end
";
        assert!(from_blif(text, 4).is_err());
    }

    #[test]
    fn error_on_wide_names() {
        let text = "\
.model m
.inputs a b c d e
.outputs y
.names a b c d e y
11111 1
.end
";
        assert!(from_blif(text, 4).is_err());
        assert!(from_blif(text, 5).is_ok());
        // Wider than any LUT: refused at every k, never a panic.
        let seven = ".model m\n.inputs a b c d e f g\n.outputs y\n.names a b c d e f g y\n1111111 1\n.end\n";
        for k in [1, 4, 6] {
            let err = from_blif(seven, k).unwrap_err().to_string();
            assert!(
                err.contains(&format!(".names with 7 inputs exceeds k = {k}")),
                "{err}"
            );
        }
    }

    #[test]
    fn error_on_unknown_directive() {
        assert!(from_blif(".model m\n.gate foo\n.end\n", 4).is_err());
    }

    #[test]
    fn prune_removes_dead_logic() {
        let mut c = LutCircuit::new("p", 4);
        let a = c.add_input("a").unwrap();
        let live = c
            .add_lut("live", vec![a], TruthTable::var(1, 0), false)
            .unwrap();
        let _dead = c
            .add_lut("dead", vec![a], TruthTable::var(1, 0), false)
            .unwrap();
        c.add_output("y", live).unwrap();
        let pruned = prune_dangling(&c).unwrap();
        assert_eq!(pruned.lut_count(), 1);
        assert!(pruned.find("dead").is_none());
        assert!(pruned.find("a").is_some());
    }

    #[test]
    fn sequential_roundtrip_behaviour() {
        // A 2-bit counter with enable.
        let mut c = LutCircuit::new("ctr", 4);
        let en = c.add_input("en").unwrap();
        let b0 = c
            .add_lut("b0", vec![], TruthTable::const0(0), true)
            .unwrap();
        let b1 = c
            .add_lut("b1", vec![], TruthTable::const0(0), true)
            .unwrap();
        // b0' = b0 ^ en
        c.set_lut(
            b0,
            vec![b0, en],
            TruthTable::var(2, 0) ^ TruthTable::var(2, 1),
        )
        .unwrap();
        // b1' = b1 ^ (b0 & en)
        c.set_lut(
            b1,
            vec![b1, b0, en],
            TruthTable::from_fn(3, |i| (i & 1) ^ (((i >> 1) & 1) & ((i >> 2) & 1)) == 1),
        )
        .unwrap();
        c.add_output_port("c0", "c0", b0).unwrap();
        c.add_output_port("c1", "c1", b1).unwrap();
        c.validate().unwrap();
        let text = to_blif(&c);
        let d = from_blif(&text, 4).unwrap();
        assert_eq!(first_divergence(&c, &d, 128, 3).unwrap(), None);
    }
}
