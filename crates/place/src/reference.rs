//! Naive reference formulation of the combined-placement cost model.
//!
//! [`NaiveCostModel`] implements *exactly* the semantics of
//! [`crate::CostModel`] with the straightforward data structures the flat
//! model replaced: `HashMap<u32, f64>` net costs, a
//! `HashMap<(u32, u32), u32>` pair table, a fresh `Vec`/`HashSet` per
//! swap and the O(n²) `terms.contains` terminal dedup. It exists for two
//! reasons:
//!
//! * **differential testing** — the property tests in `tests/parity.rs`
//!   assert the flat model produces bit-identical costs and deltas (and
//!   therefore the annealer byte-identical placements), so every
//!   data-structure optimization is provably semantics-preserving;
//! * **benchmarking** — `mmflow bench` measures the optimized annealer
//!   hot path against this baseline (`BENCH_place.json`).
//!
//! It is deliberately slow; never use it from a flow.

use crate::netmodel::manhattan;
use crate::{q_factor, CostKind, CostTracker, SiteMap};
use mm_netlist::{BlockKind, LutCircuit};
use std::collections::{HashMap, HashSet};

/// Undo record of the last applied swap.
#[derive(Debug)]
struct SwapUndo {
    mode: usize,
    site_a: u32,
    site_b: u32,
    /// (net key, previous cost) — `None` means the key had no net.
    wl_snapshot: Vec<(u32, Option<f64>)>,
    /// (pair, count delta applied) to be reversed.
    pair_ops: Vec<((u32, u32), i32)>,
    /// Pre-swap timing cost (scalar snapshot, like the flat model's).
    timing: f64,
}

/// The hash-map formulation of the combined-placement cost model (see the
/// module docs).
#[derive(Debug)]
pub struct NaiveCostModel {
    kind: CostKind,
    mode_count: usize,
    /// `[mode][block] → distinct sink blocks` (dense block = `BlockId::index`).
    drives: Vec<Vec<Vec<u32>>>,
    /// `[mode][block] → distinct driver blocks`.
    driven_by: Vec<Vec<Vec<u32>>>,
    /// `[mode][block][drive slot] → unit-delay criticality` (timing only).
    crit: Vec<Vec<Vec<f64>>>,
    /// Whether the block drives a net (LUTs and input pads).
    is_driver: Vec<Vec<bool>>,
    /// `[mode][block] → site index`.
    loc: Vec<Vec<u32>>,
    /// `[mode][site] → block`.
    occ: Vec<Vec<Option<u32>>>,
    site_xy: Vec<(u16, u16)>,
    /// Tunable-net cost per source site.
    net_cost: HashMap<u32, f64>,
    wl: f64,
    /// Per-mode connection multiplicity of each site pair.
    pairs: HashMap<(u32, u32), u32>,
    /// `Σ crit · manhattan` over all mode connections (timing only).
    timing_cost: f64,
    track_wl: bool,
    track_pairs: bool,
    track_timing: bool,
    undo: Option<SwapUndo>,
}

impl NaiveCostModel {
    /// Builds the model from the mode circuits; all blocks start unplaced
    /// (call [`CostTracker::set_location`] then [`CostTracker::recompute`]).
    #[must_use]
    pub fn new(circuits: &[LutCircuit], sites: &SiteMap, kind: CostKind) -> Self {
        let mode_count = circuits.len();
        let (track_wl, track_pairs) = kind.tracks();
        let track_timing = kind.tracks_timing();
        let mut drives = Vec::with_capacity(mode_count);
        let mut driven_by = Vec::with_capacity(mode_count);
        let mut crit = Vec::with_capacity(mode_count);
        let mut is_driver = Vec::with_capacity(mode_count);
        for circuit in circuits {
            let n = circuit.block_count();
            let mut dr: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut db: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut cr: Vec<Vec<f64>> = vec![Vec::new(); n];
            let crits = if track_timing {
                mm_sta::unit_criticalities(circuit)
                    .expect("timing cost requires combinationally acyclic circuits")
            } else {
                Vec::new()
            };
            for (ci, (src, dst)) in circuit.connections().into_iter().enumerate() {
                dr[src.index()].push(dst.index() as u32);
                db[dst.index()].push(src.index() as u32);
                if track_timing {
                    cr[src.index()].push(crits[ci]);
                }
            }
            drives.push(dr);
            driven_by.push(db);
            crit.push(cr);
            is_driver.push(
                circuit
                    .block_ids()
                    .map(|id| !matches!(circuit.block(id).kind(), BlockKind::OutputPad { .. }))
                    .collect(),
            );
        }
        let site_xy = (0..sites.len() as u32)
            .map(|i| {
                let s = sites.site(i);
                (s.x, s.y)
            })
            .collect();
        Self {
            kind,
            mode_count,
            loc: circuits
                .iter()
                .map(|c| vec![u32::MAX; c.block_count()])
                .collect(),
            occ: (0..mode_count).map(|_| vec![None; sites.len()]).collect(),
            drives,
            driven_by,
            crit,
            is_driver,
            site_xy,
            net_cost: HashMap::new(),
            wl: 0.0,
            pairs: HashMap::new(),
            timing_cost: 0.0,
            track_wl,
            track_pairs,
            track_timing,
            undo: None,
        }
    }

    /// Number of modes.
    #[must_use]
    pub fn mode_count(&self) -> usize {
        self.mode_count
    }

    /// The criticality-weighted delay component (0 unless tracked).
    #[must_use]
    pub fn timing_cost(&self) -> f64 {
        self.timing_cost
    }

    /// The cost of the tunable net sourced at `site`, or `None` when no
    /// driver of any mode is placed there — the naive O(n²)-dedup
    /// formulation the flat model's refcount matrix replaces.
    fn compute_net_cost(&self, site: u32) -> Option<f64> {
        let mut terms: Vec<u32> = Vec::with_capacity(8);
        let push = |terms: &mut Vec<u32>, s: u32| {
            if !terms.contains(&s) {
                terms.push(s);
            }
        };
        for m in 0..self.mode_count {
            if let Some(b) = self.occ[m][site as usize] {
                if self.is_driver[m][b as usize] {
                    push(&mut terms, site);
                    for &snk in &self.drives[m][b as usize] {
                        push(&mut terms, self.loc[m][snk as usize]);
                    }
                }
            }
        }
        if terms.is_empty() {
            return None;
        }
        let (mut minx, mut maxx, mut miny, mut maxy) = (u16::MAX, 0u16, u16::MAX, 0u16);
        for &t in &terms {
            let (x, y) = self.site_xy[t as usize];
            minx = minx.min(x);
            maxx = maxx.max(x);
            miny = miny.min(y);
            maxy = maxy.max(y);
        }
        let span = f64::from(maxx - minx + 1) + f64::from(maxy - miny + 1);
        Some(q_factor(terms.len()) * span)
    }
}

impl CostTracker for NaiveCostModel {
    fn set_location(&mut self, mode: usize, block: u32, site: u32) {
        assert!(
            self.occ[mode][site as usize].is_none(),
            "site already occupied in mode {mode}"
        );
        self.loc[mode][block as usize] = site;
        self.occ[mode][site as usize] = Some(block);
    }

    fn location(&self, mode: usize, block: u32) -> u32 {
        self.loc[mode][block as usize]
    }

    fn recompute(&mut self) {
        self.undo = None;
        if self.track_wl {
            self.net_cost.clear();
            self.wl = 0.0;
            let site_count = self.site_xy.len() as u32;
            for s in 0..site_count {
                if let Some(c) = self.compute_net_cost(s) {
                    self.net_cost.insert(s, c);
                    self.wl += c;
                }
            }
        }
        if self.track_pairs {
            self.pairs.clear();
            for m in 0..self.mode_count {
                for (b, sinks) in self.drives[m].iter().enumerate() {
                    let ls = self.loc[m][b];
                    for &snk in sinks {
                        let ld = self.loc[m][snk as usize];
                        *self.pairs.entry((ls, ld)).or_insert(0) += 1;
                    }
                }
            }
        }
        if self.track_timing {
            let mut tc = 0.0;
            for m in 0..self.mode_count {
                for (b, sinks) in self.drives[m].iter().enumerate() {
                    let ls = self.loc[m][b] as usize;
                    for (slot, &snk) in sinks.iter().enumerate() {
                        let ld = self.loc[m][snk as usize] as usize;
                        tc += self.crit[m][b][slot] * manhattan(self.site_xy[ls], self.site_xy[ld]);
                    }
                }
            }
            self.timing_cost = tc;
        }
    }

    fn apply_swap(&mut self, mode: usize, site_a: u32, site_b: u32) -> Option<f64> {
        if site_a == site_b {
            return None;
        }
        let ba = self.occ[mode][site_a as usize];
        let bb = self.occ[mode][site_b as usize];
        if ba.is_none() && bb.is_none() {
            return None;
        }
        let moved: Vec<u32> = ba.iter().chain(bb.iter()).copied().collect();

        // Connections of the moved blocks (mode `mode` only), deduplicated.
        let mut conns: HashSet<(u32, u32)> = HashSet::new();
        if self.track_pairs {
            for &b in &moved {
                for &snk in &self.drives[mode][b as usize] {
                    conns.insert((b, snk));
                }
                for &d in &self.driven_by[mode][b as usize] {
                    conns.insert((d, b));
                }
            }
        }
        let old_pairs: Vec<(u32, u32)> = conns
            .iter()
            .map(|&(d, s)| (self.loc[mode][d as usize], self.loc[mode][s as usize]))
            .collect();

        // Timing needs an *ordered* connection list (f64 folds are
        // order-sensitive): moved blocks in `[ba, bb]` order, each block's
        // drive slots ascending, then its driver entries ascending —
        // exactly the flat model's enumeration.
        let mut tconns: Vec<(u32, u32)> = Vec::new();
        let mut tcrit: Vec<f64> = Vec::new();
        if self.track_timing {
            for &b in &moved {
                for (slot, &snk) in self.drives[mode][b as usize].iter().enumerate() {
                    tconns.push((b, snk));
                    tcrit.push(self.crit[mode][b as usize][slot]);
                }
                for &d in &self.driven_by[mode][b as usize] {
                    // A connection between two moved blocks is already
                    // covered by the drives loop of the driving block.
                    if Some(d) == ba || Some(d) == bb {
                        continue;
                    }
                    let slot = self.drives[mode][d as usize]
                        .iter()
                        .position(|&s| s == b)
                        .expect("driver lists its sink");
                    tconns.push((d, b));
                    tcrit.push(self.crit[mode][d as usize][slot]);
                }
            }
        }
        let t_old: Vec<(u32, u32)> = tconns
            .iter()
            .map(|&(d, s)| (self.loc[mode][d as usize], self.loc[mode][s as usize]))
            .collect();

        // WL: affected tunable-net keys — the two sites plus the sites of
        // every driver of a moved block (identical before/after the move
        // except for drivers that are themselves moved, which are covered
        // by {a, b}).
        let mut keys: Vec<u32> = Vec::new();
        if self.track_wl {
            let push = |keys: &mut Vec<u32>, s: u32| {
                if !keys.contains(&s) {
                    keys.push(s);
                }
            };
            push(&mut keys, site_a);
            push(&mut keys, site_b);
            for &b in &moved {
                for &d in &self.driven_by[mode][b as usize] {
                    push(&mut keys, self.loc[mode][d as usize]);
                }
            }
        }

        // ---- apply the move -------------------------------------------------
        self.occ[mode][site_a as usize] = bb;
        self.occ[mode][site_b as usize] = ba;
        if let Some(b) = ba {
            self.loc[mode][b as usize] = site_b;
        }
        if let Some(b) = bb {
            self.loc[mode][b as usize] = site_a;
        }

        let mut delta = 0.0;

        // ---- wire length ----------------------------------------------------
        let mut wl_snapshot = Vec::with_capacity(keys.len());
        if self.track_wl {
            for &key in &keys {
                let old = self.net_cost.get(&key).copied();
                let new = self.compute_net_cost(key);
                wl_snapshot.push((key, old));
                let old_v = old.unwrap_or(0.0);
                let new_v = new.unwrap_or(0.0);
                self.wl += new_v - old_v;
                let wl_delta = new_v - old_v;
                match new {
                    Some(c) => {
                        self.net_cost.insert(key, c);
                    }
                    None => {
                        self.net_cost.remove(&key);
                    }
                }
                match self.kind {
                    CostKind::WireLength => delta += wl_delta,
                    CostKind::Hybrid { wl_weight, .. } => delta += wl_weight * wl_delta,
                    CostKind::Timing { alpha } => delta += (1.0 - alpha) * wl_delta,
                    CostKind::EdgeMatching => {}
                }
            }
        }

        // ---- timing ---------------------------------------------------------
        let timing_before = self.timing_cost;
        if self.track_timing {
            let mut td = 0.0;
            for (i, &(d, s)) in tconns.iter().enumerate() {
                let (ods, oss) = t_old[i];
                let nds = self.loc[mode][d as usize] as usize;
                let nss = self.loc[mode][s as usize] as usize;
                td += tcrit[i]
                    * (manhattan(self.site_xy[nds], self.site_xy[nss])
                        - manhattan(self.site_xy[ods as usize], self.site_xy[oss as usize]));
            }
            self.timing_cost += td;
            if let CostKind::Timing { alpha } = self.kind {
                delta += alpha * td;
            }
        }

        // ---- edge matching --------------------------------------------------
        let mut pair_ops: Vec<((u32, u32), i32)> = Vec::new();
        if self.track_pairs {
            let new_pairs: Vec<(u32, u32)> = conns
                .iter()
                .map(|&(d, s)| (self.loc[mode][d as usize], self.loc[mode][s as usize]))
                .collect();
            let mut distinct_delta = 0i64;
            for &p in &old_pairs {
                let c = self.pairs.get_mut(&p).expect("old pair present");
                *c -= 1;
                if *c == 0 {
                    self.pairs.remove(&p);
                    distinct_delta -= 1;
                }
                pair_ops.push((p, -1));
            }
            for &p in &new_pairs {
                let c = self.pairs.entry(p).or_insert(0);
                if *c == 0 {
                    distinct_delta += 1;
                }
                *c += 1;
                pair_ops.push((p, 1));
            }
            match self.kind {
                CostKind::EdgeMatching => delta += distinct_delta as f64,
                CostKind::Hybrid { edge_weight, .. } => {
                    delta += edge_weight * distinct_delta as f64;
                }
                CostKind::WireLength | CostKind::Timing { .. } => {}
            }
        }

        self.undo = Some(SwapUndo {
            mode,
            site_a,
            site_b,
            wl_snapshot,
            pair_ops,
            timing: timing_before,
        });
        Some(delta)
    }

    fn revert_last(&mut self) {
        let undo = self.undo.take().expect("no swap to revert");
        let (mode, a, b) = (undo.mode, undo.site_a, undo.site_b);
        if self.track_timing {
            self.timing_cost = undo.timing;
        }
        let ba = self.occ[mode][b as usize];
        let bb = self.occ[mode][a as usize];
        self.occ[mode][a as usize] = ba;
        self.occ[mode][b as usize] = bb;
        if let Some(blk) = ba {
            self.loc[mode][blk as usize] = a;
        }
        if let Some(blk) = bb {
            self.loc[mode][blk as usize] = b;
        }
        // Restore net costs.
        for (key, old) in undo.wl_snapshot {
            let current = self.net_cost.get(&key).copied().unwrap_or(0.0);
            match old {
                Some(c) => {
                    self.wl += c - current;
                    self.net_cost.insert(key, c);
                }
                None => {
                    self.wl -= current;
                    self.net_cost.remove(&key);
                }
            }
        }
        // Reverse pair operations.
        for (pair, op) in undo.pair_ops.into_iter().rev() {
            match op {
                1 => {
                    let c = self.pairs.get_mut(&pair).expect("pair present");
                    *c -= 1;
                    if *c == 0 {
                        self.pairs.remove(&pair);
                    }
                }
                _ => {
                    *self.pairs.entry(pair).or_insert(0) += 1;
                }
            }
        }
    }

    fn cost(&self) -> f64 {
        match self.kind {
            CostKind::WireLength => self.wl,
            CostKind::EdgeMatching => self.pairs.len() as f64,
            CostKind::Hybrid {
                wl_weight,
                edge_weight,
            } => wl_weight * self.wl + edge_weight * self.pairs.len() as f64,
            CostKind::Timing { alpha } => (1.0 - alpha) * self.wl + alpha * self.timing_cost,
        }
    }

    fn wirelength(&self) -> f64 {
        self.wl
    }

    fn tunable_connections(&self) -> usize {
        self.pairs.len()
    }

    fn net_count(&self) -> usize {
        if self.track_wl {
            self.net_cost.len().max(1)
        } else {
            self.pairs.len().max(1)
        }
    }
}
