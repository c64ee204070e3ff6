//! Incremental cost evaluation for combined placement.
//!
//! The combined placer evaluates two cost functions over a *simultaneous*
//! placement of all modes (paper §III-B):
//!
//! * **Wire length** — the novel approach: the bounding-box wire length of
//!   the *merged tunable circuit*. Every site hosting at least one driver
//!   block defines one tunable net whose terminals are the site itself
//!   plus the sites of every sink of every co-located mode driver; the
//!   cost is VPR's `q(t) · HPWL` summed over tunable nets. "The
//!   wire-length estimation used during the combined placement is the same
//!   as the one TPlace uses during the placement of the Tunable circuit
//!   after merging."
//! * **Circuit edge matching** — the prior technique (Rullmann & Merker):
//!   minimise the number of *distinct* site-level connections
//!   `(source site, sink site)`; connections of different modes that land
//!   on the same site pair merge into one tunable connection.
//!
//! # Hot-path engineering
//!
//! [`CostModel`] is the flat, allocation-free formulation that mirrors the
//! router's scratch arena (`mm-route`):
//!
//! * per-net cost, activity, bounding box and distinct-terminal count live
//!   in dense `Vec`s indexed by source site — no `HashMap<u32, f64>`;
//! * per-net terminal multiplicities are a dense `site × site` refcount
//!   matrix, so terminal dedup is one counter transition instead of the
//!   naive `terms.contains` scan;
//! * cached bounding boxes are updated incrementally on swap: an arriving
//!   terminal only *expands* the box, and a departing one triggers a full
//!   recompute of the box **only** when it sat on a box edge;
//! * a swap touches exactly the departing/arriving occupants'
//!   contributions — no whole-net re-enumeration;
//! * site-pair multiplicities for edge matching are a dense matrix plus a
//!   distinct-pair counter — no `HashMap<(u32, u32), u32>`;
//! * all per-swap bookkeeping (affected keys, snapshots, refcount and
//!   pair operations) lives in reusable scratch buffers, so steady-state
//!   [`CostTracker::apply_swap`] performs **zero heap allocations**
//!   (asserted by [`CostModel::scratch_footprint`] regression tests).
//!
//! The straightforward hash-map formulation the flat model replaced lives
//! in [`crate::reference`] as [`crate::reference::NaiveCostModel`]; seeded
//! property tests keep the two byte-identical (same costs, same deltas,
//! same placements), so every data-structure optimization is provably
//! semantics-preserving. Both are maintained incrementally under
//! single-mode swaps with exact undo, so the annealer can evaluate
//! millions of moves.

use crate::{q_factor, SiteMap};
use mm_netlist::{BlockKind, LutCircuit};

/// Which cost function drives the combined placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostKind {
    /// Bounding-box wire length of the merged tunable circuit (the paper's
    /// novel approach).
    WireLength,
    /// Number of distinct tunable connections (circuit edge matching).
    EdgeMatching,
    /// Weighted combination `wl_weight · WL + edge_weight · connections`
    /// (an ablation knob; not part of the paper).
    Hybrid {
        /// Weight of the wire-length term.
        wl_weight: f64,
        /// Weight of the connection-count term.
        edge_weight: f64,
    },
    /// Timing-driven blend `(1 - alpha) · WL + alpha · Σ crit · dist`:
    /// wire length plus a criticality-weighted Manhattan-delay term over
    /// every mode connection, with criticalities from `mm-sta`'s
    /// placement-independent unit-delay analysis.
    Timing {
        /// Weight of the delay term in `0..=1` (`0` degenerates to
        /// pure wire length).
        alpha: f64,
    },
}

impl CostKind {
    /// A stable fingerprint of the cost function (floats by bit pattern),
    /// used by the batch engine's stage cache keys.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        match self {
            CostKind::WireLength => "wl".to_string(),
            CostKind::EdgeMatching => "edge".to_string(),
            CostKind::Hybrid {
                wl_weight,
                edge_weight,
            } => format!(
                "hybrid({:016x},{:016x})",
                wl_weight.to_bits(),
                edge_weight.to_bits()
            ),
            CostKind::Timing { alpha } => format!("timing({:016x})", alpha.to_bits()),
        }
    }

    /// Whether the wire-length / pair terms are tracked for this kind.
    pub(crate) fn tracks(self) -> (bool, bool) {
        match self {
            CostKind::WireLength | CostKind::Timing { .. } => (true, false),
            CostKind::EdgeMatching => (false, true),
            CostKind::Hybrid { .. } => (true, true),
        }
    }

    /// Whether the criticality-weighted delay term is tracked.
    pub(crate) fn tracks_timing(self) -> bool {
        matches!(self, CostKind::Timing { .. })
    }
}

/// Manhattan distance between two sites as `f64` (widened before
/// summing so the `u16` coordinate differences cannot overflow).
#[inline]
pub(crate) fn manhattan(a: (u16, u16), b: (u16, u16)) -> f64 {
    f64::from(u32::from(a.0.abs_diff(b.0)) + u32::from(a.1.abs_diff(b.1)))
}

/// The incremental-cost interface the annealer drives.
///
/// Implemented by the flat [`CostModel`] and by the naive
/// [`crate::reference::NaiveCostModel`]; the two produce bit-identical
/// costs and deltas, so the annealer yields byte-identical placements with
/// either — the differential-testing contract of the placement hot path.
pub trait CostTracker {
    /// Places block `block` of `mode` on `site` (initial placement only).
    fn set_location(&mut self, mode: usize, block: u32, site: u32);
    /// The current site of a block.
    fn location(&self, mode: usize, block: u32) -> u32;
    /// Recomputes all bookkeeping from scratch (initialisation and
    /// periodic drift correction).
    fn recompute(&mut self);
    /// Applies the swap of the `mode`-occupants of the two sites and
    /// returns the cost delta, or `None` (applying nothing) when both
    /// sites are empty in that mode or equal. A returned swap can be
    /// undone with [`CostTracker::revert_last`] until the next call.
    fn apply_swap(&mut self, mode: usize, site_a: u32, site_b: u32) -> Option<f64>;
    /// Reverts the most recent applied (un-reverted) swap exactly.
    fn revert_last(&mut self);
    /// The current total cost under the configured [`CostKind`].
    fn cost(&self) -> f64;
    /// The bounding-box wire-length component (0 unless tracked).
    fn wirelength(&self) -> f64;
    /// The number of distinct tunable connections (0 unless tracked).
    fn tunable_connections(&self) -> usize;
    /// Number of tunable nets (the annealer's exit test scales with it).
    fn net_count(&self) -> usize;
}

/// Empty-occupant sentinel in the dense occupancy table.
const EMPTY: u32 = u32::MAX;

/// Fabrics up to this many placeable sites use the dense `site × site`
/// matrices; [`crate::place_combined`] falls back to the naive model
/// beyond it (the matrices would cost `O(sites²)` memory).
pub const DENSE_SITE_LIMIT: usize = 2048;

/// Per-affected-net snapshot recorded by `apply_swap` for exact undo.
#[derive(Debug, Clone, Copy)]
struct NetSnapshot {
    site: u32,
    cost: f64,
    active: bool,
    distinct: u32,
    bbox: [u16; 4],
}

/// The combined-placement state: per-mode block locations plus flat
/// incremental cost bookkeeping (see the module docs for the layout).
#[derive(Debug)]
pub struct CostModel {
    kind: CostKind,
    mode_count: usize,
    site_count: usize,
    /// Flat-block-index base per mode: block `(m, b)` lives at
    /// `block_off[m] + b`; `block_off[mode_count]` is the total.
    block_off: Vec<usize>,
    /// CSR adjacency over flat blocks: distinct sinks driven by a block.
    drives_idx: Vec<u32>,
    drives_dat: Vec<u32>,
    /// CSR adjacency over flat blocks: distinct drivers of a block.
    driven_idx: Vec<u32>,
    driven_dat: Vec<u32>,
    /// Per `drives_dat` entry: the connection's unit-delay criticality
    /// (timing cost only).
    conn_crit: Vec<f64>,
    /// Per `driven_dat` entry: the global `drives_dat` index of the same
    /// connection (timing cost only) — lets the swap path find a
    /// connection's criticality from the consumer side in O(1).
    driven_pos: Vec<u32>,
    /// Whether the flat block drives a net (LUTs and input pads).
    is_driver: Vec<bool>,
    /// `[block_off[m] + b] → site index`.
    loc: Vec<u32>,
    /// `[m · site_count + s] → mode-local block` (`EMPTY` when vacant).
    occ: Vec<u32>,
    site_xy: Vec<(u16, u16)>,
    // ---- wire-length state (dense, site-indexed) ----
    net_cost: Vec<f64>,
    net_active: Vec<bool>,
    net_distinct: Vec<u32>,
    /// Cached terminal bounding box `[minx, maxx, miny, maxy]` per net.
    net_bbox: Vec<[u16; 4]>,
    /// `q_factor(t)` memoised for every possible distinct-terminal count
    /// (bit-identical to calling [`q_factor`]).
    q_table: Vec<f64>,
    /// `[net · site_count + term] → reference count` — the seen structure
    /// replacing the naive `terms.contains` scan.
    term_refs: Vec<u16>,
    wl: f64,
    active_nets: usize,
    // ---- edge-matching state ----
    /// `[src_site · site_count + dst_site] → connection multiplicity`.
    pair_counts: Vec<u32>,
    distinct_pairs: usize,
    // ---- timing state ----
    /// Running `Σ crit · manhattan` over all mode connections.
    timing_cost: f64,
    track_wl: bool,
    track_pairs: bool,
    track_timing: bool,
    // ---- reusable swap scratch (zero steady-state allocations) ----
    /// Stamped site marks deduplicating the affected-net key list.
    key_stamp: Vec<u32>,
    key_generation: u32,
    keys: Vec<u32>,
    snapshots: Vec<NetSnapshot>,
    /// Refcount operations `(net, term, ±1)` of the pending swap.
    ref_ops: Vec<(u32, u32, i8)>,
    /// Nets whose bbox needs a rescan (the last terminal on a box edge
    /// departed), deduplicated by stamp.
    dirty: Vec<u32>,
    dirty_stamp: Vec<u32>,
    dirty_generation: u32,
    /// Terminal enumeration buffer for `recompute`.
    term_buf: Vec<u32>,
    /// Mode-local connections `(driver, sink)` touched by the swap.
    conns: Vec<(u32, u32)>,
    /// Pre-move site pairs of `conns`.
    old_pairs: Vec<(u32, u32)>,
    /// Criticalities of `conns` (timing cost only).
    conn_crit_buf: Vec<f64>,
    /// Pair-count operations (flattened pair index, ±1) of the swap.
    pair_ops: Vec<(u32, i8)>,
    // ---- pending-undo state ----
    undo_valid: bool,
    undo_mode: usize,
    undo_a: u32,
    undo_b: u32,
    /// Pre-swap `timing_cost` (a scalar snapshot: subtracting the delta
    /// back out would not be bit-exact).
    undo_timing: f64,
}

impl CostModel {
    /// Whether a fabric with `sites` placeable sites fits the dense
    /// matrices (see [`DENSE_SITE_LIMIT`]).
    #[must_use]
    pub fn fits(sites: usize) -> bool {
        sites <= DENSE_SITE_LIMIT
    }

    /// Builds the model from the mode circuits; all blocks start unplaced
    /// (call [`CostTracker::set_location`] then [`CostTracker::recompute`]).
    #[must_use]
    pub fn new(circuits: &[LutCircuit], sites: &SiteMap, kind: CostKind) -> Self {
        let mode_count = circuits.len();
        let site_count = sites.len();
        let mut block_off = Vec::with_capacity(mode_count + 1);
        let mut total = 0usize;
        for c in circuits {
            block_off.push(total);
            total += c.block_count();
        }
        block_off.push(total);

        let (track_wl, track_pairs) = kind.tracks();
        let track_timing = kind.tracks_timing();
        let mut drives: Vec<Vec<u32>> = vec![Vec::new(); total];
        let mut driven: Vec<Vec<u32>> = vec![Vec::new(); total];
        let mut crit_lists: Vec<Vec<f64>> = if track_timing {
            vec![Vec::new(); total]
        } else {
            Vec::new()
        };
        let mut driven_slot: Vec<Vec<u32>> = if track_timing {
            vec![Vec::new(); total]
        } else {
            Vec::new()
        };
        let mut is_driver = Vec::with_capacity(total);
        for (m, circuit) in circuits.iter().enumerate() {
            let crits = if track_timing {
                mm_sta::unit_criticalities(circuit)
                    .expect("timing cost requires combinationally acyclic circuits")
            } else {
                Vec::new()
            };
            for (ci, (src, dst)) in circuit.connections().into_iter().enumerate() {
                let fs = block_off[m] + src.index();
                let fd = block_off[m] + dst.index();
                drives[fs].push(dst.index() as u32);
                driven[fd].push(src.index() as u32);
                if track_timing {
                    crit_lists[fs].push(crits[ci]);
                    driven_slot[fd].push(drives[fs].len() as u32 - 1);
                }
            }
            is_driver.extend(
                circuit
                    .block_ids()
                    .map(|id| !matches!(circuit.block(id).kind(), BlockKind::OutputPad { .. })),
            );
        }
        let (drives_idx, drives_dat) = to_csr(&drives);
        let (driven_idx, driven_dat) = to_csr(&driven);
        // Flattened in the same block order as `drives_dat`, so the
        // criticality of `drives_dat[i]` is `conn_crit[i]`.
        let conn_crit: Vec<f64> = crit_lists.into_iter().flatten().collect();
        let driven_slot_dat: Vec<u32> = driven_slot.into_iter().flatten().collect();
        let mut driven_pos = vec![0u32; driven_slot_dat.len()];
        if track_timing {
            for m in 0..mode_count {
                let off = block_off[m];
                for flat in off..block_off[m + 1] {
                    for i in driven_idx[flat] as usize..driven_idx[flat + 1] as usize {
                        let src_flat = off + driven_dat[i] as usize;
                        driven_pos[i] = drives_idx[src_flat] + driven_slot_dat[i];
                    }
                }
            }
        }

        let site_xy = (0..site_count as u32)
            .map(|i| {
                let s = sites.site(i);
                (s.x, s.y)
            })
            .collect();
        Self {
            kind,
            mode_count,
            site_count,
            block_off,
            drives_idx,
            drives_dat,
            driven_idx,
            driven_dat,
            conn_crit,
            driven_pos,
            is_driver,
            loc: vec![EMPTY; total],
            occ: vec![EMPTY; mode_count * site_count],
            site_xy,
            net_cost: if track_wl {
                vec![0.0; site_count]
            } else {
                Vec::new()
            },
            net_active: if track_wl {
                vec![false; site_count]
            } else {
                Vec::new()
            },
            net_distinct: if track_wl {
                vec![0; site_count]
            } else {
                Vec::new()
            },
            net_bbox: if track_wl {
                vec![[0; 4]; site_count]
            } else {
                Vec::new()
            },
            q_table: if track_wl {
                (0..=site_count).map(q_factor).collect()
            } else {
                Vec::new()
            },
            term_refs: if track_wl {
                vec![0; site_count * site_count]
            } else {
                Vec::new()
            },
            wl: 0.0,
            active_nets: 0,
            pair_counts: if track_pairs {
                vec![0; site_count * site_count]
            } else {
                Vec::new()
            },
            distinct_pairs: 0,
            timing_cost: 0.0,
            track_wl,
            track_pairs,
            track_timing,
            key_stamp: vec![0; site_count],
            key_generation: 0,
            keys: Vec::new(),
            snapshots: Vec::new(),
            ref_ops: Vec::new(),
            dirty: Vec::new(),
            dirty_stamp: vec![0; site_count],
            dirty_generation: 0,
            term_buf: Vec::new(),
            conns: Vec::new(),
            old_pairs: Vec::new(),
            conn_crit_buf: Vec::new(),
            pair_ops: Vec::new(),
            undo_valid: false,
            undo_mode: 0,
            undo_a: 0,
            undo_b: 0,
            undo_timing: 0.0,
        }
    }

    /// The criticality-weighted delay component (0 unless tracked).
    #[must_use]
    pub fn timing_cost(&self) -> f64 {
        self.timing_cost
    }

    /// Number of modes.
    #[must_use]
    pub fn mode_count(&self) -> usize {
        self.mode_count
    }

    /// Total capacity (in elements) of the reusable swap scratch buffers.
    /// Steady-state swapping must leave this unchanged — the
    /// zero-allocation regression tests assert exactly that.
    #[must_use]
    pub fn scratch_footprint(&self) -> usize {
        self.keys.capacity()
            + self.snapshots.capacity()
            + self.ref_ops.capacity()
            + self.dirty.capacity()
            + self.term_buf.capacity()
            + self.conns.capacity()
            + self.old_pairs.capacity()
            + self.conn_crit_buf.capacity()
            + self.pair_ops.capacity()
    }

    /// Calls `visit` on each terminal reference of the tunable net
    /// sourced at `site` (with multiplicity, no dedup).
    #[inline]
    fn for_each_term(&self, site: u32, mut visit: impl FnMut(u32)) {
        for m in 0..self.mode_count {
            let b = self.occ[m * self.site_count + site as usize];
            if b == EMPTY {
                continue;
            }
            let flat = self.block_off[m] + b as usize;
            if !self.is_driver[flat] {
                continue;
            }
            visit(site);
            let (lo, hi) = (
                self.drives_idx[flat] as usize,
                self.drives_idx[flat + 1] as usize,
            );
            for &snk in &self.drives_dat[lo..hi] {
                visit(self.loc[self.block_off[m] + snk as usize]);
            }
        }
    }

    /// Enumerates the terminal references of the net sourced at `site`
    /// into `buf` — used by [`CostTracker::recompute`], whose `add_ref`
    /// needs the model mutably; swaps never enumerate whole nets.
    fn collect_terms(&self, site: u32, buf: &mut Vec<u32>) {
        buf.clear();
        self.for_each_term(site, |t| buf.push(t));
    }

    /// Folds a freshly distinct terminal into a net's cached bounding box
    /// (an arriving terminal can only expand the box).
    #[inline]
    fn register_distinct(distinct: u32, x: u16, y: u16, bb: &mut [u16; 4]) {
        if distinct == 1 {
            *bb = [x, x, y, y];
            return;
        }
        bb[0] = bb[0].min(x);
        bb[1] = bb[1].max(x);
        bb[2] = bb[2].min(y);
        bb[3] = bb[3].max(y);
    }

    /// Adds one terminal reference to a net: distinct count, bounding box
    /// and edge supports only change on the 0 → 1 transition.
    #[inline]
    fn add_ref(&mut self, net: u32, term: u32) {
        self.ref_ops.push((net, term, 1));
        let r = &mut self.term_refs[net as usize * self.site_count + term as usize];
        *r += 1;
        if *r == 1 {
            let d = &mut self.net_distinct[net as usize];
            *d += 1;
            let (x, y) = self.site_xy[term as usize];
            Self::register_distinct(*d, x, y, &mut self.net_bbox[net as usize]);
        }
    }

    /// Removes one terminal reference; the cached box can only shrink
    /// when the last reference of a terminal sitting on a box edge
    /// disappears — the sole case queued for a bbox recompute.
    #[inline]
    fn remove_ref(&mut self, net: u32, term: u32) {
        self.ref_ops.push((net, term, -1));
        let r = &mut self.term_refs[net as usize * self.site_count + term as usize];
        debug_assert!(*r > 0, "terminal refcount underflow");
        *r -= 1;
        if *r == 0 {
            self.net_distinct[net as usize] -= 1;
            if self.net_distinct[net as usize] == 0 {
                return; // inactive; the next arrival reinitialises the box
            }
            let (x, y) = self.site_xy[term as usize];
            let bb = self.net_bbox[net as usize];
            if (x == bb[0] || x == bb[1] || y == bb[2] || y == bb[3])
                && self.dirty_stamp[net as usize] != self.dirty_generation
            {
                self.dirty_stamp[net as usize] = self.dirty_generation;
                self.dirty.push(net);
            }
        }
    }

    /// Recomputes a net's bounding box from its terminal multiset (the
    /// box of the multiset equals the box of the distinct set, so no
    /// dedup is needed) — the "full recompute" a departing edge terminal
    /// forces. Each terminal is folded in as it is enumerated.
    fn rescan_bbox(&mut self, net: u32) {
        let mut bb = [u16::MAX, 0u16, u16::MAX, 0u16];
        self.for_each_term(net, |t| {
            let (x, y) = self.site_xy[t as usize];
            bb[0] = bb[0].min(x);
            bb[1] = bb[1].max(x);
            bb[2] = bb[2].min(y);
            bb[3] = bb[3].max(y);
        });
        self.net_bbox[net as usize] = bb;
    }

    /// The cached cost of net `s` from its distinct count and bbox —
    /// bit-identical to the naive model's `compute_net_cost`.
    #[inline]
    fn cached_net_cost(&self, s: u32) -> Option<f64> {
        let distinct = self.net_distinct[s as usize];
        if distinct == 0 {
            return None;
        }
        let bb = self.net_bbox[s as usize];
        let span = f64::from(bb[1] - bb[0] + 1) + f64::from(bb[3] - bb[2] + 1);
        Some(self.q_table[distinct as usize] * span)
    }
}

/// Flattens per-node adjacency lists into CSR (offsets + data).
fn to_csr(lists: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
    let mut idx = Vec::with_capacity(lists.len() + 1);
    let mut dat = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    idx.push(0u32);
    for l in lists {
        dat.extend_from_slice(l);
        idx.push(dat.len() as u32);
    }
    (idx, dat)
}

impl CostTracker for CostModel {
    fn set_location(&mut self, mode: usize, block: u32, site: u32) {
        let o = &mut self.occ[mode * self.site_count + site as usize];
        assert!(*o == EMPTY, "site already occupied in mode {mode}");
        *o = block;
        self.loc[self.block_off[mode] + block as usize] = site;
    }

    fn location(&self, mode: usize, block: u32) -> u32 {
        self.loc[self.block_off[mode] + block as usize]
    }

    fn recompute(&mut self) {
        self.undo_valid = false;
        if self.track_wl {
            self.term_refs.fill(0);
            self.net_distinct.fill(0);
            self.net_active.fill(false);
            self.wl = 0.0;
            self.active_nets = 0;
            let mut buf = std::mem::take(&mut self.term_buf);
            for s in 0..self.site_count as u32 {
                self.collect_terms(s, &mut buf);
                for &t in &buf {
                    self.add_ref(s, t);
                }
                if let Some(c) = self.cached_net_cost(s) {
                    self.net_cost[s as usize] = c;
                    self.net_active[s as usize] = true;
                    self.active_nets += 1;
                    self.wl += c;
                }
            }
            self.term_buf = buf;
            // `add_ref` logged undo operations; a recompute is never
            // reverted, so drop them.
            self.ref_ops.clear();
        }
        if self.track_pairs {
            self.pair_counts.fill(0);
            self.distinct_pairs = 0;
            for m in 0..self.mode_count {
                let off = self.block_off[m];
                for b in 0..(self.block_off[m + 1] - off) {
                    let flat = off + b;
                    let ls = self.loc[flat];
                    let (lo, hi) = (
                        self.drives_idx[flat] as usize,
                        self.drives_idx[flat + 1] as usize,
                    );
                    for &snk in &self.drives_dat[lo..hi] {
                        let ld = self.loc[off + snk as usize];
                        let c = &mut self.pair_counts[ls as usize * self.site_count + ld as usize];
                        if *c == 0 {
                            self.distinct_pairs += 1;
                        }
                        *c += 1;
                    }
                }
            }
        }
        if self.track_timing {
            // Modes ascending, blocks ascending, drive slots ascending —
            // the naive model folds in the identical order, so the sum
            // is bit-identical.
            let mut tc = 0.0;
            for m in 0..self.mode_count {
                let off = self.block_off[m];
                for b in 0..(self.block_off[m + 1] - off) {
                    let flat = off + b;
                    let ls = self.loc[flat] as usize;
                    let (lo, hi) = (
                        self.drives_idx[flat] as usize,
                        self.drives_idx[flat + 1] as usize,
                    );
                    for (slot, &snk) in self.drives_dat[lo..hi].iter().enumerate() {
                        let ld = self.loc[off + snk as usize] as usize;
                        tc += self.conn_crit[lo + slot]
                            * manhattan(self.site_xy[ls], self.site_xy[ld]);
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
        let off = self.block_off[mode];
        let ba = self.occ[mode * self.site_count + site_a as usize];
        let bb = self.occ[mode * self.site_count + site_b as usize];
        if ba == EMPTY && bb == EMPTY {
            return None;
        }

        // Reset the swap scratch; from here on nothing allocates in
        // steady state.
        self.keys.clear();
        self.snapshots.clear();
        self.ref_ops.clear();
        self.dirty.clear();
        self.conns.clear();
        self.old_pairs.clear();
        self.conn_crit_buf.clear();
        self.pair_ops.clear();
        self.key_generation = self.key_generation.wrapping_add(1);
        self.dirty_generation = self.dirty_generation.wrapping_add(1);

        // ---- affected tunable-net keys (pre-move, dedup-first) ----------
        if self.track_wl {
            for site in [site_a, site_b] {
                if self.key_stamp[site as usize] != self.key_generation {
                    self.key_stamp[site as usize] = self.key_generation;
                    self.keys.push(site);
                }
            }
            for &x in &[ba, bb] {
                if x == EMPTY {
                    continue;
                }
                let (lo, hi) = (
                    self.driven_idx[off + x as usize] as usize,
                    self.driven_idx[off + x as usize + 1] as usize,
                );
                for &d in &self.driven_dat[lo..hi] {
                    let key = self.loc[off + d as usize];
                    if self.key_stamp[key as usize] != self.key_generation {
                        self.key_stamp[key as usize] = self.key_generation;
                        self.keys.push(key);
                    }
                }
            }
            for &key in &self.keys {
                self.snapshots.push(NetSnapshot {
                    site: key,
                    cost: self.net_cost[key as usize],
                    active: self.net_active[key as usize],
                    distinct: self.net_distinct[key as usize],
                    bbox: self.net_bbox[key as usize],
                });
            }
            // The nets sourced at the swap sites only change in the
            // swapped mode's contribution (other modes' occupants stay
            // put): drop exactly the departing occupant's terminal
            // references — the arriving occupant's are added post-move.
            let drives_dat = std::mem::take(&mut self.drives_dat);
            for &(site, blk) in &[(site_a, ba), (site_b, bb)] {
                if blk == EMPTY {
                    continue;
                }
                let flat = off + blk as usize;
                if !self.is_driver[flat] {
                    continue;
                }
                self.remove_ref(site, site);
                let (lo, hi) = (
                    self.drives_idx[flat] as usize,
                    self.drives_idx[flat + 1] as usize,
                );
                for &snk in &drives_dat[lo..hi] {
                    let term = self.loc[off + snk as usize];
                    self.remove_ref(site, term);
                }
            }
            self.drives_dat = drives_dat;
        }

        // ---- connections touched by the swap (pre-move site pairs) ------
        if self.track_pairs || self.track_timing {
            for &x in &[ba, bb] {
                if x == EMPTY {
                    continue;
                }
                let (lo, hi) = (
                    self.drives_idx[off + x as usize] as usize,
                    self.drives_idx[off + x as usize + 1] as usize,
                );
                for (slot, &s) in self.drives_dat[lo..hi].iter().enumerate() {
                    self.conns.push((x, s));
                    if self.track_timing {
                        self.conn_crit_buf.push(self.conn_crit[lo + slot]);
                    }
                }
                let (lo, hi) = (
                    self.driven_idx[off + x as usize] as usize,
                    self.driven_idx[off + x as usize + 1] as usize,
                );
                for (j, &d) in self.driven_dat[lo..hi].iter().enumerate() {
                    // A connection between two moved blocks is already
                    // covered by the drives loop of the driving block.
                    if d != ba && d != bb {
                        self.conns.push((d, x));
                        if self.track_timing {
                            self.conn_crit_buf
                                .push(self.conn_crit[self.driven_pos[lo + j] as usize]);
                        }
                    }
                }
            }
            for &(d, s) in &self.conns {
                self.old_pairs
                    .push((self.loc[off + d as usize], self.loc[off + s as usize]));
            }
        }

        // ---- apply the move ---------------------------------------------
        self.occ[mode * self.site_count + site_a as usize] = bb;
        self.occ[mode * self.site_count + site_b as usize] = ba;
        if ba != EMPTY {
            self.loc[off + ba as usize] = site_b;
        }
        if bb != EMPTY {
            self.loc[off + bb as usize] = site_a;
        }

        let mut delta = 0.0;

        // ---- wire length ------------------------------------------------
        if self.track_wl {
            // The arriving occupants' contributions to the swap-site nets
            // (post-move locations).
            let drives_dat = std::mem::take(&mut self.drives_dat);
            for &(site, blk) in &[(site_a, bb), (site_b, ba)] {
                if blk == EMPTY {
                    continue;
                }
                let flat = off + blk as usize;
                if !self.is_driver[flat] {
                    continue;
                }
                self.add_ref(site, site);
                let (lo, hi) = (
                    self.drives_idx[flat] as usize,
                    self.drives_idx[flat + 1] as usize,
                );
                for &snk in &drives_dat[lo..hi] {
                    let term = self.loc[off + snk as usize];
                    self.add_ref(site, term);
                }
            }
            self.drives_dat = drives_dat;
            // Every other affected net only sees a moved sink terminal:
            // one refcount decrement at the old site, one increment at
            // the new one.
            let driven_dat = std::mem::take(&mut self.driven_dat);
            for &(x, old_site, new_site) in &[(ba, site_a, site_b), (bb, site_b, site_a)] {
                if x == EMPTY {
                    continue;
                }
                let (lo, hi) = (
                    self.driven_idx[off + x as usize] as usize,
                    self.driven_idx[off + x as usize + 1] as usize,
                );
                for &d in &driven_dat[lo..hi] {
                    if d == ba || d == bb {
                        continue; // its net is keyed at a swap site
                    }
                    let key = self.loc[off + d as usize];
                    self.remove_ref(key, old_site);
                    self.add_ref(key, new_site);
                }
            }
            self.driven_dat = driven_dat;
            // Rescan the bounding box of nets that lost an edge-supporting
            // terminal (rare: most departures leave the box intact).
            let dirty = std::mem::take(&mut self.dirty);
            for &net in &dirty {
                if self.net_distinct[net as usize] > 0 {
                    self.rescan_bbox(net);
                }
            }
            self.dirty = dirty;
            // Fold the per-net cost changes into wl/delta in key order —
            // the same order (and therefore the same f64 rounding) as the
            // naive model. Nets whose cached geometry is unchanged
            // contribute an exact 0.0 either way and are skipped.
            let keys = std::mem::take(&mut self.keys);
            for (&key, snap) in keys.iter().zip(&self.snapshots) {
                debug_assert_eq!(snap.site, key);
                if snap.active
                    && self.net_distinct[key as usize] == snap.distinct
                    && self.net_bbox[key as usize] == snap.bbox
                {
                    continue;
                }
                let old_v = if snap.active { snap.cost } else { 0.0 };
                let new = self.cached_net_cost(key);
                let new_v = new.unwrap_or(0.0);
                self.wl += new_v - old_v;
                let wl_delta = new_v - old_v;
                match new {
                    Some(c) => {
                        self.net_cost[key as usize] = c;
                        if !snap.active {
                            self.net_active[key as usize] = true;
                            self.active_nets += 1;
                        }
                    }
                    None => {
                        if snap.active {
                            self.net_active[key as usize] = false;
                            self.active_nets -= 1;
                        }
                    }
                }
                match self.kind {
                    CostKind::WireLength => delta += wl_delta,
                    CostKind::Hybrid { wl_weight, .. } => delta += wl_weight * wl_delta,
                    CostKind::Timing { alpha } => delta += (1.0 - alpha) * wl_delta,
                    CostKind::EdgeMatching => {}
                }
            }
            self.keys = keys;
        }

        // ---- timing -----------------------------------------------------
        if self.track_timing {
            // Each touched connection contributes the change of its
            // criticality-weighted Manhattan length; the enumeration
            // order above matches the naive model's, so the fold is
            // bit-identical.
            let mut td = 0.0;
            for (i, &(d, s)) in self.conns.iter().enumerate() {
                let (ods, oss) = self.old_pairs[i];
                let nds = self.loc[off + d as usize] as usize;
                let nss = self.loc[off + s as usize] as usize;
                td += self.conn_crit_buf[i]
                    * (manhattan(self.site_xy[nds], self.site_xy[nss])
                        - manhattan(self.site_xy[ods as usize], self.site_xy[oss as usize]));
            }
            self.undo_timing = self.timing_cost;
            self.timing_cost += td;
            if let CostKind::Timing { alpha } = self.kind {
                delta += alpha * td;
            }
        }

        // ---- edge matching ----------------------------------------------
        if self.track_pairs {
            let mut distinct_delta = 0i64;
            for &(ls, ld) in &self.old_pairs {
                let idx = ls as usize * self.site_count + ld as usize;
                let c = &mut self.pair_counts[idx];
                debug_assert!(*c > 0, "old pair present");
                *c -= 1;
                if *c == 0 {
                    self.distinct_pairs -= 1;
                    distinct_delta -= 1;
                }
                self.pair_ops.push((idx as u32, -1));
            }
            for &(d, s) in &self.conns {
                let idx = self.loc[off + d as usize] as usize * self.site_count
                    + self.loc[off + s as usize] as usize;
                let c = &mut self.pair_counts[idx];
                if *c == 0 {
                    self.distinct_pairs += 1;
                    distinct_delta += 1;
                }
                *c += 1;
                self.pair_ops.push((idx as u32, 1));
            }
            match self.kind {
                CostKind::EdgeMatching => delta += distinct_delta as f64,
                CostKind::Hybrid { edge_weight, .. } => {
                    delta += edge_weight * distinct_delta as f64;
                }
                CostKind::WireLength | CostKind::Timing { .. } => {}
            }
        }

        self.undo_valid = true;
        self.undo_mode = mode;
        self.undo_a = site_a;
        self.undo_b = site_b;
        Some(delta)
    }

    fn revert_last(&mut self) {
        assert!(self.undo_valid, "no swap to revert");
        self.undo_valid = false;
        let (mode, a, b) = (self.undo_mode, self.undo_a, self.undo_b);
        let off = self.block_off[mode];
        let ba = self.occ[mode * self.site_count + b as usize];
        let bb = self.occ[mode * self.site_count + a as usize];
        self.occ[mode * self.site_count + a as usize] = ba;
        self.occ[mode * self.site_count + b as usize] = bb;
        if ba != EMPTY {
            self.loc[off + ba as usize] = a;
        }
        if bb != EMPTY {
            self.loc[off + bb as usize] = b;
        }
        // Restore the affected nets' cached state exactly (the wl
        // arithmetic mirrors the naive model's snapshot restore).
        for &snap in &self.snapshots {
            let s = snap.site as usize;
            let current = if self.net_active[s] {
                self.net_cost[s]
            } else {
                0.0
            };
            // Branch-for-branch mirror of the naive model's restore, so
            // the running wl stays bit-identical.
            if snap.active {
                self.wl += snap.cost - current;
            } else {
                self.wl -= current;
            }
            if snap.active && !self.net_active[s] {
                self.active_nets += 1;
            } else if !snap.active && self.net_active[s] {
                self.active_nets -= 1;
            }
            self.net_cost[s] = snap.cost;
            self.net_active[s] = snap.active;
            self.net_distinct[s] = snap.distinct;
            self.net_bbox[s] = snap.bbox;
        }
        // Reverse the raw refcount operations (distinct counts and boxes
        // were already restored from the snapshots above).
        for &(net, term, op) in self.ref_ops.iter().rev() {
            let r = &mut self.term_refs[net as usize * self.site_count + term as usize];
            if op == 1 {
                *r -= 1;
            } else {
                *r += 1;
            }
        }
        // Reverse the pair operations.
        for &(idx, op) in self.pair_ops.iter().rev() {
            let c = &mut self.pair_counts[idx as usize];
            if op == 1 {
                *c -= 1;
                if *c == 0 {
                    self.distinct_pairs -= 1;
                }
            } else {
                if *c == 0 {
                    self.distinct_pairs += 1;
                }
                *c += 1;
            }
        }
        // Restore the timing component from its scalar snapshot.
        if self.track_timing {
            self.timing_cost = self.undo_timing;
        }
    }

    fn cost(&self) -> f64 {
        match self.kind {
            CostKind::WireLength => self.wl,
            CostKind::EdgeMatching => self.distinct_pairs as f64,
            CostKind::Hybrid {
                wl_weight,
                edge_weight,
            } => wl_weight * self.wl + edge_weight * self.distinct_pairs as f64,
            CostKind::Timing { alpha } => (1.0 - alpha) * self.wl + alpha * self.timing_cost,
        }
    }

    fn wirelength(&self) -> f64 {
        self.wl
    }

    fn tunable_connections(&self) -> usize {
        self.distinct_pairs
    }

    fn net_count(&self) -> usize {
        if self.track_wl {
            self.active_nets.max(1)
        } else {
            self.distinct_pairs.max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::NaiveCostModel;
    use mm_arch::Architecture;
    use mm_netlist::TruthTable;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// A chain a → g1 → g2 → y.
    fn chain() -> LutCircuit {
        let mut c = LutCircuit::new("chain", 4);
        let a = c.add_input("a").unwrap();
        let g1 = c
            .add_lut("g1", vec![a], TruthTable::var(1, 0), false)
            .unwrap();
        let g2 = c
            .add_lut("g2", vec![g1], TruthTable::var(1, 0), false)
            .unwrap();
        c.add_output("y", g2).unwrap();
        c
    }

    fn setup(kind: CostKind) -> (Vec<LutCircuit>, SiteMap, CostModel) {
        let arch = Architecture::new(4, 3, 4);
        let sites = SiteMap::new(&arch);
        let circuits = vec![chain(), chain()];
        let model = CostModel::new(&circuits, &sites, kind);
        (circuits, sites, model)
    }

    fn place_initial(model: &mut impl CostTracker, sites: &SiteMap) {
        // Mode 0: a→io0, g1→logic0, g2→logic1, y→io1.
        // Mode 1: a→io2, g1→logic4, g2→logic5, y→io3.
        let io: Vec<u32> = sites.io_indices().collect();
        for (m, offsets) in [(0usize, (0usize, 0usize)), (1, (2, 4))] {
            let (io_off, logic_off) = offsets;
            model.set_location(m, 0, io[io_off]); // a
            model.set_location(m, 1, logic_off as u32); // g1
            model.set_location(m, 2, logic_off as u32 + 1); // g2
            model.set_location(m, 3, io[io_off + 1]); // y
        }
        model.recompute();
    }

    /// A fresh model with the same placement, recomputed from scratch.
    fn fresh_copy(
        circuits: &[LutCircuit],
        sites: &SiteMap,
        kind: CostKind,
        model: &CostModel,
    ) -> CostModel {
        let mut fresh = CostModel::new(circuits, sites, kind);
        for (m, c) in circuits.iter().enumerate() {
            for b in 0..c.block_count() as u32 {
                fresh.set_location(m, b, model.location(m, b));
            }
        }
        fresh.recompute();
        fresh
    }

    #[test]
    fn full_recompute_matches_incremental_wl() {
        let kind = CostKind::WireLength;
        let (circuits, sites, mut model) = setup(kind);
        place_initial(&mut model, &sites);
        let mut reference = model.wirelength();
        // Random-ish swap sequence with occasional reverts.
        let moves = [
            (0usize, 0u32, 5u32, true),
            (1, 4, 2, true),
            (0, 1, 3, false),
            (1, 5, 0, true),
            (0, 5, 7, false),
        ];
        for (m, a, b, keep) in moves {
            if let Some(delta) = model.apply_swap(m, a, b) {
                if keep {
                    reference += delta;
                } else {
                    model.revert_last();
                }
            }
            let fresh = fresh_copy(&circuits, &sites, kind, &model);
            assert!(
                (fresh.wirelength() - model.wirelength()).abs() < 1e-6,
                "incremental {} vs fresh {}",
                model.wirelength(),
                fresh.wirelength()
            );
        }
        assert!((model.wirelength() - reference).abs() < 1e-6);
    }

    #[test]
    fn full_recompute_matches_incremental_pairs() {
        let kind = CostKind::EdgeMatching;
        let (circuits, sites, mut model) = setup(kind);
        place_initial(&mut model, &sites);
        let before = model.tunable_connections();
        assert!(before > 0);
        for (m, a, b, keep) in [
            (0usize, 0u32, 4u32, true),
            (1, 5, 1, true),
            (0, 4, 5, false),
            (1, 2, 0, true),
        ] {
            if model.apply_swap(m, a, b).is_some() && !keep {
                model.revert_last();
            }
            let fresh = fresh_copy(&circuits, &sites, kind, &model);
            assert_eq!(fresh.tunable_connections(), model.tunable_connections());
        }
    }

    #[test]
    fn matches_naive_model_bit_for_bit() {
        // The differential contract in miniature: identical costs and
        // deltas against the naive hash-map model, down to the last bit.
        let kind = CostKind::Hybrid {
            wl_weight: 1.0,
            edge_weight: 3.0,
        };
        let (circuits, sites, mut model) = setup(kind);
        let mut naive = NaiveCostModel::new(&circuits, &sites, kind);
        place_initial(&mut model, &sites);
        place_initial(&mut naive, &sites);
        assert_eq!(model.cost().to_bits(), naive.cost().to_bits());
        for (m, a, b, keep) in [
            (0usize, 0u32, 5u32, true),
            (1, 4, 2, false),
            (0, 1, 3, true),
            (1, 5, 0, false),
            (0, 2, 6, true),
        ] {
            let d1 = model.apply_swap(m, a, b);
            let d2 = naive.apply_swap(m, a, b);
            assert_eq!(d1.map(f64::to_bits), d2.map(f64::to_bits));
            if d1.is_some() && !keep {
                model.revert_last();
                naive.revert_last();
            }
            assert_eq!(model.cost().to_bits(), naive.cost().to_bits());
            assert_eq!(model.wirelength().to_bits(), naive.wirelength().to_bits());
            assert_eq!(model.tunable_connections(), naive.tunable_connections());
        }
    }

    #[test]
    fn perfect_overlap_minimises_edge_cost() {
        let (_c, sites, mut model) = setup(CostKind::EdgeMatching);
        // Both modes placed identically: connections all merge.
        let io: Vec<u32> = sites.io_indices().collect();
        for m in 0..2 {
            model.set_location(m, 0, io[0]);
            model.set_location(m, 1, 0);
            model.set_location(m, 2, 1);
            model.set_location(m, 3, io[1]);
        }
        model.recompute();
        // 3 connections per mode, fully merged → 3 distinct pairs.
        assert_eq!(model.tunable_connections(), 3);
        assert_eq!(model.cost(), 3.0);

        // Moving one block of one mode away splits its two connections.
        let delta = model.apply_swap(1, 1, 5).expect("swap applies");
        assert_eq!(model.tunable_connections(), 5);
        assert_eq!(delta, 2.0);
    }

    #[test]
    fn disjoint_placements_double_edge_cost() {
        let (_c, sites, mut model) = setup(CostKind::EdgeMatching);
        place_initial(&mut model, &sites);
        // Nothing merges: 3 + 3 distinct pairs.
        assert_eq!(model.tunable_connections(), 6);
    }

    #[test]
    fn wl_counts_merged_nets_once() {
        let (_c, sites, mut model) = setup(CostKind::WireLength);
        // Identical placement: the tunable net of each site is the same as
        // a single mode's net → WL equals single-mode WL.
        let io: Vec<u32> = sites.io_indices().collect();
        for m in 0..2 {
            model.set_location(m, 0, io[0]);
            model.set_location(m, 1, 0);
            model.set_location(m, 2, 1);
            model.set_location(m, 3, io[1]);
        }
        model.recompute();
        let merged_wl = model.wirelength();

        let arch = Architecture::new(4, 3, 4);
        let sites2 = SiteMap::new(&arch);
        let single = vec![chain()];
        let mut smodel = CostModel::new(&single, &sites2, CostKind::WireLength);
        smodel.set_location(0, 0, io[0]);
        smodel.set_location(0, 1, 0);
        smodel.set_location(0, 2, 1);
        smodel.set_location(0, 3, io[1]);
        smodel.recompute();
        assert!((merged_wl - smodel.wirelength()).abs() < 1e-9);
    }

    #[test]
    fn swap_of_two_empty_sites_is_none() {
        let (_c, sites, mut model) = setup(CostKind::WireLength);
        place_initial(&mut model, &sites);
        assert!(model.apply_swap(0, 7, 8).is_none());
        assert!(model.apply_swap(0, 3, 3).is_none());
    }

    #[test]
    fn revert_restores_cost_exactly() {
        let (_c, sites, mut model) = setup(CostKind::Hybrid {
            wl_weight: 1.0,
            edge_weight: 2.0,
        });
        place_initial(&mut model, &sites);
        let cost0 = model.cost();
        let wl0 = model.wirelength();
        let pairs0 = model.tunable_connections();
        model.apply_swap(0, 0, 5).expect("applies");
        model.revert_last();
        assert!((model.cost() - cost0).abs() < 1e-9);
        assert!((model.wirelength() - wl0).abs() < 1e-9);
        assert_eq!(model.tunable_connections(), pairs0);
    }

    #[test]
    fn hybrid_cost_combines_components() {
        let (_c, sites, mut model) = setup(CostKind::Hybrid {
            wl_weight: 1.0,
            edge_weight: 10.0,
        });
        place_initial(&mut model, &sites);
        let expect = model.wirelength() + 10.0 * model.tunable_connections() as f64;
        assert!((model.cost() - expect).abs() < 1e-9);
    }

    #[test]
    fn swap_scratch_is_stable() {
        let (_c, sites, mut model) = setup(CostKind::Hybrid {
            wl_weight: 1.0,
            edge_weight: 2.0,
        });
        place_initial(&mut model, &sites);
        // Round 0 warms the scratch; every later round must leave it
        // untouched (steady-state swaps never grow it).
        let mut footprint = 0usize;
        for round in 0..5 {
            for (m, a, b) in [(0usize, 0u32, 5u32), (1, 4, 2), (0, 1, 3), (1, 5, 0)] {
                if model.apply_swap(m, a, b).is_some() && round % 2 == 0 {
                    model.revert_last();
                }
            }
            if round == 0 {
                footprint = model.scratch_footprint();
                assert!(footprint > 0, "scratch is in use");
            } else {
                assert_eq!(model.scratch_footprint(), footprint, "no scratch growth");
            }
        }
    }

    /// The buffered rescan the one-pass [`CostModel::rescan_bbox`]
    /// replaced: enumerate the net's terminals into a buffer, then fold
    /// the buffer.
    fn rescan_bbox_buffered(model: &CostModel, net: u32) -> [u16; 4] {
        let mut buf = Vec::new();
        for m in 0..model.mode_count {
            let b = model.occ[m * model.site_count + net as usize];
            if b == EMPTY {
                continue;
            }
            let flat = model.block_off[m] + b as usize;
            if !model.is_driver[flat] {
                continue;
            }
            buf.push(net);
            let (lo, hi) = (
                model.drives_idx[flat] as usize,
                model.drives_idx[flat + 1] as usize,
            );
            for &snk in &model.drives_dat[lo..hi] {
                buf.push(model.loc[model.block_off[m] + snk as usize]);
            }
        }
        let mut bb = [u16::MAX, 0u16, u16::MAX, 0u16];
        for &t in &buf {
            let (x, y) = model.site_xy[t as usize];
            bb[0] = bb[0].min(x);
            bb[1] = bb[1].max(x);
            bb[2] = bb[2].min(y);
            bb[3] = bb[3].max(y);
        }
        bb
    }

    /// A seeded random circuit of 5 inputs, `luts` LUTs and 3 outputs.
    fn random_circuit(luts: usize, rng: &mut StdRng) -> LutCircuit {
        let mut c = LutCircuit::new("random", 4);
        let mut drivers: Vec<_> = (0..5)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        for j in 0..luts {
            let fanin = rng.gen_range(2..=4);
            let mut ins = Vec::new();
            while ins.len() < fanin {
                let d = drivers[rng.gen_range(0..drivers.len())];
                if !ins.contains(&d) {
                    ins.push(d);
                }
            }
            let tt = TruthTable::from_bits(ins.len(), rng.gen());
            drivers.push(c.add_lut(format!("n{j}"), ins, tt, false).unwrap());
        }
        for t in 0..3 {
            c.add_output(format!("o{t}"), drivers[drivers.len() - 1 - t])
                .unwrap();
        }
        c
    }

    #[test]
    fn one_pass_rescan_matches_the_buffered_rescan() {
        let mut rng = StdRng::seed_from_u64(27);
        for _ in 0..8 {
            let circuits: Vec<LutCircuit> = (0..rng.gen_range(1..=3))
                .map(|_| random_circuit(rng.gen_range(8..=20), &mut rng))
                .collect();
            let sites = SiteMap::new(&Architecture::new(4, 5, 6));
            let mut model = CostModel::new(&circuits, &sites, CostKind::WireLength);
            for (m, c) in circuits.iter().enumerate() {
                let mut io: Vec<u32> = sites.io_indices().collect();
                let mut logic: Vec<u32> = sites.logic_indices().collect();
                io.shuffle(&mut rng);
                logic.shuffle(&mut rng);
                for b in c.block_ids() {
                    let pool = match c.block(b).kind() {
                        BlockKind::Lut { .. } => &mut logic,
                        _ => &mut io,
                    };
                    model.set_location(m, b.index() as u32, pool.pop().unwrap());
                }
            }
            model.recompute();
            for _ in 0..300 {
                let (m, a, b) = (
                    rng.gen_range(0..circuits.len()),
                    rng.gen_range(0..sites.len() as u32),
                    rng.gen_range(0..sites.len() as u32),
                );
                if sites.is_logic(a) != sites.is_logic(b) || model.apply_swap(m, a, b).is_none() {
                    continue;
                }
                for net in 0..sites.len() as u32 {
                    if model.net_distinct[net as usize] == 0 {
                        continue;
                    }
                    let expected = rescan_bbox_buffered(&model, net);
                    assert_eq!(
                        model.net_bbox[net as usize], expected,
                        "cached box of net {net}"
                    );
                    model.rescan_bbox(net);
                    assert_eq!(model.net_bbox[net as usize], expected, "net {net}");
                }
            }
        }
    }

    #[test]
    fn dense_limit_gate() {
        assert!(CostModel::fits(64));
        assert!(CostModel::fits(DENSE_SITE_LIMIT));
        assert!(!CostModel::fits(DENSE_SITE_LIMIT + 1));
    }
}
