//! Criterion micro-benchmarks of the optimized hot paths against their
//! naive baselines — the counterpart of `mmflow bench --json`, for quick
//! local iteration on the router/placer/flow performance work.
//!
//! * `router/optimized` — scratch-arena + bounding-box PathFinder,
//!   router reused across iterations (steady state, zero per-net
//!   allocations).
//! * `router/reference_baseline` — the naive pre-optimization
//!   formulation (fresh heap + hash maps per search, full-fabric
//!   exploration, whole-graph overuse scans).
//! * `router/optimized_no_bbox` — isolates the arena from the pruning.
//! * `annealer/optimized` — a full combined-placement annealing sweep on
//!   the flat, allocation-free cost model.
//! * `annealer/naive_baseline` — the same sweep on the hash-map
//!   reference model (byte-identical placements, so the ratio is a pure
//!   data-structure speedup).
//! * `placer/mdr_place_serial` and `placer/mdr_place_parallel` — the
//!   intra-job parallel MDR annealing introduced with the batch engine's
//!   stage sharing.
//! * `flow/pair_route_stage` — the three summary legs of a `pair` job
//!   (MDR and both DCS variants) routed on existing placements.

use criterion::{criterion_group, criterion_main, Criterion};
use mm_bench::perf::{placer_workload, router_workload, small_pair_input, PerfConfig};
use mm_flow::{DcsFlow, FlowOptions, MdrFlow, MultiModeInput};
use mm_place::{place_combined, place_combined_reference, CostKind};
use mm_route::reference::route_reference;
use mm_route::Router;

fn smoke_config() -> PerfConfig {
    PerfConfig {
        smoke: true,
        reps: 1,
        threads: 0,
    }
}

fn bench_router(c: &mut Criterion) {
    let (rrg, nets, options) = router_workload(&smoke_config());

    let mut router = Router::new(&rrg, options);
    let _ = router.route(&nets); // warm the arena
    c.bench_function("router/optimized", |b| {
        b.iter(|| router.route(std::hint::black_box(&nets)).success)
    });

    c.bench_function("router/reference_baseline", |b| {
        b.iter(|| {
            route_reference(
                &rrg,
                options.without_bbox().with_full_reroute(),
                std::hint::black_box(&nets),
            )
            .success
        })
    });

    let mut router_nb = Router::new(&rrg, options.without_bbox());
    let _ = router_nb.route(&nets);
    c.bench_function("router/optimized_no_bbox", |b| {
        b.iter(|| router_nb.route(std::hint::black_box(&nets)).success)
    });
}

fn pair_input() -> (MultiModeInput, FlowOptions) {
    small_pair_input()
}

fn bench_annealer(c: &mut Criterion) {
    let (circuits, arch, options) = placer_workload(&smoke_config());
    c.bench_function("annealer/optimized", |b| {
        b.iter(|| {
            place_combined(std::hint::black_box(&circuits), &arch, &options)
                .unwrap()
                .1
                .moves
        })
    });
    c.bench_function("annealer/naive_baseline", |b| {
        b.iter(|| {
            place_combined_reference(std::hint::black_box(&circuits), &arch, &options)
                .unwrap()
                .1
                .moves
        })
    });
}

fn bench_placer(c: &mut Criterion) {
    let (input, options) = pair_input();
    let mut serial = options;
    serial.intra_parallelism = 1;
    c.bench_function("placer/mdr_place_serial", |b| {
        b.iter(|| MdrFlow::new(serial).place(&input).unwrap().len())
    });
    c.bench_function("placer/mdr_place_parallel", |b| {
        b.iter(|| MdrFlow::new(options).place(&input).unwrap().len())
    });
}

fn bench_flow(c: &mut Criterion) {
    let (input, options) = pair_input();
    let mdr = MdrFlow::new(options);
    let edge = DcsFlow::new(options).with_cost(CostKind::EdgeMatching);
    let wl = DcsFlow::new(options);
    let mdr_placements = mdr.place(&input).expect("mdr places");
    let edge_placement = edge.place(&input).expect("edge places");
    let wl_placement = wl.place(&input).expect("wl places");
    c.bench_function("flow/pair_route_stage", |b| {
        b.iter(|| {
            let mdr = mdr.run_with_placements(&input, mdr_placements.clone());
            let edge = edge.run_with_placement(&input, edge_placement.clone());
            let wl = wl.run_with_placement(&input, wl_placement.clone());
            mdr.unwrap().arch.channel_width
                + edge.unwrap().arch.channel_width
                + wl.unwrap().arch.channel_width
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_router, bench_annealer, bench_placer, bench_flow
}
criterion_main!(benches);
