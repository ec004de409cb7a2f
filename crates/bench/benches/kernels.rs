//! Benchmarks of the real compute kernels.
//!
//! These ground the workload models: the relative frequency sensitivity
//! and memory intensity assumed by `vap-workloads::catalog` can be sanity
//! checked against how these kernels actually behave on the host.

use std::hint::black_box;
use vap_bench::Runner;
use vap_workloads::kernels::{dgemm, ep, linesolve, montecarlo, stencil, stream};

fn threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8)
}

fn bench_dgemm(r: &mut Runner) {
    for n in [128usize, 256] {
        let a = dgemm::Matrix::pseudo_random(n, 1);
        let b = dgemm::Matrix::pseudo_random(n, 2);
        r.case(&format!("dgemm/blocked/{n}"), || dgemm::matmul_blocked(&a, &b, threads()));
        if n <= 128 {
            r.case(&format!("dgemm/naive/{n}"), || dgemm::matmul_naive(&a, &b));
        }
    }
}

fn bench_stream(r: &mut Runner) {
    let len = 1 << 22; // 32 MiB per array
    let bv: Vec<f64> = vec![1.0; len];
    let cv: Vec<f64> = vec![2.0; len];
    let mut av: Vec<f64> = vec![0.0; len];
    r.case("stream/triad_32MiB", || {
        stream::triad(&bv, &cv, &mut av, 3.0, threads());
        av[0]
    });
    let mut cw: Vec<f64> = vec![0.0; len];
    r.case("stream/copy_32MiB", || {
        stream::copy(&bv, &mut cw, threads());
        cw[0]
    });
}

fn bench_ep(r: &mut Runner) {
    let attempts = 1_000_000u64;
    r.case("ep/marsaglia_1M_seq", || ep::generate(attempts, 42));
    r.case("ep/marsaglia_1M_par", || ep::generate_parallel(attempts, 42, threads()));
}

fn bench_stencil(r: &mut Runner) {
    let n = 32;
    r.case_with_setup(
        "stencil/leapfrog_32cubed_4steps",
        || stencil::LeapfrogGrid::spike(n),
        |mut grid| {
            grid.run(4, 1.0 / 8.0);
            grid.total_mass()
        },
    );
}

fn bench_montecarlo(r: &mut Runner) {
    let mut s = montecarlo::Sampler::new(0.5, 7);
    r.case("montecarlo/metropolis_200k", || s.block(200_000));
}

fn bench_linesolve(r: &mut Runner) {
    for n in [256usize, 4096] {
        let t = linesolve::Tridiag::diagonally_dominant(n, 5);
        let p = linesolve::Pentadiag::diagonally_dominant(n, 6);
        let d: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        r.case(&format!("linesolve/thomas/{n}"), || t.solve(black_box(&d)));
        r.case(&format!("linesolve/pentadiag/{n}"), || p.solve(black_box(&d)));
    }
    // NPB BT's actual structure: 5x5 blocks
    let n = 512;
    let bt = linesolve::BlockTridiag::diagonally_dominant(n, 7);
    let d: Vec<linesolve::BVec> = (0..n).map(|i| [(i as f64 * 0.1).sin(); 5]).collect();
    r.case("linesolve/block_thomas_5x5_512", || bt.solve(black_box(&d)));
}

fn main() {
    let mut r = Runner::from_args();
    bench_dgemm(&mut r);
    bench_stream(&mut r);
    bench_ep(&mut r);
    bench_stencil(&mut r);
    bench_montecarlo(&mut r);
    bench_linesolve(&mut r);
}
