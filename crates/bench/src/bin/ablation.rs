//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Warm-up family**: fixed-period and the profiling baselines
//!    (MRRL/BLRL, paper §2) against RSR — accuracy vs skip-phase cost.
//! 2. **On-demand vs eager BP reconstruction** (§3.2): the paper
//!    reconstructs predictor entries lazily as the cluster probes them;
//!    the eager variant burns the whole log budget up front.
//!
//! Run with the same `RSR_SCALE` / `RSR_BENCH` knobs as the figure bins.

use std::time::Instant;

use rsr_bench::{fmt_secs, print_table, Experiment};
use rsr_branch::Predictor;
use rsr_cache::MemHierarchy;
use rsr_core::{
    reconstruct_caches_partitioned, BpReconstructor, Pct, RunSpec, SampleOutcome, Schedule,
    SkipLog, WarmupPolicy,
};
use rsr_func::Cpu;
use rsr_stats::relative_error;
use rsr_timing::{simulate_cluster_hooked, NoHook};
use rsr_workloads::Benchmark;

fn main() {
    let mut exp = Experiment::from_env();
    let benches: Vec<Benchmark> = exp.benches.clone();

    // ---- Part 1: warm-up family comparison -----------------------------
    let policies = vec![
        WarmupPolicy::FixedPeriod { pct: Pct::new(20) },
        // MRRL needs a high percentile: most cluster references reuse
        // intra-cluster or are compulsory (distance zero), so low coverage
        // targets degenerate to no warming — the MRRL paper itself uses
        // 99.x% settings.
        WarmupPolicy::Mrrl { coverage: Pct::new(100) },
        WarmupPolicy::Blrl { coverage: Pct::new(95) },
        WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) },
        WarmupPolicy::Smarts { cache: true, bp: true },
    ];
    let mut rows = Vec::new();
    for &policy in &policies {
        let mut res = Vec::new();
        let mut walls = Vec::new();
        let mut warm_updates = 0u64;
        for &b in &benches {
            let r = exp.run_policy(b, policy);
            res.push(r.rel_err());
            walls.push(r.wall_seconds());
            warm_updates += r.outcome.warm_updates;
        }
        rows.push(vec![
            policy.to_string(),
            format!("{:.4}", rsr_bench::avg(&res)),
            fmt_secs(rsr_bench::avg(&walls)),
            format!("{warm_updates}"),
        ]);
    }
    print_table(
        "Ablation 1: warm-up families (profiling baselines vs RSR)",
        &["method", "avg rel err", "avg wall(s)", "total warm updates"],
        &rows,
    );
    println!("(MRRL/BLRL pay a full profiling pass per skip/cluster pair — RSR does not)");

    // ---- Part 2: on-demand vs eager BP reconstruction ------------------
    let mut rows = Vec::new();
    for &b in &benches {
        let (true_ipc, _) = exp.true_ipc(b);
        let total = exp.total_insts(b);
        let regimen = exp.regimen(b);
        let machine = exp.machine.clone();
        let seed = exp.seed;
        let program = exp.program(b).clone();

        let on_demand: SampleOutcome = exp
            .sampled_spec(b, WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) })
            .run()
            .expect("on-demand run");

        // Eager variant: same pipeline, but the reconstructor consumes its
        // entire budget before the cluster starts. State carries across
        // the whole run, as in the sampler proper under the harness span.
        let schedule = Schedule::generate(regimen, total, seed);
        let mut cpu = Cpu::new(&program).expect("loads");
        let mut hier = MemHierarchy::new(machine.hier.clone());
        let mut pred = Predictor::new(machine.pred);
        let mut cpis = Vec::new();
        let mut scanned = 0u64;
        let t = Instant::now();
        let mut pos = 0u64;
        let mut log = SkipLog::new(true, true, 0);
        for w in schedule.windows() {
            log.reset(true, true, pred.gshare.ghr());
            log.record_region(&mut cpu, w.start - pos).expect("skip");
            reconstruct_caches_partitioned(&mut hier, &log, Pct::new(20), 1);
            let mut recon = BpReconstructor::new(&mut pred, &log, Pct::new(20));
            recon.exhaust(&mut pred);
            scanned += recon.stats().branch_scanned;
            let stats = simulate_cluster_hooked(
                &machine.core,
                &mut cpu,
                &mut hier,
                &mut pred,
                w.len,
                &mut NoHook,
            )
            .expect("hot");
            cpis.push(stats.cycles as f64 / stats.instructions as f64);
            pos = w.end();
        }
        let eager_wall = t.elapsed().as_secs_f64();
        let mean_cpi = cpis.iter().sum::<f64>() / cpis.len() as f64;

        rows.push(vec![
            b.name().to_string(),
            format!("{:.4}", relative_error(true_ipc, on_demand.est_ipc())),
            format!("{:.4}", relative_error(true_ipc, 1.0 / mean_cpi)),
            format!("{}", on_demand.recon.branch_scanned),
            format!("{scanned}"),
            fmt_secs(on_demand.phases.total().as_secs_f64()),
            fmt_secs(eager_wall),
        ]);
    }
    print_table(
        "Ablation 2: on-demand vs eager BP reconstruction (R$BP 20%)",
        &[
            "workload",
            "RE on-demand",
            "RE eager",
            "records scanned (demand)",
            "records scanned (eager)",
            "wall demand",
            "wall eager",
        ],
        &rows,
    );
    println!(
        "(on-demand stops scanning once probed entries resolve; eager always burns the budget)"
    );

    // ---- Part 3: next-line prefetcher (machine ablation) ----------------
    let mut rows = Vec::new();
    for &b in &benches {
        let total = (exp.total_insts(b) / 8).max(500_000);
        let program = exp.program(b).clone();
        let base =
            RunSpec::new(&program, &exp.machine).total_insts(total).run_full().expect("base run");
        let mut pf_machine = exp.machine.clone();
        pf_machine.hier.prefetch_next_line = true;
        let pf = RunSpec::new(&program, &pf_machine)
            .total_insts(total)
            .run_full()
            .expect("prefetch run");
        rows.push(vec![
            b.name().to_string(),
            format!("{:.4}", base.ipc()),
            format!("{:.4}", pf.ipc()),
            format!("{:+.1}%", 100.0 * (pf.ipc() - base.ipc()) / base.ipc()),
        ]);
    }
    print_table(
        "Ablation 3: next-line prefetcher (full runs, 1/8 length)",
        &["workload", "IPC base", "IPC prefetch", "delta"],
        &rows,
    );
    println!("(naive next-line prefetch pollutes random-access workloads — mcf/twolf lose");
    println!(" badly — while unit-stride streaming is insensitive; a useful machine knob");
    println!(" for studying how warm-up interacts with prefetch-polluted cache state)");
}
