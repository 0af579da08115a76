//! Pinned reference values, as printed by `benchmark --reference`.
//!
//! The `*_BITS`, `*_RECORDS` and `*_DIGEST` values are outputs of the
//! workloads, which every run must reproduce exactly: the batch workloads'
//! at every seed (their schedule seed is fixed), the serve digest at
//! [`PIN_SEED`]. The true IPCs come from `RunSpec::run_full` (the
//! unsampled cycle-accurate run on the paper machine) and hold at every
//! seed; `sampler.ipc_rel_err` is measured against them.

/// The schedule seed of `mcf_rsr20`, `gcc_smarts` and `mcf_sweep20`.
pub const SCHEDULE_SEED: u64 = 42;
/// The `--seed` the serve digest is pinned at.
pub const PIN_SEED: u64 = 42;

/// `est_ipc` of mcf_rsr20.
pub const MCF_RSR20_EST_IPC_BITS: u64 = 0x3fa0ffe7d8cffcb1; // 0.033202405182231394
/// `log_records` of mcf_rsr20.
pub const MCF_RSR20_LOG_RECORDS: u64 = 16_973_374;
/// `est_ipc` of gcc_smarts.
pub const GCC_SMARTS_EST_IPC_BITS: u64 = 0x4006f6050553b35a; // 2.870126763932075
/// FNV-1a over the 20 sweep configs' `est_ipc` bits, in grid order.
pub const MCF_SWEEP20_DIGEST: u64 = 0x4b0dc332cf37f0a1;
/// FNV-1a over the served `est_ipc` bits of the warm-up batch, in
/// submission order, at [`PIN_SEED`].
pub const SERVE_MIX_DIGEST: u64 = 0xfd1fd56ebf1363bd;

/// `(program, instructions, true IPC)`.
pub const TRUE_IPC: [(&str, u64, f64); 11] = [
    ("mcf", 32_000_000, 0.03303958294431806),
    ("gcc", 32_000_000, 2.9131696113804426),
    ("ammp", 2_000_000, 0.26192135025694485),
    ("art", 2_000_000, 0.14285443882669363),
    ("gcc", 2_000_000, 2.332307118201325),
    ("mcf", 2_000_000, 0.033037250739105246),
    ("parser", 2_000_000, 0.42835449761513633),
    ("perl", 2_000_000, 0.7497519258315405),
    ("twolf", 2_000_000, 0.3233318179848797),
    ("vortex", 2_000_000, 0.2919135282070204),
    ("vpr", 2_000_000, 1.5116289616016012),
];

/// The pinned true IPC of `program` over `insts` instructions.
pub fn true_ipc(program: &str, insts: u64) -> Option<f64> {
    TRUE_IPC.iter().find(|(p, n, _)| *p == program && *n == insts).map(|&(_, _, ipc)| ipc)
}
