//! The content-addressed result cache: `RunSpec::content_hash` →
//! serialized deterministic outcome, one file per entry.
//!
//! Layout of an entry (all integers little-endian, mirroring the v2 skip
//! log format's magic/version/checksum discipline):
//!
//! ```text
//! "RSRC" | version u16 | spec_hash u64 | payload_len u64 | payload | fnv64(payload)
//! ```
//!
//! The file ends exactly at the checksum — total length pins
//! `payload_len`, so *any* single-byte flip or truncation is caught
//! deterministically: damage to the payload or the checksum fails the FNV
//! compare, damage to `payload_len` fails the length compare, and damage
//! to magic/version/hash fails its own field check. A failed read is
//! never served; [`ResultCache::lookup`] quarantines the file (renamed
//! alongside, for post-mortems) and reports [`Lookup::Quarantined`] so
//! the daemon recomputes.
//!
//! Writes are crash-safe by construction: the entry is assembled in
//! memory, written to a temp file in the same directory, synced, and
//! renamed over the final name. A crash before the rename leaves at most
//! a stale temp file; a crash after leaves a complete entry. There is no
//! in-between state that parses.
//!
//! Only the *deterministic* fields of a [`SampleOutcome`] are cached
//! ([`CachedOutcome`]): per-cluster IPC/CPI vectors and the counters that
//! are bit-identical at every thread count. Wall-clock times, per-phase
//! busy times, reconstruction timings, and retry counts are operational
//! telemetry of one particular execution and are deliberately not part of
//! the cached value.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use rsr_core::{Pct, ReconStats, SampleOutcome, WarmupPolicy};
use rsr_stats::{ClusterSample, Z_95};

/// Magic bytes opening every cache entry.
pub const CACHE_MAGIC: [u8; 4] = *b"RSRC";
/// Current entry format version.
pub const CACHE_VERSION: u16 = 1;

const HEADER_LEN: usize = 4 + 2 + 8 + 8;
const TRAILER_LEN: usize = 8;
/// An adversarial `payload_len` can't lie (total file length pins it),
/// but a decoded cluster count inside a checksummed payload still bounds
/// allocation defensively.
const MAX_CLUSTERS: u64 = 1 << 24;

/// Why a cache operation failed.
#[derive(Debug)]
pub enum CacheError {
    /// The filesystem failed.
    Io(io::Error),
    /// The entry's bytes failed verification (magic, version, hash,
    /// length, checksum, or payload shape).
    Corrupt(String),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache I/O failed: {e}"),
            CacheError::Corrupt(why) => write!(f, "cache entry corrupt: {why}"),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Io(e) => Some(e),
            CacheError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for CacheError {
    fn from(e: io::Error) -> Self {
        CacheError::Io(e)
    }
}

fn corrupt<T>(why: impl Into<String>) -> Result<T, CacheError> {
    Err(CacheError::Corrupt(why.into()))
}

/// The deterministic slice of a [`SampleOutcome`] — everything that is
/// bit-identical across thread counts and pipeline depths, and nothing
/// that isn't.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedOutcome {
    /// The warm-up policy that produced the outcome.
    pub policy: WarmupPolicy,
    /// Per-cluster IPCs, in schedule order.
    pub cluster_ipcs: Vec<f64>,
    /// Per-cluster CPIs (the estimation domain), in schedule order.
    pub cluster_cpis: Vec<f64>,
    /// Hot (cycle-accurate) instructions simulated.
    pub hot_insts: u64,
    /// Instructions skipped functionally.
    pub skipped_insts: u64,
    /// Peak bytes held by a skip-region log.
    pub log_bytes_peak: u64,
    /// Total records appended to skip logs.
    pub log_records: u64,
    /// Functional warm updates applied.
    pub warm_updates: u64,
    /// Aggregated reconstruction counters.
    pub recon: ReconStats,
    /// Clusters degraded to the stale-state fallback.
    pub clusters_degraded: u64,
}

impl CachedOutcome {
    /// Captures the deterministic fields of `outcome`.
    pub fn capture(outcome: &SampleOutcome) -> CachedOutcome {
        CachedOutcome {
            policy: outcome.policy,
            cluster_ipcs: outcome.clusters.values().to_vec(),
            cluster_cpis: outcome.cpi_clusters.values().to_vec(),
            hot_insts: outcome.hot_insts,
            skipped_insts: outcome.skipped_insts,
            log_bytes_peak: outcome.log_bytes_peak as u64,
            log_records: outcome.log_records,
            warm_updates: outcome.warm_updates,
            recon: outcome.recon,
            clusters_degraded: outcome.clusters_degraded,
        }
    }

    /// Is this cached value bit-identical to `outcome`'s deterministic
    /// fields? Floats are compared by bit pattern, not numerically.
    pub fn matches(&self, outcome: &SampleOutcome) -> bool {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.policy == outcome.policy
            && bits(&self.cluster_ipcs) == bits(outcome.clusters.values())
            && bits(&self.cluster_cpis) == bits(outcome.cpi_clusters.values())
            && self.hot_insts == outcome.hot_insts
            && self.skipped_insts == outcome.skipped_insts
            && self.log_bytes_peak == outcome.log_bytes_peak as u64
            && self.log_records == outcome.log_records
            && self.warm_updates == outcome.warm_updates
            && self.recon == outcome.recon
            && self.clusters_degraded == outcome.clusters_degraded
    }

    /// The IPC estimate, recomputed from the cached per-cluster CPIs
    /// exactly as [`SampleOutcome::est_ipc`] computes it.
    pub fn est_ipc(&self) -> f64 {
        let cpi = self.cpi_sample().mean();
        if cpi == 0.0 {
            0.0
        } else {
            1.0 / cpi
        }
    }

    /// The ±95 % bound on the IPC estimate, recomputed like
    /// [`SampleOutcome::ipc_error_bound_95`].
    pub fn ipc_error_bound_95(&self) -> f64 {
        let sample = self.cpi_sample();
        let mean = sample.mean();
        if mean == 0.0 {
            return 0.0;
        }
        Z_95 * sample.std_error() / (mean * mean)
    }

    fn cpi_sample(&self) -> ClusterSample {
        let mut s = ClusterSample::new();
        for &cpi in &self.cluster_cpis {
            s.push(cpi);
        }
        s
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_policy(&mut out, self.policy);
        out.extend_from_slice(&(self.cluster_ipcs.len() as u64).to_le_bytes());
        for &v in &self.cluster_ipcs {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(self.cluster_cpis.len() as u64).to_le_bytes());
        for &v in &self.cluster_cpis {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        for v in [
            self.hot_insts,
            self.skipped_insts,
            self.log_bytes_peak,
            self.log_records,
            self.warm_updates,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let r = &self.recon;
        for v in [
            r.mem_scanned,
            r.cache_inserted,
            r.cache_marked,
            r.cache_ignored,
            r.branch_scanned,
            r.pht_exact,
            r.pht_guessed,
            r.pht_stale,
            r.btb_reconstructed,
            r.demand_scans,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.clusters_degraded.to_le_bytes());
        out
    }

    fn decode_payload(bytes: &[u8]) -> Result<CachedOutcome, CacheError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let policy = decode_policy(&mut cur)?;
        let cluster_ipcs = cur.f64_vec()?;
        let cluster_cpis = cur.f64_vec()?;
        let hot_insts = cur.u64()?;
        let skipped_insts = cur.u64()?;
        let log_bytes_peak = cur.u64()?;
        let log_records = cur.u64()?;
        let warm_updates = cur.u64()?;
        let recon = ReconStats {
            mem_scanned: cur.u64()?,
            cache_inserted: cur.u64()?,
            cache_marked: cur.u64()?,
            cache_ignored: cur.u64()?,
            branch_scanned: cur.u64()?,
            pht_exact: cur.u64()?,
            pht_guessed: cur.u64()?,
            pht_stale: cur.u64()?,
            btb_reconstructed: cur.u64()?,
            demand_scans: cur.u64()?,
        };
        let clusters_degraded = cur.u64()?;
        if cur.pos != bytes.len() {
            return corrupt("trailing payload bytes");
        }
        Ok(CachedOutcome {
            policy,
            cluster_ipcs,
            cluster_cpis,
            hot_insts,
            skipped_insts,
            log_bytes_peak,
            log_records,
            warm_updates,
            recon,
            clusters_degraded,
        })
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CacheError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => corrupt("truncated payload"),
        }
    }

    fn u8(&mut self) -> Result<u8, CacheError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CacheError> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(buf))
    }

    fn bool_byte(&mut self) -> Result<bool, CacheError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => corrupt(format!("invalid boolean byte {other:#04x}")),
        }
    }

    fn pct(&mut self) -> Result<Pct, CacheError> {
        let v = self.u8()?;
        if (1..=100).contains(&v) {
            Ok(Pct::new(v))
        } else {
            corrupt(format!("percentage {v} out of range"))
        }
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, CacheError> {
        let n = self.u64()?;
        if n > MAX_CLUSTERS {
            return corrupt(format!("implausible cluster count {n}"));
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(f64::from_bits(self.u64()?));
        }
        Ok(out)
    }
}

fn encode_policy(out: &mut Vec<u8>, policy: WarmupPolicy) {
    match policy {
        WarmupPolicy::None => out.push(0),
        WarmupPolicy::FixedPeriod { pct } => {
            out.push(1);
            out.push(pct.value());
        }
        WarmupPolicy::Smarts { cache, bp } => {
            out.push(2);
            out.push(cache as u8);
            out.push(bp as u8);
        }
        WarmupPolicy::Reverse { cache, bp, pct } => {
            out.push(3);
            out.push(cache as u8);
            out.push(bp as u8);
            out.push(pct.value());
        }
        WarmupPolicy::Mrrl { coverage } => {
            out.push(4);
            out.push(coverage.value());
        }
        WarmupPolicy::Blrl { coverage } => {
            out.push(5);
            out.push(coverage.value());
        }
    }
}

fn decode_policy(cur: &mut Cursor<'_>) -> Result<WarmupPolicy, CacheError> {
    match cur.u8()? {
        0 => Ok(WarmupPolicy::None),
        1 => Ok(WarmupPolicy::FixedPeriod { pct: cur.pct()? }),
        2 => Ok(WarmupPolicy::Smarts { cache: cur.bool_byte()?, bp: cur.bool_byte()? }),
        3 => Ok(WarmupPolicy::Reverse {
            cache: cur.bool_byte()?,
            bp: cur.bool_byte()?,
            pct: cur.pct()?,
        }),
        4 => Ok(WarmupPolicy::Mrrl { coverage: cur.pct()? }),
        5 => Ok(WarmupPolicy::Blrl { coverage: cur.pct()? }),
        other => corrupt(format!("unknown policy tag {other:#04x}")),
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Serializes a full cache entry for `hash` (public so the adversarial
/// round-trip suite can mutate real entries).
pub fn encode_entry(hash: u64, outcome: &CachedOutcome) -> Vec<u8> {
    let payload = outcome.encode_payload();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&CACHE_MAGIC);
    out.extend_from_slice(&CACHE_VERSION.to_le_bytes());
    out.extend_from_slice(&hash.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv64(&payload).to_le_bytes());
    out
}

/// Verifies and decodes a full cache entry that should describe
/// `want_hash`.
///
/// # Errors
///
/// [`CacheError::Corrupt`] naming the first failed check: magic, version,
/// hash mismatch, length mismatch (covers truncation and appended
/// garbage), checksum mismatch, or a malformed payload.
pub fn decode_entry(bytes: &[u8], want_hash: u64) -> Result<CachedOutcome, CacheError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return corrupt("entry shorter than header + checksum");
    }
    if bytes[..4] != CACHE_MAGIC {
        return corrupt("bad magic");
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != CACHE_VERSION {
        return corrupt(format!("unsupported version {version}"));
    }
    let u64_at = |at: usize| {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(buf)
    };
    let stored_hash = u64_at(6);
    if stored_hash != want_hash {
        return corrupt(format!("entry is for spec {stored_hash:016x}, wanted {want_hash:016x}"));
    }
    let payload_len = u64_at(14);
    let actual_payload = (bytes.len() - HEADER_LEN - TRAILER_LEN) as u64;
    if payload_len != actual_payload {
        return corrupt(format!(
            "payload length {payload_len} disagrees with file ({actual_payload})"
        ));
    }
    let payload = &bytes[HEADER_LEN..bytes.len() - TRAILER_LEN];
    let mut want_sum = [0u8; 8];
    want_sum.copy_from_slice(&bytes[bytes.len() - TRAILER_LEN..]);
    let want_sum = u64::from_le_bytes(want_sum);
    let got_sum = fnv64(payload);
    if got_sum != want_sum {
        return corrupt(format!("checksum {got_sum:016x}, expected {want_sum:016x}"));
    }
    CachedOutcome::decode_payload(payload)
}

/// What a cache lookup found.
#[derive(Debug)]
pub enum Lookup {
    /// A verified entry.
    Hit(CachedOutcome),
    /// No entry on disk.
    Miss,
    /// An entry existed but failed verification; it has been renamed to a
    /// `.quarantined` sibling and the caller should recompute.
    Quarantined,
}

/// The on-disk result cache: one `RSRC` entry file per content hash, plus
/// the daemon's queue journal alongside.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from creating the directory.
    pub fn open(dir: &Path) -> io::Result<ResultCache> {
        fs::create_dir_all(dir)?;
        Ok(ResultCache { dir: dir.to_path_buf() })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of `hash`'s entry file.
    pub fn entry_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.rsrc"))
    }

    /// Path a corrupt entry for `hash` is quarantined to.
    pub fn quarantine_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.rsrc.quarantined"))
    }

    /// Looks up `hash`, verifying the entry end to end. Corrupt entries
    /// are quarantined as a side effect and never returned.
    ///
    /// # Errors
    ///
    /// [`CacheError::Io`] for filesystem failures (including a failed
    /// quarantine rename — a corrupt entry that cannot be moved aside
    /// must not be silently left in place).
    pub fn lookup(&self, hash: u64) -> Result<Lookup, CacheError> {
        let path = self.entry_path(hash);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Lookup::Miss),
            Err(e) => return Err(e.into()),
        };
        match decode_entry(&bytes, hash) {
            Ok(outcome) => Ok(Lookup::Hit(outcome)),
            Err(CacheError::Corrupt(_)) => {
                fs::rename(&path, self.quarantine_path(hash)).map_err(CacheError::Io)?;
                Ok(Lookup::Quarantined)
            }
            Err(e) => Err(e),
        }
    }

    /// Stores `outcome` under `hash` crash-safely: temp file in the same
    /// directory, synced, renamed over the final name.
    ///
    /// `corrupt_payload_byte` is the [`rsr_core::FaultKind::CorruptCacheEntry`]
    /// injection point: the last payload byte is flipped *after* the
    /// checksum is computed, producing exactly the damage a lying disk
    /// would — a complete, well-formed file whose checksum no longer
    /// matches.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from writing, syncing, or renaming.
    pub fn store(
        &self,
        hash: u64,
        outcome: &CachedOutcome,
        corrupt_payload_byte: bool,
    ) -> io::Result<()> {
        let mut bytes = encode_entry(hash, outcome);
        if corrupt_payload_byte {
            let at = bytes.len() - TRAILER_LEN - 1;
            bytes[at] ^= 0x01;
        }
        let tmp = self.dir.join(format!(".{hash:016x}.rsrc.tmp"));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.entry_path(hash))
    }
}

/// Opens the cache directory's append-only queue journal, creating it if
/// absent. (Exposed to the daemon module; the format lives with the
/// daemon's recovery logic.)
pub(crate) fn open_journal_file(dir: &Path) -> io::Result<File> {
    OpenOptions::new().create(true).append(true).open(dir.join(JOURNAL_NAME))
}

/// Reads the journal's current contents, tolerating a missing file.
pub(crate) fn read_journal(dir: &Path) -> io::Result<String> {
    match fs::read_to_string(dir.join(JOURNAL_NAME)) {
        Ok(s) => Ok(s),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(String::new()),
        Err(e) => Err(e),
    }
}

/// Atomically replaces the journal with `contents` (compaction).
pub(crate) fn rewrite_journal(dir: &Path, contents: &str) -> io::Result<()> {
    let tmp = dir.join(".journal.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(tmp, dir.join(JOURNAL_NAME))
}

pub(crate) const JOURNAL_NAME: &str = "queue.journal";

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> CachedOutcome {
        CachedOutcome {
            policy: WarmupPolicy::Reverse { cache: true, bp: true, pct: Pct::new(20) },
            cluster_ipcs: vec![1.25, 0.75, 2.0],
            cluster_cpis: vec![0.8, 4.0 / 3.0, 0.5],
            hot_insts: 6_000,
            skipped_insts: 94_000,
            log_bytes_peak: 12_345,
            log_records: 2_222,
            warm_updates: 0,
            recon: ReconStats { mem_scanned: 99, pht_exact: 3, ..Default::default() },
            clusters_degraded: 1,
        }
    }

    #[test]
    fn entries_round_trip() {
        let outcome = sample_outcome();
        let bytes = encode_entry(0xabcd, &outcome);
        let back = decode_entry(&bytes, 0xabcd).unwrap();
        assert_eq!(back, outcome);
        assert_eq!(back.est_ipc(), outcome.est_ipc());
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let outcome = sample_outcome();
        let bytes = encode_entry(0xabcd, &outcome);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut damaged = bytes.clone();
                damaged[i] ^= 1 << bit;
                assert!(
                    matches!(decode_entry(&damaged, 0xabcd), Err(CacheError::Corrupt(_))),
                    "flip of byte {i} bit {bit} must be rejected"
                );
            }
        }
    }

    #[test]
    fn truncation_and_extension_are_rejected() {
        let outcome = sample_outcome();
        let bytes = encode_entry(7, &outcome);
        for keep in 0..bytes.len() {
            assert!(
                matches!(decode_entry(&bytes[..keep], 7), Err(CacheError::Corrupt(_))),
                "truncation to {keep} bytes must be rejected"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(decode_entry(&extended, 7), Err(CacheError::Corrupt(_))));
        assert!(matches!(decode_entry(&bytes, 8), Err(CacheError::Corrupt(_))), "wrong hash");
    }

    #[test]
    fn store_lookup_and_quarantine() {
        let dir = std::env::temp_dir().join(format!("rsr-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let outcome = sample_outcome();

        assert!(matches!(cache.lookup(1).unwrap(), Lookup::Miss));
        cache.store(1, &outcome, false).unwrap();
        match cache.lookup(1).unwrap() {
            Lookup::Hit(got) => assert_eq!(got, outcome),
            other => panic!("expected hit, got {other:?}"),
        }

        // A corrupt write (the injected-fault path) is quarantined on
        // read, then missing, and a clean rewrite works again.
        cache.store(2, &outcome, true).unwrap();
        assert!(matches!(cache.lookup(2).unwrap(), Lookup::Quarantined));
        assert!(cache.quarantine_path(2).exists());
        assert!(matches!(cache.lookup(2).unwrap(), Lookup::Miss));
        cache.store(2, &outcome, false).unwrap();
        assert!(matches!(cache.lookup(2).unwrap(), Lookup::Hit(_)));

        let _ = fs::remove_dir_all(&dir);
    }
}
