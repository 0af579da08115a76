//! Cache geometry and policy configuration.

/// Write policy of a cache level.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Write-through, no-write-allocate (the paper's L1 policy).
    WriteThroughNoAllocate,
    /// Write-back, write-allocate (the paper's L2 policy).
    WriteBackAllocate,
}

/// Largest supported associativity (see [`CacheConfig::validate`]).
const MAX_ASSOC: usize = u8::MAX as usize;

/// Geometry and policy of a single cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name used in stats output (e.g. `"L1D"`).
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Write policy.
    pub write_policy: WritePolicy,
    /// Hit latency in core cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// The paper's L1 data cache: 32 KB, 4-way, 64 B lines, WTNA.
    pub fn paper_l1d() -> CacheConfig {
        CacheConfig {
            name: "L1D".to_owned(),
            size_bytes: 32 * 1024,
            assoc: 4,
            line_bytes: 64,
            write_policy: WritePolicy::WriteThroughNoAllocate,
            hit_latency: 2,
        }
    }

    /// The paper's L1 instruction cache: 64 KB, 4-way, 64 B lines, WTNA.
    pub fn paper_l1i() -> CacheConfig {
        CacheConfig {
            name: "L1I".to_owned(),
            size_bytes: 64 * 1024,
            assoc: 4,
            line_bytes: 64,
            write_policy: WritePolicy::WriteThroughNoAllocate,
            hit_latency: 1,
        }
    }

    /// The paper's unified L2: 1 MB, 8-way, 64 B lines, WBWA.
    pub fn paper_l2() -> CacheConfig {
        CacheConfig {
            name: "L2".to_owned(),
            size_bytes: 1024 * 1024,
            assoc: 8,
            line_bytes: 64,
            write_policy: WritePolicy::WriteBackAllocate,
            hit_latency: 12,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::validate`]).
    pub fn num_sets(&self) -> usize {
        if let Err(e) = self.validate() {
            panic!("invalid cache config: {e}");
        }
        (self.size_bytes / (self.assoc as u64 * self.line_bytes)) as usize
    }

    /// Checks the geometry: power-of-two line size and set count,
    /// associativity in `1..=255`, capacity divisible by `assoc * line_bytes`.
    ///
    /// The associativity bound is the cache's per-line state width: LRU
    /// ranks, reconstruction order and per-set reconstruction counts are
    /// `u8`, and 255 is the "not reconstructed" sentinel.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.assoc == 0 {
            return Err(format!("{}: associativity must be nonzero", self.name));
        }
        if self.assoc > MAX_ASSOC {
            return Err(format!(
                "{}: associativity {} exceeds the supported maximum {MAX_ASSOC}",
                self.name, self.assoc
            ));
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(format!("{}: line size must be a power of two", self.name));
        }
        let way_bytes = self.assoc as u64 * self.line_bytes;
        if self.size_bytes == 0 || !self.size_bytes.is_multiple_of(way_bytes) {
            return Err(format!(
                "{}: capacity {} not divisible by assoc*line {}",
                self.name, self.size_bytes, way_bytes
            ));
        }
        let sets = self.size_bytes / way_bytes;
        if !sets.is_power_of_two() {
            return Err(format!("{}: set count {sets} must be a power of two", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheConfig::paper_l1d().num_sets(), 128);
        assert_eq!(CacheConfig::paper_l1i().num_sets(), 256);
        assert_eq!(CacheConfig::paper_l2().num_sets(), 2048);
    }

    #[test]
    fn validation_rejects_bad_geometry() {
        let mut c = CacheConfig::paper_l1d();
        c.assoc = 0;
        assert!(c.validate().is_err());

        let mut c = CacheConfig::paper_l1d();
        c.line_bytes = 48;
        assert!(c.validate().is_err());

        let mut c = CacheConfig::paper_l1d();
        c.size_bytes = 3 * 1024; // 3KB/4-way/64B -> 12 sets, not a power of two
        assert!(c.validate().is_err());

        assert!(CacheConfig::paper_l2().validate().is_ok());
    }

    #[test]
    fn associativity_is_bounded_by_the_u8_line_state() {
        let ways = |assoc: usize| CacheConfig {
            name: "W".into(),
            size_bytes: assoc as u64 * 64,
            assoc,
            line_bytes: 64,
            write_policy: WritePolicy::WriteBackAllocate,
            hit_latency: 1,
        };
        assert!(ways(255).validate().is_ok());
        let e = ways(256).validate().unwrap_err();
        assert!(e.contains("associativity 256 exceeds the supported maximum 255"), "{e}");
    }
}
