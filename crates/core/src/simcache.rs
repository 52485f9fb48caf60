//! Stateless remnant of the deleted sweep-point cache. It exists only
//! so the frozen `perfbench` crate, which still names these items,
//! compiles; no workspace crate may call it. There is no cache:
//! [`set_override`] does nothing and [`stats`] always reads zero.

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    Off,
}

/// No-op: there is no cache to switch.
pub fn set_override(_mode: Option<Mode>) {}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub stores: u64,
}

impl CacheStats {
    pub fn delta_since(self, _earlier: CacheStats) -> CacheStats {
        self
    }
}

/// Lookup counts, always zero.
pub fn stats() -> CacheStats {
    CacheStats::default()
}
