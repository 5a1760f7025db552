//! The parallelism policy knob shared by every layer of the workspace.

use std::sync::OnceLock;

/// Environment variable overriding the worker count resolved by
/// [`Parallelism::Auto`] (explicit `Serial` / `Threads(n)` settings win).
///
/// The CI test matrix forces this to `1` and to `4` so the whole suite runs
/// under both policies. The value is read once per process and cached.
pub const THREADS_ENV: &str = "DHMM_THREADS";

/// How many workers a parallel section may use.
///
/// One value of this type, threaded through `BaumWelchConfig`,
/// `DiversifiedConfig`, `SupervisedConfig` and `StreamConfig`, governs the
/// E-step, the concurrent M-step halves and the session pool's ticks end to
/// end. Because every parallel primitive in the
/// runtime is bit-deterministic across thread counts, changing this knob
/// changes wall-clock time only — never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run everything on the calling thread. The oracle policy for
    /// equivalence tests, and the right choice inside code that is already
    /// running on a pool worker.
    Serial,
    /// Use exactly `n` workers (clamped to at least 1), regardless of the
    /// machine or environment. Deterministic partitioning makes any `n`
    /// safe; `n` beyond the physical core count just over-partitions.
    Threads(usize),
    /// Use the `DHMM_THREADS` override when set, otherwise the number of
    /// available hardware threads. The default everywhere.
    #[default]
    Auto,
}

impl Parallelism {
    /// The number of workers this policy resolves to on this machine.
    pub fn resolve(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => auto_workers(),
        }
    }
}

/// `Auto` resolution, computed once per process: the `DHMM_THREADS` override
/// if set to a positive integer, else `std::thread::available_parallelism`.
fn auto_workers() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        if let Ok(raw) = std::env::var(THREADS_ENV) {
            if let Ok(n) = raw.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_policies_resolve_exactly() {
        assert_eq!(Parallelism::Serial.resolve(), 1);
        assert_eq!(Parallelism::Threads(4).resolve(), 4);
        // Zero is clamped rather than producing a zero-worker executor.
        assert_eq!(Parallelism::Threads(0).resolve(), 1);
    }

    #[test]
    fn auto_resolves_to_at_least_one() {
        assert!(Parallelism::Auto.resolve() >= 1);
        // Cached: two resolutions agree.
        assert_eq!(Parallelism::Auto.resolve(), Parallelism::Auto.resolve());
    }

    #[test]
    fn default_is_auto() {
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }
}
