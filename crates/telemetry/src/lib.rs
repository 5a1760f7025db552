//! Zero-overhead metrics for the dhmm workspace.
//!
//! Production serving needs in-process visibility — hot-swap rebinds, tick
//! latency, backpressure rejections, EM convergence — without perturbing
//! the hot paths it observes. This crate is the bottom-layer answer,
//! dependency-free like `dhmm_runtime`:
//!
//! * [`Counter`] / [`Gauge`] — lock-free relaxed atomics behind cheap
//!   clonable handles.
//! * [`Histogram`] — HDR-style log-bucketed (power-of-2 octaves with
//!   [`SUB_BUCKETS`] linear sub-buckets each) with p50/p99/p99.9 readout;
//!   the quantile error is bounded by one bucket width (≤ [`REL_ERROR`]
//!   relative). Recording is one index computation plus one relaxed
//!   `fetch_add`.
//! * [`Span`] — a monotonic-clock timer that records elapsed nanoseconds
//!   into a histogram on drop, and compiles to nothing (not even a clock
//!   read) on a no-op histogram.
//! * [`Registry`] — owns the registered metrics for exposition; handles are
//!   `Arc`-backed so cloning a registry or a metric is one refcount bump.
//!   [`Registry::render`] encodes a Prometheus-style text exposition
//!   (counters, gauges, and histograms as quantile summaries).
//! * [`TelemetrySink`] — the on/off knob, threaded through configs like
//!   `Parallelism`. `Disabled` hands out no-op handles whose record calls
//!   are a single branch on a `None`, so instrumentation can sit inside
//!   `StreamingDecoder::push` without violating the pinned zero-allocation
//!   contract (`crates/stream/tests/zero_alloc.rs`) or the bit-identity
//!   determinism contract — metrics never touch the arithmetic.
//!
//! Counters that double as functional state (e.g. the session pool's
//! lifetime token counts, which back the `stats` wire reply) use
//! [`TelemetrySink::live_counter`]: under `Disabled` they still count into a
//! detached atomic (one relaxed `fetch_add`, the same cost as the `u64 += 1`
//! they replaced) but are not registered anywhere. Everything else — span
//! timers, histograms, exposition-only gauges — is a true no-op when
//! disabled.
//!
//! # Zero allocation on the record path
//!
//! All storage is sized at registration: histogram bucket arrays, label
//! strings, registry entries. `inc`/`add`/`set`/`record`/`Span` perform no
//! heap allocation; [`Registry::render`] (the cold scrape path) is the only
//! allocating operation.

mod histogram;
mod metrics;
mod registry;

pub use histogram::{Histogram, HistogramSnapshot, Span, NUM_BUCKETS, REL_ERROR, SUB_BUCKETS};
pub use metrics::{Counter, Gauge};
pub use registry::{global, Registry};

/// Where (and whether) a component records its metrics — the observability
/// sibling of `Parallelism`, carried by `StreamConfig`, `ServeConfig` and
/// `BaumWelchConfig` as a `telemetry` field with a `with_telemetry` builder.
#[derive(Clone, Debug, Default)]
pub enum TelemetrySink {
    /// Record into this registry (the process-global [`global`] one or a
    /// private instance for tests/benches).
    Registry(Registry),
    /// No-op handles: histograms and spans cost one `None` check, pure
    /// telemetry counters/gauges are dropped, and nothing is registered for
    /// exposition. The default, so library users pay nothing unasked.
    #[default]
    Disabled,
}

impl PartialEq for TelemetrySink {
    /// Sink equality is identity of the backing registry (or shared
    /// disabled-ness) — registries are stateful handles, not values, and
    /// this keeps the derived `PartialEq` of every carrying config useful.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (TelemetrySink::Disabled, TelemetrySink::Disabled) => true,
            (TelemetrySink::Registry(a), TelemetrySink::Registry(b)) => a.ptr_eq(b),
            _ => false,
        }
    }
}

impl TelemetrySink {
    /// A sink recording into the process-global registry.
    pub fn process_global() -> Self {
        TelemetrySink::Registry(global().clone())
    }

    /// Whether metrics recorded through this sink are observable anywhere.
    pub fn enabled(&self) -> bool {
        matches!(self, TelemetrySink::Registry(_))
    }

    /// The backing registry, when enabled.
    pub fn registry(&self) -> Option<&Registry> {
        match self {
            TelemetrySink::Registry(r) => Some(r),
            TelemetrySink::Disabled => None,
        }
    }

    /// A counter for pure telemetry: registered when enabled, a no-op
    /// otherwise.
    pub fn counter(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        help: &'static str,
    ) -> Counter {
        match self {
            TelemetrySink::Registry(r) => r.counter(name, labels, help),
            TelemetrySink::Disabled => Counter::noop(),
        }
    }

    /// A counter whose value is functional state (accessors/wire replies
    /// read it back): registered when enabled, *detached but live* when
    /// disabled, so `value()` keeps working either way.
    pub fn live_counter(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        help: &'static str,
    ) -> Counter {
        match self {
            TelemetrySink::Registry(r) => r.counter(name, labels, help),
            TelemetrySink::Disabled => Counter::detached(),
        }
    }

    /// A gauge for pure telemetry: registered when enabled, no-op otherwise.
    pub fn gauge(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        help: &'static str,
    ) -> Gauge {
        match self {
            TelemetrySink::Registry(r) => r.gauge(name, labels, help),
            TelemetrySink::Disabled => Gauge::noop(),
        }
    }

    /// A histogram: registered when enabled, no-op (spans skip even the
    /// clock read) otherwise.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        help: &'static str,
    ) -> Histogram {
        match self {
            TelemetrySink::Registry(r) => r.histogram(name, labels, help),
            TelemetrySink::Disabled => Histogram::noop(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_equality_is_registry_identity() {
        let a = Registry::new();
        let b = Registry::new();
        assert_eq!(TelemetrySink::Disabled, TelemetrySink::Disabled);
        assert_eq!(
            TelemetrySink::Registry(a.clone()),
            TelemetrySink::Registry(a.clone())
        );
        assert_ne!(
            TelemetrySink::Registry(a.clone()),
            TelemetrySink::Registry(b)
        );
        assert_ne!(TelemetrySink::Registry(a), TelemetrySink::Disabled);
    }

    #[test]
    fn disabled_sink_hands_out_noops_except_live_counters() {
        let sink = TelemetrySink::Disabled;
        let c = sink.counter("dhmm_test_noop_total", &[], "noop");
        c.add(5);
        assert_eq!(c.value(), 0);
        let live = sink.live_counter("dhmm_test_live_total", &[], "live");
        live.add(5);
        assert_eq!(live.value(), 5);
        let h = sink.histogram("dhmm_test_noop_ns", &[], "noop");
        h.record(123);
        assert_eq!(h.count(), 0);
        drop(h.span());
        let g = sink.gauge("dhmm_test_noop", &[], "noop");
        g.set(1.5);
        assert_eq!(g.value(), 0.0);
    }

    #[test]
    fn enabled_sink_registers_into_its_registry() {
        let reg = Registry::new();
        let sink = TelemetrySink::Registry(reg.clone());
        assert!(sink.enabled());
        let c = sink.counter("dhmm_test_total", &[("kind", "x")], "a test counter");
        c.inc();
        let text = reg.render();
        assert!(text.contains("dhmm_test_total{kind=\"x\"} 1"), "{text}");
    }
}
