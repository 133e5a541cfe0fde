//! `moca-telemetry`: observability for the MOCA simulator stack.
//!
//! Three layers, all strictly observational (a run with telemetry enabled
//! retires the exact same cycles and metrics as one without):
//!
//! 1. **Events** — cycle-stamped structured records ([`Event`]) routed
//!    through a pluggable [`Sink`] (no-op or bounded ring).
//! 2. **Metrics** — a hierarchical counter/histogram [`Registry`] plus
//!    periodic [`WindowSnapshot`]s (per-window IPC, L2 MPKI, queue depths,
//!    bus occupancy, frame-pool headroom).
//! 3. **Export & self-profiling** — a Chrome-trace/Perfetto JSON exporter
//!    ([`write_chrome_trace`]) and host wall-time spans ([`HostProfiler`],
//!    [`ComponentTimes`]).
//!
//! The simulator threads a [`Telemetry`] value through its hot paths; when
//! disabled every record call is a branch on one bool and returns.

pub mod attribution;
mod event;
mod profiler;
mod progress;
mod registry;
mod sink;
mod trace;

pub use attribution::{
    tier_index, tier_name, AttrTagTable, Bucket, CoreAttr, CycleBuckets, Mechanism,
    OccupancySample, TagAttr, MECH_COUNT, TIER_COUNT, TIER_UNRESOLVED,
};
pub use event::{Event, EventIntent, TimedEvent};
pub use profiler::{ComponentTimes, HostProfiler, HostSpan};
pub use progress::ProgressReporter;
pub use registry::{
    CounterId, Histogram, HistogramId, Registry, WindowSnapshot, HISTOGRAM_BUCKETS,
};
pub use sink::{NullSink, RingSink, Sink};
pub use trace::write_chrome_trace;

use moca_common::Cycle;

/// The telemetry context a simulation carries: per-kind event counters, the
/// metric registry, the event sink, and the sampling/profiling switches.
pub struct Telemetry {
    enabled: bool,
    host_profile: bool,
    /// Simulated-cycle length of each metrics window; `None` disables
    /// periodic sampling.
    pub window_cycles: Option<Cycle>,
    sink: Box<dyn Sink>,
    /// The metric registry (counters, histograms, windows).
    pub registry: Registry,
    /// Approximate host wall time per simulator component, filled by the
    /// system loop when host profiling is on.
    pub components: ComponentTimes,
    event_counters: [CounterId; Event::KIND_COUNT],
    hist_read_latency: HistogramId,
    hist_read_queue: HistogramId,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("host_profile", &self.host_profile)
            .field("window_cycles", &self.window_cycles)
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    fn build(enabled: bool, sink: Box<dyn Sink>) -> Telemetry {
        let mut registry = Registry::new();
        let event_counters =
            std::array::from_fn(|i| registry.counter(&format!("events.{}", Event::KIND_NAMES[i])));
        let hist_read_latency = registry.histogram("dram.read_latency_cycles");
        let hist_read_queue = registry.histogram("dram.read_queue_cycles");
        Telemetry {
            enabled,
            host_profile: false,
            window_cycles: None,
            sink,
            registry,
            components: ComponentTimes::default(),
            event_counters,
            hist_read_latency,
            hist_read_queue,
        }
    }

    /// Inert telemetry: every record call returns immediately. This is what
    /// `System::new` uses, so untraced runs pay one bool test per event site.
    pub fn disabled() -> Telemetry {
        Telemetry::build(false, Box::new(NullSink))
    }

    /// Enabled telemetry routing events to `sink`.
    pub fn with_sink(sink: Box<dyn Sink>) -> Telemetry {
        Telemetry::build(true, sink)
    }

    /// Enable periodic metric windows of `cycles` simulated cycles.
    pub fn with_window(mut self, cycles: Cycle) -> Telemetry {
        assert!(cycles > 0, "metrics window must be positive");
        self.window_cycles = Some(cycles);
        self
    }

    /// Enable per-component host wall-time accounting in the system loop.
    pub fn with_host_profiling(mut self) -> Telemetry {
        self.host_profile = true;
        self
    }

    /// Whether events/metrics are being recorded at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the system loop should accumulate [`ComponentTimes`].
    #[inline]
    pub fn host_profiling(&self) -> bool {
        self.enabled && self.host_profile
    }

    /// Record one event at cycle `at`: bumps the per-kind counter and
    /// forwards to the sink. No-op when disabled.
    #[inline]
    pub fn record(&mut self, at: Cycle, event: Event) {
        if !self.enabled {
            return;
        }
        self.registry.inc(self.event_counters[event.kind_index()]);
        self.sink.emit(at, event);
    }

    /// Record a completed DRAM read: cycles queued before issue and total
    /// cycles to completion. No-op when disabled.
    #[inline]
    pub fn observe_read_latency(&mut self, queue_cycles: Cycle, total_cycles: Cycle) {
        if !self.enabled {
            return;
        }
        self.registry.observe(self.hist_read_queue, queue_cycles);
        self.registry.observe(self.hist_read_latency, total_cycles);
    }

    /// Append a completed sampling window.
    pub fn push_window(&mut self, w: WindowSnapshot) {
        self.registry.push_window(w);
    }

    /// Total events recorded (sum of the per-kind counters).
    pub fn events_recorded(&self) -> u64 {
        self.event_counters
            .iter()
            .map(|id| self.registry.counter_value(*id))
            .sum()
    }

    /// Drain buffered events out of the sink (empty for a [`NullSink`]).
    pub fn drain_events(&mut self) -> Vec<TimedEvent> {
        self.sink.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_records_nothing() {
        let mut tel = Telemetry::disabled();
        tel.record(10, Event::MshrFullStall { core: 0 });
        tel.observe_read_latency(5, 50);
        assert!(!tel.enabled());
        assert!(!tel.host_profiling());
        assert_eq!(tel.events_recorded(), 0);
        assert_eq!(
            tel.registry.counter_value_by_name("events.mshr_full_stall"),
            Some(0)
        );
        assert!(tel.drain_events().is_empty());
    }

    #[test]
    fn enabled_telemetry_counts_and_buffers() {
        let mut tel = Telemetry::with_sink(Box::new(RingSink::new(8)))
            .with_window(1000)
            .with_host_profiling();
        assert!(tel.enabled());
        assert!(tel.host_profiling());
        assert_eq!(tel.window_cycles, Some(1000));
        tel.record(1, Event::MshrFullStall { core: 0 });
        tel.record(2, Event::MshrFullStall { core: 1 });
        tel.record(
            3,
            Event::BankConflict {
                channel: 0,
                bank: 3,
            },
        );
        tel.observe_read_latency(4, 44);
        assert_eq!(tel.events_recorded(), 3);
        assert_eq!(
            tel.registry.counter_value_by_name("events.mshr_full_stall"),
            Some(2)
        );
        assert_eq!(
            tel.registry.counter_value_by_name("events.bank_conflict"),
            Some(1)
        );
        assert_eq!(
            tel.registry
                .histogram_by_name("dram.read_latency_cycles")
                .unwrap()
                .count(),
            1
        );
        let events = tel.drain_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].at, 1);
    }
}
