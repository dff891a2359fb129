//! The fleet-driven collector: samples a running [`Fleet`] every N
//! ticks, maintains the fleet time series, scores every link's health,
//! drives the flight recorders, and publishes pre-rendered scrape
//! payloads through an [`ObsHub`].
//!
//! The collector piggybacks on [`Fleet::run_sampled`]: between tick
//! batches no worker holds a cohort, so sampling reads stats, link
//! reports and trace rings without contending with the data path — and
//! with no collector attached the fleet pays nothing (the ≤3% overhead
//! gate in `trace_report` pins this).

use std::sync::{Arc, Mutex};

use p5_runtime::Fleet;
use p5_trace::{render_prometheus, PromFamily, PromKind, TimeSeries};

use crate::flight::{esc, FlightConfig, FlightKind, FlightRecorder};
use crate::health::{HealthPolicy, HealthSample, HealthState, HealthSummary, LinkHealth};

/// Collector tuning.  Defaults suit a smoke-scale fleet; DESIGN.md §17
/// documents the sampling model.
#[derive(Debug, Clone, Copy)]
pub struct CollectorConfig {
    /// Sample interval in fleet ticks.
    pub every: u64,
    /// Retained [`TimeSeries`] points (fleet scope).
    pub series_capacity: usize,
    /// Points per windowed rate / windowed p99 reading.
    pub window: usize,
    /// Health thresholds and hysteresis.
    pub policy: HealthPolicy,
    /// Per-link flight-recorder sizing.
    pub flight: FlightConfig,
    /// Receive errors in a single window that fire the flight recorder
    /// on their own (error burst), regardless of health state.
    pub burst_errors: u64,
    /// Wall-clock calibration for Gbps readings; `0.0` = unknown
    /// (rates stay per-tick).
    pub ticks_per_second: f64,
    /// At most this many unhealthy links are listed individually in
    /// exports — the bounded-cardinality cap (the summary always
    /// counts all of them).
    pub max_listed: usize,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            every: 64,
            series_capacity: 256,
            window: 8,
            policy: HealthPolicy::default(),
            flight: FlightConfig::default(),
            burst_errors: 16,
            ticks_per_second: 0.0,
            max_listed: 16,
        }
    }
}

/// One recorded health transition (for detection-latency measurement
/// and the `/health` payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionRecord {
    pub link: usize,
    pub tick: u64,
    pub from: HealthState,
    pub to: HealthState,
}

/// Per-link absolute counters as of the previous sample.
#[derive(Debug, Clone, Copy, Default)]
struct PrevCounts {
    delivered: u64,
    offered: u64,
    errors: u64,
    resync_bytes: u64,
    shed: u64,
}

struct LinkTrack {
    prev: PrevCounts,
    health: LinkHealth,
    flight: FlightRecorder,
    /// Tick of the last state change (0 = never changed).
    since_tick: u64,
}

/// The shared, pre-rendered scrape state: the bridge between the
/// collector (writer) and the HTTP endpoint (reader).  Cloning shares
/// the same state.
#[derive(Clone)]
pub struct ObsHub(Arc<Mutex<HubState>>);

struct HubState {
    tick: u64,
    metrics: String,
    health: String,
    flight: String,
}

impl Default for ObsHub {
    fn default() -> Self {
        ObsHub(Arc::new(Mutex::new(HubState {
            tick: 0,
            metrics: String::new(),
            health: "{}".to_string(),
            flight: "[]".to_string(),
        })))
    }
}

impl ObsHub {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HubState> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn update(&self, tick: u64, metrics: String, health: String, flight: String) {
        let mut g = self.lock();
        g.tick = tick;
        g.metrics = metrics;
        g.health = health;
        g.flight = flight;
    }

    /// Fleet tick of the last published sample.
    pub fn tick(&self) -> u64 {
        self.lock().tick
    }

    /// The `/metrics` Prometheus payload.
    pub fn metrics(&self) -> String {
        self.lock().metrics.clone()
    }

    /// The `/health` JSON payload.
    pub fn health(&self) -> String {
        self.lock().health.clone()
    }

    /// The `/flight` JSON payload (triggered post-mortems).
    pub fn flight(&self) -> String {
        self.lock().flight.clone()
    }
}

/// The sampling engine.  Attach one to a fleet via
/// [`Collector::watch`], or call [`Collector::sample`] yourself from a
/// custom drive loop.
pub struct Collector {
    cfg: CollectorConfig,
    series: TimeSeries,
    links: Vec<LinkTrack>,
    samples: u64,
    transitions: Vec<TransitionRecord>,
    hub: ObsHub,
}

/// Retained transition records (enough for any plausible fleet run;
/// beyond this only the counters advance).
const MAX_TRANSITIONS: usize = 4096;

impl Collector {
    pub fn new(cfg: CollectorConfig) -> Self {
        Collector {
            cfg,
            series: TimeSeries::with_capacity(cfg.series_capacity),
            links: Vec::new(),
            samples: 0,
            transitions: Vec::new(),
            hub: ObsHub::new(),
        }
    }

    /// The hub this collector publishes to — hand a clone to
    /// [`crate::serve`].
    pub fn hub(&self) -> ObsHub {
        self.hub.clone()
    }

    pub fn config(&self) -> &CollectorConfig {
        &self.cfg
    }

    /// Samples taken so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The fleet-scope time series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Current health state of one link (None before the first sample).
    pub fn link_state(&self, link: usize) -> Option<HealthState> {
        self.links.get(link).map(|t| t.health.state())
    }

    /// Fleet health roll-up.
    pub fn summary(&self) -> HealthSummary {
        let mut s = HealthSummary::default();
        for t in &self.links {
            match t.health.state() {
                HealthState::Healthy => s.healthy += 1,
                HealthState::Degraded => s.degraded += 1,
                HealthState::Down => s.down += 1,
            }
        }
        s
    }

    /// Every recorded health transition, in order.
    pub fn transitions(&self) -> &[TransitionRecord] {
        &self.transitions
    }

    /// The flight-recorder post-mortem for one link, if it triggered.
    pub fn postmortem(&self, link: usize) -> Option<String> {
        let t = self.links.get(link)?;
        t.flight.is_triggered().then(|| t.flight.to_json(link))
    }

    /// JSON array of every triggered link's post-mortem.
    pub fn flight_json(&self) -> String {
        let mut s = String::from("[");
        let mut first = true;
        for (i, t) in self.links.iter().enumerate() {
            if !t.flight.is_triggered() {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&t.flight.to_json(i));
        }
        s.push(']');
        s
    }

    /// Drive `fleet` for up to `max_ticks`, sampling every
    /// `cfg.every` ticks.  Returns the ticks granted (stops early once
    /// the fleet drains).
    pub fn watch(&mut self, fleet: &mut Fleet, max_ticks: u64) -> u64 {
        let every = self.cfg.every;
        fleet.run_sampled(max_ticks, every, |f| self.sample(f))
    }

    /// Take one sample of a quiesced fleet (no worker may hold a
    /// cohort — [`Fleet::run_sampled`] guarantees this between
    /// batches).
    pub fn sample(&mut self, fleet: &Fleet) {
        let tick = fleet.ticks_run();
        if self.links.len() != fleet.links() {
            self.links = (0..fleet.links())
                .map(|_| LinkTrack {
                    prev: PrevCounts::default(),
                    health: LinkHealth::new(self.cfg.policy),
                    flight: FlightRecorder::new(self.cfg.flight),
                    since_tick: 0,
                })
                .collect();
        }
        let snaps = fleet.snapshots();
        if let Some(fs) = snaps.iter().find(|s| s.scope == "fleet") {
            self.series.record(tick, fs);
        }
        for r in fleet.link_reports() {
            let t = &mut self.links[r.link];
            let errors = r.rx.fcs_errors
                + r.rx.aborts
                + r.rx.runts
                + r.rx.giants
                + r.rx.header_errors
                + r.rx.address_mismatches;
            let cur = PrevCounts {
                delivered: r.flow.delivered,
                offered: r.flow.offered,
                errors,
                resync_bytes: r.resync_bytes,
                shed: r.flow.shed,
            };
            let win = HealthSample {
                delivered: cur.delivered.saturating_sub(t.prev.delivered),
                offered: cur.offered.saturating_sub(t.prev.offered),
                errors: cur.errors.saturating_sub(t.prev.errors),
                resync_bytes: cur.resync_bytes.saturating_sub(t.prev.resync_bytes),
                shed: cur.shed.saturating_sub(t.prev.shed),
            };
            t.prev = cur;
            t.flight.record(
                tick,
                FlightKind::Sample {
                    delivered: win.delivered,
                    errors: win.errors,
                    resync_bytes: win.resync_bytes,
                    shed: win.shed,
                },
            );
            if win.errors >= self.cfg.burst_errors {
                t.flight.fire(
                    tick,
                    format!("error burst: {} errors in one window", win.errors),
                );
            }
            if let Some(tr) = t.health.update(&win) {
                t.since_tick = tick;
                t.flight.record(
                    tick,
                    FlightKind::Transition {
                        from: tr.from,
                        to: tr.to,
                    },
                );
                if tr.to > tr.from {
                    t.flight
                        .fire(tick, format!("health {}->{}", tr.from, tr.to));
                }
                if self.transitions.len() < MAX_TRANSITIONS {
                    self.transitions.push(TransitionRecord {
                        link: r.link,
                        tick,
                        from: tr.from,
                        to: tr.to,
                    });
                }
            }
        }
        // Device taps: a traced link can emit hundreds of events per
        // window; keep the first few per end verbatim and fold the rest
        // into one summary entry so a flood can never crowd samples and
        // transitions out of a triggered flight window.
        const DEVICE_EVENTS_PER_END: usize = 4;
        for (id, ra, rb) in fleet.recorders() {
            let t = &mut self.links[*id];
            for (end, rec) in [("a", ra), ("b", rb)] {
                if rec.is_empty() {
                    continue;
                }
                let events = rec.events();
                for e in events.iter().take(DEVICE_EVENTS_PER_END) {
                    t.flight.record(
                        tick,
                        FlightKind::Device {
                            summary: format!("{end}:{}@{}", e.kind.name(), e.cycle),
                        },
                    );
                }
                if events.len() > DEVICE_EVENTS_PER_END {
                    let last = events.last().expect("non-empty");
                    t.flight.record(
                        tick,
                        FlightKind::Device {
                            summary: format!(
                                "{end}:+{} more, last {}@{}",
                                events.len() - DEVICE_EVENTS_PER_END,
                                last.kind.name(),
                                last.cycle
                            ),
                        },
                    );
                }
                rec.clear();
            }
        }
        self.samples += 1;
        let metrics = self.render_metrics(fleet);
        let health = self.render_health(tick, fleet);
        let flight = self.flight_json();
        self.hub.update(tick, metrics, health, flight);
    }

    /// Windowed per-tick delivery/shed rates plus the windowed p99
    /// latency bound, from the fleet time series.
    fn window_readings(&self) -> (f64, f64, f64, u64) {
        let w = self.cfg.window;
        let frames = self.series.window_rate_per_tick("delivered", w);
        let shed = self.series.window_rate_per_tick("shed", w);
        let bytes = self.series.window_rate_per_tick("delivered_bytes", w);
        let p99 = self
            .series
            .window_histogram("frame_latency_ticks", w)
            .quantile_bound(0.99)
            .unwrap_or(0);
        (frames, shed, bytes, p99)
    }

    fn render_metrics(&self, fleet: &Fleet) -> String {
        let (frames, shed, bytes, p99) = self.window_readings();
        let sum = self.summary();
        let mut health = PromFamily::new(
            "p5_obs_health_links",
            PromKind::Gauge,
            "links per health state (bounded: three series)",
        );
        for (state, n) in [
            ("healthy", sum.healthy),
            ("degraded", sum.degraded),
            ("down", sum.down),
        ] {
            health.push_sample([("state", state.to_string())], n as u64);
        }
        let mut unhealthy = PromFamily::new(
            "p5_obs_link_health",
            PromKind::Gauge,
            "per-link state for unhealthy links only (1=degraded 2=down), capped",
        );
        let mut listed = 0usize;
        for (i, t) in self.links.iter().enumerate() {
            if listed >= self.cfg.max_listed {
                break;
            }
            let v = match t.health.state() {
                HealthState::Healthy => continue,
                HealthState::Degraded => 1,
                HealthState::Down => 2,
            };
            unhealthy.push_sample([("link", i.to_string())], v);
            listed += 1;
        }
        let triggered = self
            .links
            .iter()
            .filter(|t| t.flight.is_triggered())
            .count();
        let families = [
            PromFamily::new(
                "p5_obs_samples",
                PromKind::Counter,
                "collector samples taken",
            )
            .sample([], self.samples),
            health,
            unhealthy,
            PromFamily::new(
                "p5_obs_window_frames_per_ktick",
                PromKind::Gauge,
                "windowed delivery rate, frames per 1000 ticks",
            )
            .sample([], (frames * 1000.0).round() as u64),
            PromFamily::new(
                "p5_obs_window_shed_per_ktick",
                PromKind::Gauge,
                "windowed shed rate, frames per 1000 ticks",
            )
            .sample([], (shed * 1000.0).round() as u64),
            PromFamily::new(
                "p5_obs_window_bytes_per_tick",
                PromKind::Gauge,
                "windowed delivered payload octets per tick",
            )
            .sample([], bytes.round() as u64),
            PromFamily::new(
                "p5_obs_window_p99_latency_ticks",
                PromKind::Gauge,
                "windowed p99 frame latency bound, ticks",
            )
            .sample([], p99),
            PromFamily::new(
                "p5_obs_flight_triggered",
                PromKind::Gauge,
                "links whose flight recorder has fired",
            )
            .sample([], triggered as u64),
        ];
        let mut out = fleet.prometheus();
        out.push_str(&render_prometheus(&families));
        out
    }

    fn render_health(&self, tick: u64, fleet: &Fleet) -> String {
        use std::fmt::Write as _;
        let (frames, shed, bytes, p99) = self.window_readings();
        let bits_per_tick = bytes * 8.0;
        let gbps = if self.cfg.ticks_per_second > 0.0 {
            bits_per_tick * self.cfg.ticks_per_second / 1e9
        } else {
            0.0
        };
        let sum = self.summary();
        let mut s = format!(
            "{{\"tick\":{tick},\"links\":{},\"samples\":{},\
             \"healthy\":{},\"degraded\":{},\"down\":{},",
            fleet.links(),
            self.samples,
            sum.healthy,
            sum.degraded,
            sum.down,
        );
        let _ = write!(
            s,
            "\"window\":{{\"frames_per_tick\":{frames:.6},\"shed_per_tick\":{shed:.6},\
             \"bits_per_tick\":{bits_per_tick:.3},\"gbps\":{gbps:.6},\
             \"p99_latency_ticks\":{p99}}},\"unhealthy\":["
        );
        let mut first = true;
        let mut listed = 0usize;
        for (i, t) in self.links.iter().enumerate() {
            if listed >= self.cfg.max_listed {
                break;
            }
            if t.health.state() == HealthState::Healthy {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            listed += 1;
            let _ = write!(
                s,
                "{{\"link\":{i},\"state\":\"{}\",\"since_tick\":{}}}",
                esc(t.health.state().name()),
                t.since_tick
            );
        }
        let _ = write!(s, "],\"transitions\":{}}}", self.transitions.len());
        s
    }
}
