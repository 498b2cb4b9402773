//! Wall-clock, on-CPU time and simulated events over one region of the
//! current thread.

use std::time::{Duration, Instant};

use crate::{accesses, thread_on_cpu};

/// Millions of events per second of `wall` (0 for an empty interval).
pub fn mev_per_sec(events: u64, wall: Duration) -> f64 {
    let s = wall.as_secs_f64();
    if s > 0.0 {
        events as f64 / s / 1e6
    } else {
        0.0
    }
}

/// Meters wall-clock, on-CPU time and simulated access events over a
/// region of the current thread.  The experiment runner wraps one around
/// each job; the CLI, the perf gate and the server's per-request latency
/// use it directly.
pub struct Meter {
    start: Instant,
    on_cpu_before: Option<Duration>,
    events_before: u64,
}

/// A finished [`Meter`] reading.
pub struct Measure {
    /// Elapsed wall-clock.
    pub wall: Duration,
    /// Time the thread was actually on-CPU during the region, when the OS
    /// exposes it (Linux's thread CPU clock); background load does not
    /// inflate it.
    pub on_cpu: Option<Duration>,
    /// Simulated access events during the region (this thread only).
    pub events: u64,
}

impl Meter {
    /// Starts metering.
    #[allow(clippy::new_without_default)]
    pub fn start() -> Meter {
        Meter { start: Instant::now(), on_cpu_before: thread_on_cpu(), events_before: accesses() }
    }

    /// Stops and reads the meter.  The CPU clock is read inside the wall
    /// interval at both ends, so `on_cpu` never covers more than `wall`.
    pub fn finish(self) -> Measure {
        let on_cpu =
            self.on_cpu_before.and_then(|before| Some(thread_on_cpu()?.saturating_sub(before)));
        Measure {
            wall: self.start.elapsed(),
            on_cpu,
            events: accesses().wrapping_sub(self.events_before),
        }
    }
}

impl Measure {
    /// Simulated events per second of wall-clock.
    pub fn events_per_sec(&self) -> f64 {
        mev_per_sec(self.events, self.wall) * 1e6
    }

    /// The region's compute time: on-CPU when available, else wall-clock.
    pub fn busy(&self) -> Duration {
        self.on_cpu.unwrap_or(self.wall)
    }

    /// One human line: `simulated 2076672 accesses in 0.031 s (67.0 Mev/s)`.
    pub fn summary(&self) -> String {
        format!(
            "simulated {} accesses in {:.3} s ({:.1} Mev/s)",
            self.events,
            self.wall.as_secs_f64(),
            mev_per_sec(self.events, self.wall)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_reads_the_access_odometer() {
        let meter = Meter::start();
        crate::tick_accesses(20);
        crate::tick_accesses(30);
        let m = meter.finish();
        assert_eq!(m.events, 50);
        assert!(m.summary().contains("50 accesses"), "{}", m.summary());
    }

    /// A region shorter than a scheduler tick, right after a sleep, must
    /// still read its on-CPU time: a clock the kernel only brings up to
    /// date at a tick or a switch reads ~0 here.
    #[cfg(target_os = "linux")]
    #[test]
    fn on_cpu_time_is_exact_below_a_scheduler_tick() {
        let slack = Duration::from_micros(5);
        let mut ratios: Vec<f64> = (0..20)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(1));
                let meter = Meter::start();
                let spin = Instant::now();
                while spin.elapsed() < Duration::from_micros(200) {
                    std::hint::spin_loop();
                }
                let m = meter.finish();
                let cpu = m.on_cpu.expect("Linux exposes the thread CPU clock");
                assert!(cpu <= m.wall + slack, "on-CPU {cpu:?} exceeds wall {:?}", m.wall);
                cpu.as_secs_f64() / m.wall.as_secs_f64()
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let median = ratios[ratios.len() / 2];
        assert!(median >= 0.5, "median on-CPU/wall {median:.2} over {ratios:?}");
    }
}
