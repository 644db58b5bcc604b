//! Open-loop arrival schedule and its pacer.
//!
//! Arrival times are fixed before the first send, from the record count and
//! the rate alone. A slow system therefore cannot slow the generator down:
//! latency is measured from when each record was *due*, so a stall is
//! charged to every record queued behind it (no coordinated omission), and
//! how late the generator itself ran is reported separately.

use std::time::{Duration, Instant};

/// Due offsets, in nanoseconds from the start of the phase, of `n`
/// arrivals at a constant `rate` per second.
pub fn constant_rate(n: usize, rate: f64) -> Vec<u64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let gap_ns = 1e9 / rate;
    (0..n).map(|i| (i as f64 * gap_ns) as u64).collect()
}

/// Sleeps (then spins the last stretch) until `origin + due_ns`.
pub fn wait_until(origin: Instant, due_ns: u64) {
    const SPIN: Duration = Duration::from_micros(80);
    let due = origin + Duration::from_nanos(due_ns);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Drives `send` once per scheduled arrival, waiting for each due time
/// (never for the previous send to be "caught up"), and returns how late
/// each send started, in nanoseconds.
pub fn run<F: FnMut(usize)>(origin: Instant, due: &[u64], mut send: F) -> Vec<u64> {
    let mut lateness = Vec::with_capacity(due.len());
    for (i, &d) in due.iter().enumerate() {
        wait_until(origin, d);
        let started = origin.elapsed().as_nanos() as u64;
        lateness.push(started.saturating_sub(d));
        send(i);
    }
    lateness
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_depends_only_on_count_and_rate() {
        let a = constant_rate(5, 1000.0);
        assert_eq!(a, vec![0, 1_000_000, 2_000_000, 3_000_000, 4_000_000]);
        assert_eq!(constant_rate(5, 1000.0), a);
    }

    #[test]
    fn a_slow_system_makes_the_generator_late_not_the_schedule() {
        let due = constant_rate(6, 2000.0); // every 0.5 ms
        let origin = Instant::now();
        let mut sent_at = Vec::new();
        // Each send takes 2 ms, four times the arrival gap.
        let lateness = run(origin, &due, |_| {
            sent_at.push(origin.elapsed().as_nanos() as u64);
            std::thread::sleep(Duration::from_millis(2));
        });
        // The schedule was not stretched to the system's pace...
        assert_eq!(due, constant_rate(6, 2000.0));
        // ...so the generator falls further behind with every send, and
        // sends go out back to back instead of waiting a gap each.
        assert!(lateness.windows(2).all(|w| w[1] > w[0]), "{lateness:?}");
        assert!(lateness[5] >= 5 * 1_500_000, "{lateness:?}");
    }
}
