//! Percentiles under the benchmark's tail rule, and open-loop due-time
//! latency accounting.

use std::time::{Duration, Instant};

/// Fewest samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (0 < p <= 100) among `n` sorted
/// samples: the smallest index whose rank covers `p` percent of them.
pub fn rank_index(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank_index(n, p)
}

/// Whether `n` samples support reporting percentile `p`: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Fewest samples that support percentile `p` under the tail rule.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| supports(n, p))
        .expect("some sample size supports p")
}

/// Median of `values` (sorted in place); the mean of the middle two for an
/// even count.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The quiet ones among readings taken under the given host steal shares,
/// as ascending indices: every reading with at most `limit` steal, or, when
/// fewer than half are that quiet, the half (rounded up) with the least.
pub fn quiet(steal: &[f64], limit: f64) -> Vec<usize> {
    let mut by_steal: Vec<usize> = (0..steal.len()).collect();
    by_steal.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let quiet = steal.iter().filter(|&&s| s <= limit).count();
    by_steal.truncate(quiet.max(steal.len().div_ceil(2)));
    by_steal.sort_unstable();
    by_steal
}

/// Percentile `p` of samples in time order, taken per block and reported as
/// the median over blocks. The samples are cut into as many equal
/// consecutive blocks (at most `max_blocks`) as keep every block large
/// enough for `p` under the tail rule. A burst of host noise then moves the
/// blocks it falls in, not the median of them. `None` when even one block is
/// too small.
pub fn block_percentile(in_order: &[f64], p: f64, max_blocks: usize) -> Option<f64> {
    let n = in_order.len();
    let need = min_samples(p);
    if n < need {
        return None;
    }
    let k = (n / need).clamp(1, max_blocks.max(1));
    let mut per_block: Vec<f64> = (0..k)
        .map(|b| percentile(&mut in_order[b * n / k..(b + 1) * n / k].to_vec(), p))
        .collect();
    Some(median(&mut per_block))
}

/// Nearest-rank percentile `p` of `samples` (sorted in place).
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[rank_index(samples.len(), p)]
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// An open-loop arrival schedule: request `i` is due `i * period` after
/// `start`, whatever happened to earlier requests.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Instant,
    pub period: Duration,
    /// Requests due strictly before `start + window` belong to the stream.
    pub count: usize,
}

impl Schedule {
    /// A stream at `rate` requests per second over `window`.
    pub fn new(start: Instant, rate: f64, window: Duration) -> Schedule {
        let period = Duration::from_secs_f64(1.0 / rate);
        let count = (window.as_secs_f64() * rate).ceil() as usize;
        Schedule {
            start,
            period,
            count,
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.period * i as u32
    }
}

/// How one open-loop request fared: it is timed from when it was due, so a
/// stall that delays later sends is billed to every request it delayed, and
/// the generator's own lateness is reported beside it. Times are nanoseconds
/// on one clock; a closed-loop request is due when it is sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DueTiming {
    /// Reply time minus due time.
    pub latency: u64,
    /// Send time minus due time: how late the generator ran.
    pub late: u64,
}

/// Due-time accounting for one request.
pub fn due_timing(due: u64, sent: u64, received: u64) -> DueTiming {
    DueTiming {
        latency: received.saturating_sub(due),
        late: sent.saturating_sub(due),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(40, 75.0));
        assert!(!supports(40, 90.0));
        assert!(!supports(15, 50.0));
    }

    #[test]
    fn block_percentiles_shrug_off_a_burst() {
        assert_eq!(min_samples(50.0), 20);
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(99.0), 1000);
        // 3000 samples at 1.0 with a burst of 100 slow ones: pooled, the
        // burst owns p99; per block, it moves one block of three.
        let mut xs = vec![1.0; 3000];
        for x in &mut xs[1100..1200] {
            *x = 50.0;
        }
        assert_eq!(percentile(&mut xs.clone(), 99.0), 50.0);
        assert_eq!(block_percentile(&xs, 99.0, 20), Some(1.0));
        assert_eq!(block_percentile(&xs[..999], 99.0, 20), None);
        assert_eq!(block_percentile(&xs[..30], 50.0, 20), Some(1.0));
    }

    #[test]
    fn quiet_readings_are_the_low_steal_ones() {
        assert_eq!(quiet(&[0.01, 0.2, 0.03, 0.04], 0.05), vec![0, 2, 3]);
        // Too few under the limit: the least-stolen half, rounded up.
        assert_eq!(quiet(&[0.3, 0.1, 0.2, 0.04, 0.5], 0.05), vec![1, 2, 3]);
        assert_eq!(quiet(&[], 0.05), Vec::<usize>::new());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 50.0), 50.0);
        assert_eq!(percentile(&mut xs, 90.0), 90.0);
        assert_eq!(percentile(&mut xs, 100.0), 100.0);
        let mut one = [7.0];
        assert_eq!(percentile(&mut one, 99.0), 7.0);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let t0 = Instant::now();
        let schedule = Schedule::new(t0, 100.0, Duration::from_secs(1));
        assert_eq!(schedule.count, 100);
        assert_eq!(schedule.due(3) - t0, Duration::from_millis(30));
        let ms = |x: u64| x * 1_000_000;
        let due = |i: u64| ms(10 * i);
        // Request 0 stalls for 35 ms; requests 1..=3 fell due meanwhile and
        // go out late on the same connection, one after another.
        let r0 = due_timing(due(0), 0, ms(35));
        assert_eq!((r0.latency, r0.late), (ms(35), 0));
        let r1 = due_timing(due(1), ms(35), ms(36));
        assert_eq!(r1.latency, ms(26), "billed the stall it waited out");
        assert_eq!(r1.late, ms(25));
        let r3 = due_timing(due(3), ms(37), ms(38));
        assert_eq!((r3.latency, r3.late), (ms(8), ms(7)));
        // Back on schedule: timed like a closed-loop request.
        let r4 = due_timing(due(4), ms(40), ms(41));
        assert_eq!((r4.latency, r4.late), (ms(1), 0));
    }

    #[test]
    fn sending_early_is_not_negative_lateness() {
        let timing = due_timing(5_000, 0, 6_000);
        assert_eq!(timing.late, 0);
        assert_eq!(timing.latency, 1_000);
    }
}
