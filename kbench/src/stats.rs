//! Order statistics and open-loop accounting shared by every workload.

/// 1-based nearest rank of the `q` percentile among `n` samples:
/// `⌈q·n/100⌉`, with `q·n/100` within 1e-9 of an integer taken as that
/// integer so decimal `q` such as 99.9 does not round up a rank.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 / 100.0) - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// value with at least `q` percent of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q).clamp(1, sorted.len()) - 1]
}

/// Returns an ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 50.0)
}

/// Samples strictly beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q).min(n)
}

/// Fixed-rate schedule of an open loop: request `i` is due `i / rate`
/// seconds after the loop starts, whether or not earlier requests are
/// done.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub period_s: f64,
}

impl Schedule {
    pub fn at_rate(per_s: f64) -> Self {
        Schedule {
            period_s: 1.0 / per_s,
        }
    }

    pub fn due(&self, i: usize) -> f64 {
        i as f64 * self.period_s
    }
}

/// One open-loop request, in seconds since the loop started.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub due: f64,
    pub start: f64,
    pub end: f64,
}

impl Request {
    /// Latency as a user sees it: from when the request was due, so a
    /// stall is charged to every request queued behind it.
    pub fn latency(&self) -> f64 {
        self.end - self.due
    }

    /// How late the generator issued the request.
    pub fn lateness(&self) -> f64 {
        self.start - self.due
    }
}

/// Replays a single-server open loop: request `i` starts at its due time
/// or when request `i - 1` ends, whichever is later, and takes
/// `service[i]` seconds. The benchmark's reader loop follows the same
/// rule in real time; this is its model.
#[cfg(test)]
pub fn simulate_open_loop(schedule: Schedule, service: &[f64]) -> Vec<Request> {
    let mut free_at = 0.0f64;
    service
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let due = schedule.due(i);
            let start = due.max(free_at);
            free_at = start + s;
            Request {
                due,
                start,
                end: free_at,
            }
        })
        .collect()
}

/// Whether the backlog of an open loop grew over the window: the median
/// lateness of the last quarter of requests exceeds that of the first
/// quarter by more than four periods (and 1 ms). A single stall that
/// the loop works off does not count; a rate above capacity does.
pub fn backlog_grows(requests: &[Request], schedule: Schedule) -> bool {
    let quarter = requests.len() / 4;
    if quarter == 0 {
        return false;
    }
    let lateness = |rs: &[Request]| median(&rs.iter().map(Request::lateness).collect::<Vec<_>>());
    let first = lateness(&requests[..quarter]);
    let last = lateness(&requests[requests.len() - quarter..]);
    last - first > (4.0 * schedule.period_s).max(1e-3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The definition in integers: sort, then take the first value whose
    /// 1-based position `r` has `r / n ≥ q_permille / 1000`.
    fn oracle(values: &[f64], q_permille: usize) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = v.len();
        let r = (1..=n).find(|r| r * 1000 >= q_permille * n).unwrap();
        v[r - 1]
    }

    #[test]
    fn nearest_rank_matches_sort_oracle() {
        let mut rng = SmallRng::seed_from_u64(3);
        for len in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let values: Vec<f64> = (0..len).map(|_| rng.random_range(0.0..1.0)).collect();
            let s = sorted(&values);
            for qm in [0usize, 10, 250, 500, 900, 990, 999, 1000] {
                let q = qm as f64 / 10.0;
                assert_eq!(nearest_rank(&s, q), oracle(&values, qm), "len {len} q {q}");
            }
        }
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(1000, 99.0), 10);
    }

    #[test]
    fn stall_is_charged_to_the_requests_behind_it() {
        let schedule = Schedule::at_rate(100.0); // due every 10 ms
        let mut service = vec![0.002; 20];
        service[5] = 0.055; // one 55 ms stall
        let reqs = simulate_open_loop(schedule, &service);
        let lat: Vec<f64> = reqs.iter().map(Request::latency).collect();
        assert!((lat[4] - 0.002).abs() < 1e-12);
        assert!((lat[5] - 0.055).abs() < 1e-12);
        // Request 6 was due at 60 ms but could only start at 105 ms.
        assert!((reqs[6].lateness() - 0.045).abs() < 1e-12);
        assert!((lat[6] - 0.047).abs() < 1e-12);
        assert!(lat[7] > 0.030 && lat[8] > 0.020 && lat[9] > 0.010);
        // Worked off by request 12: back to the bare service time.
        assert!(lat[11] > 0.002 + 1e-6);
        assert!((lat[12] - 0.002).abs() < 1e-12);
        // A closed loop (time from start) would have hidden all of it.
        assert!(reqs.iter().all(|r| r.end - r.start <= 0.055 + 1e-12));
    }

    #[test]
    fn backlog_growth_is_detected() {
        let schedule = Schedule::at_rate(100.0);
        // Service below the period: lateness stays at zero.
        let steady = simulate_open_loop(schedule, &vec![0.008; 400]);
        assert!(!backlog_grows(&steady, schedule));
        // One stall early on, then recovery: not growth.
        let mut stalled = vec![0.008; 400];
        stalled[10] = 0.2;
        assert!(!backlog_grows(
            &simulate_open_loop(schedule, &stalled),
            schedule
        ));
        // Service 20% above the period: lateness grows without bound.
        let overloaded = simulate_open_loop(schedule, &vec![0.012; 400]);
        assert!(backlog_grows(&overloaded, schedule));
        // Too short a window to judge.
        assert!(!backlog_grows(&overloaded[..3], schedule));
    }
}
