//! The discrete-event core the simulators share: terminal wake-ups
//! ordered by `(time, terminal)` — deterministic in the seed — and the
//! exponential think-time sampler.

use rand::rngs::SmallRng;
use rand::Rng;

/// One terminal's next wake-up.
#[derive(PartialEq)]
pub(crate) struct Event {
    pub(crate) time: f64,
    pub(crate) terminal: usize,
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("event times are finite")
            .then(self.terminal.cmp(&other.terminal))
    }
}

pub(crate) fn exp_sample(rng: &mut SmallRng, mean: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen_range(1e-12..1.0);
    -mean * u.ln()
}
