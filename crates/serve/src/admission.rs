//! Admission control: the degradation controller repurposed as a
//! load shedder.
//!
//! The per-frame runtime uses [`Controller`] to walk a degradation
//! ladder when *serving* a frame blows its deadline. The daemon reuses
//! the identical machinery one level up: before a request even reaches
//! an engine, its **modeled queueing delay** — how long it would sit
//! behind the work already queued on its connection — is fed to the
//! controller as if it were an observed latency. Sustained backlog walks
//! the ladder exactly like sustained deadline misses would, and once the
//! tenant's admission state reaches [`HealthState::SafeFallback`] the
//! daemon sheds new requests instead of queueing them into certain
//! deadline misses. An idle queue feeds small latencies, so the
//! controller's own hysteresis (`RECOVER_AFTER` clean frames under
//! `RECOVER_MARGIN` × budget) governs when shedding stops.
//!
//! Everything is modeled, not measured — no wall clock — so admission
//! decisions are a deterministic function of request order, which is
//! what lets journal replay reproduce them.

use rtped_runtime::{Controller, DeadlineBudget, HealthState, Transition};

/// The fraction of the frame budget one queued request is modeled to
/// cost. Half a budget per queue slot means a queue depth of two is
/// already deadline-threatening, which matches the daemon's goal of
/// bounding p99 rather than maximizing throughput.
pub const QUEUE_COST_FRACTION: f64 = 0.5;

/// The verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Serve it.
    Admit,
    /// Reject it without touching the engine.
    Shed,
}

/// Per-tenant admission state.
#[derive(Debug)]
pub struct Admission {
    controller: Controller,
    shed: u64,
}

impl Admission {
    /// Builds admission control around the tenant's deadline budget.
    #[must_use]
    pub fn new(budget: DeadlineBudget) -> Self {
        Admission {
            controller: Controller::new(budget),
            shed: 0,
        }
    }

    /// The admission ladder's current state.
    #[must_use]
    pub fn state(&self) -> HealthState {
        self.controller.state()
    }

    /// Requests shed so far.
    #[must_use]
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Judges one request given `queued_ahead` requests already waiting
    /// on the same connection queue. Returns the verdict plus any ladder
    /// transition the observation caused.
    pub fn assess(&mut self, queued_ahead: usize) -> (Verdict, Option<Transition>) {
        let modeled_wait_ms =
            queued_ahead as f64 * QUEUE_COST_FRACTION * self.controller.budget().frame_budget_ms;
        let transition = self.controller.observe_ok(modeled_wait_ms);
        if self.controller.state() == HealthState::SafeFallback {
            self.shed += 1;
            (Verdict::Shed, transition)
        } else {
            (Verdict::Admit, transition)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admission() -> Admission {
        Admission::new(DeadlineBudget::from_ms(15.0))
    }

    #[test]
    fn empty_queue_always_admits() {
        let mut adm = admission();
        for _ in 0..100 {
            let (verdict, _) = adm.assess(0);
            assert_eq!(verdict, Verdict::Admit);
        }
        assert_eq!(adm.state(), HealthState::Healthy);
        assert_eq!(adm.shed_count(), 0);
    }

    #[test]
    fn sustained_backlog_walks_the_ladder_to_shedding() {
        let mut adm = admission();
        // Depth 3 models 22.5 ms of wait against a 15 ms budget: every
        // assessment is a miss, so the ladder escalates to SafeFallback
        // (4 steps) and then sheds.
        let mut verdicts = Vec::new();
        for _ in 0..8 {
            verdicts.push(adm.assess(3).0);
        }
        assert_eq!(adm.state(), HealthState::SafeFallback);
        assert!(verdicts.contains(&Verdict::Shed));
        assert_eq!(
            verdicts.last(),
            Some(&Verdict::Shed),
            "saturated queue keeps shedding"
        );
        assert!(adm.shed_count() > 0);
    }

    #[test]
    fn drained_queue_recovers_and_admits_again() {
        let mut adm = admission();
        while adm.state() != HealthState::SafeFallback {
            adm.assess(3);
        }
        // An idle queue models ~zero wait; the controller's hysteresis
        // (RECOVER_AFTER clean observations) climbs back to admitting.
        let mut admitted = false;
        for _ in 0..64 {
            if adm.assess(0).0 == Verdict::Admit {
                admitted = true;
                break;
            }
        }
        assert!(admitted, "admission never recovered from shedding");
    }

    #[test]
    fn decisions_are_deterministic_in_request_order() {
        let depths = [0, 1, 3, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 3];
        let run = || {
            let mut adm = admission();
            depths.iter().map(|&d| adm.assess(d).0).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
